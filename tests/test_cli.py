import ast
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import passquant
from passquant import (
    AnalysisConfig,
    ConfigError,
    LambdaChoices,
    load_config,
    parse_config,
)
from passquant import cli
from passquant.cli import main
from passquant.config import bundled_config_path
from tests.test_golden import GOLDEN, OUT, golden_path

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, command, config, *extra):
    code, out = run_cli(
        capsys, command, "--config", config, "--format", "json", *extra
    )
    return code, json.loads(out)


class TestConfigValidation:
    def test_bundled_configs_parse(self):
        for name in ("example1", "example2", "example5", "loop_a", "loop_b", "loop_c"):
            cfg = load_config(bundled_config_path(name))
            assert cfg.tau > 0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            parse_config({"controller": {}, "sampling": {"tau": 0.3}, "bogus": 1})

    def test_unknown_nested_key_path(self):
        doc = {
            "controller": {"type": "lti", "extra": 1},
            "sampling": {"tau": 0.3},
        }
        with pytest.raises(ConfigError, match="controller.extra"):
            parse_config(doc)

    def test_matrix_shape_diagnostics(self):
        doc = {
            "controller": {
                "type": "lti",
                "A": {"rows": 2, "cols": 2, "data": [1, 2, 3]},
                "B": {"rows": 2, "cols": 1, "data": [0, 1]},
                "C": {"rows": 1, "cols": 2, "data": [1, 0]},
                "D": {"rows": 1, "cols": 1, "data": [0]},
            },
            "sampling": {"tau": 0.3},
        }
        with pytest.raises(ConfigError, match="controller.A.data"):
            parse_config(doc)

    def test_unknown_registered_model(self):
        doc = {
            "controller": {"type": "registered", "name": "nope"},
            "sampling": {"tau": 0.3},
        }
        with pytest.raises(ConfigError, match="controller.name"):
            parse_config(doc)

    def test_bad_mode_rejected(self):
        doc = {
            "controller": {"type": "registered", "name": "example5_plant"},
            "sampling": {"tau": 0.3},
            "simulation": {"mode": "warp"},
        }
        with pytest.raises(ConfigError, match="simulation.mode"):
            parse_config(doc)


def bundled_doc(name, key=None, value=None):
    """A bundled config as a dict, with the dotted ``key`` set to ``value``
    (missing sections are created)."""
    with open(bundled_config_path(name)) as fh:
        doc = json.load(fh)
    if key is not None:
        *parents, last = key.split(".")
        section = doc
        for part in parents:
            section = section.setdefault(part, {})
        section[last] = value
    return doc


EYE3 = {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}


def square2(data):
    return {"rows": 2, "cols": 2, "data": data}


def run_doc(capsys, tmp_path, command, doc, *extra):
    """``run_json`` on a config document written to ``tmp_path``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return run_json(capsys, command, str(path), *extra)


class TestConfigSchema:
    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("loop_a", "simulation.x1_0", [1.0, 2.0, 3.0]),
            ("loop_a", "plant", bundled_doc("loop_c")["plant"]),
            ("loop_a", "storage.plant", EYE3),
            ("loop_a", "simulation.x2_0", [1.0]),
            ("example5", "plant.sd.p", EYE3),
            ("example5", "plant.gain.beta", EYE3),
            ("loop_a", "lambdas.lambda2", -1),
            ("example5", "plant.gain.gamma", -1),
            ("example5", "symbolic.eta_sweep", 0.1),
            ("example5", "plant.sd.theta", -1),
            ("example2", "storage.controller", square2([0.23, 0, 0, -0.23])),
            ("loop_a", "storage.plant", square2([1, 0, 0, -1])),
            ("example5", "plant.sd.p", square2([0.16, 0, 0, -0.25])),
            ("loop_a", "storage.controller", square2([float("nan"), 0, 0, 1])),
            # one entry rule: a finite int or float that is not a bool
            ("loop_a", "quantization.mu1", float("inf")),
            ("loop_a", "plant.discrete_indices.rho", float("nan")),
            ("loop_a", "sampling.tau", float("nan")),
            ("loop_a", "controller.A", square2([float("nan"), 0, 0, -1])),
            ("loop_a", "references.r1", [float("nan"), 0.0]),
            ("loop_a", "simulation.x1_0", [True, False]),
            ("loop_a", "simulation.x1_0", ["1.0", "-1.5"]),
            pytest.param("loop_a", "sampling.tau", 10**400, id="loop_a-sampling.tau-401-digits"),
            ("loop_a", "controller.A.rows", True),
            # keys sized by a plant the config does not have
            ("example2", "storage.plant", EYE3),
            ("example2", "simulation.x1_0", [1.0, 2.0, 3.0]),
            ("loop_a", "controller.A", {"rows": 2, "cols": 3, "data": [-1, 0, 0, 0, -1, 0]}),
            # the twin-mode rules: a sweep or a twin start outside symbolic
            # mode, and a twin mode without the symbolic section
            ("example5", "simulation.mode", "disturbance-injected"),
            ("example5", "simulation.mode", "sampled-quantized"),
            ("loop_a", "simulation.x2s_0", [5, 5]),
            ("loop_a", "simulation.mode", "symbolic"),
        ],
    )
    def test_rejection_names_path(self, name, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(bundled_doc(name, key, value))

    @pytest.mark.parametrize(
        "name, key, data",
        [
            ("example2", "storage.controller", [0.23, 0, 0, -0.23]),
            ("loop_a", "storage.plant", [1, 0, 0, -1]),
        ],
    )
    def test_bound_rejects_indefinite_storage(self, capsys, tmp_path, name, key, data):
        # sublevel sets of an indefinite storage bound nothing; without a
        # simulation prefix to evaluate it on, no other check would notice
        doc = bundled_doc(name, key, square2(data))
        doc.pop("simulation", None)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "bound", str(path))
        assert code == 1
        assert rep["error"].startswith(f"{key}: ")

    def test_constructor_defaults_match_parse(self):
        doc = {"controller": bundled_doc("loop_a")["controller"], "sampling": {"tau": 0.3}}
        cfg = parse_config(doc)
        assert AnalysisConfig(plant=None, controller=cfg.controller, tau=0.3) == cfg
        assert (cfg.seed, cfg.mode, cfg.trials) == (0, "sampled-quantized", 10000)
        assert cfg.lambdas == LambdaChoices() and cfg.storage_tau_scaled is False

    @pytest.mark.parametrize("command", ["bound", "simulate"])
    def test_wrongly_sized_state_is_reported(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bundled_doc("loop_a", "simulation.x1_0", [1.0, 2.0, 3.0])))
        code, rep = run_json(capsys, command, str(path), "--out", str(tmp_path))
        assert code == 1
        assert set(rep) == {"command", "error", "failures"}
        assert "simulation.x1_0" in rep["error"]
        assert rep["failures"] == [rep["error"]]


class TestDegradeCommand:
    def test_example1_matches_published_table(self, capsys):
        code, rep = run_json(capsys, "degrade", bundled_config_path("example1"))
        assert code == 0
        assert rep["sampling"]["nu"] == pytest.approx(0.2177, abs=1e-4)
        assert rep["sampling"]["rho"] == pytest.approx(0.5065, abs=1e-4)
        assert rep["sampling"]["w"] == pytest.approx(6.8572, abs=1e-4)
        assert "quantization" not in rep

    def test_example2_quantization_table(self, capsys):
        code, rep = run_json(capsys, "degrade", bundled_config_path("example2"))
        assert code == 0
        assert rep["quantization"]["nu"] == pytest.approx(0.1775, abs=1e-4)
        assert rep["quantization"]["rho"] == pytest.approx(0.9188, abs=1e-4)
        assert rep["quantization"]["delta"] == pytest.approx(0.0130, abs=1e-4)

    def test_text_report_deterministic(self, capsys):
        _, first = run_cli(capsys, "degrade", "--config", bundled_config_path("example1"))
        _, second = run_cli(capsys, "degrade", "--config", bundled_config_path("example1"))
        assert first == second

    def test_nothing_to_degrade_is_reported(self, capsys, tmp_path):
        # loop_c's controller carries discrete indices only
        doc = bundled_doc("loop_c")
        del doc["quantization"]
        code, rep = run_doc(capsys, tmp_path, "degrade", doc)
        assert code == 1
        assert rep["failures"] == ["nothing to degrade: need indices+gain and/or quantization"]


class TestComposeCommand:
    def test_loop_a_composes_positive_rho(self, capsys):
        code, rep = run_json(capsys, "compose", bundled_config_path("loop_a"))
        assert code == 0
        assert rep["loop"]["rho_hat"] > 0
        assert rep["loop"]["delta_hat"] == pytest.approx(
            rep["controller_stage"]["delta"]
        )

    @pytest.mark.parametrize("mode", ["symbolic", "disturbance-injected"])
    def test_twin_modes_need_the_symbolic_section(self, capsys, tmp_path, mode):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bundled_doc("loop_a", "simulation.mode", mode)))
        code, rep = run_json(capsys, "compose", str(path))
        assert code == 1
        assert rep["error"] == f"simulation.mode: {mode!r} needs the symbolic section"

    def test_twin_mode_rules_hold_for_configs_built_in_code(self):
        # replace() on a parsed config used to reach the twin with eps = None
        # and fail with a TypeError
        cfg = load_config(bundled_config_path("loop_a"))
        with pytest.raises(ConfigError, match="'symbolic' needs the symbolic section"):
            passquant.cli.cmd_compose(replace(cfg, mode="symbolic"))
        with pytest.raises(ConfigError, match="^symbolic.eta_sweep: read only when"):
            replace(cfg, eta_sweep=[0.1])

    def test_a_config_needs_every_twin_constant_its_mode_reads(self):
        # the symbolic loop reads eta as well as eps; without it the error
        # used to surface only in simulate, as a ParameterError
        cfg = load_config(bundled_config_path("example5"))
        with pytest.raises(ConfigError, match=r"^simulation.mode: 'symbolic' needs the symbolic"):
            replace(cfg, eta=None)
        # the injected mismatch reads eps alone
        replace(cfg, mode="disturbance-injected", eta=None, eta_sweep=None)
        with pytest.raises(ConfigError, match=r"^simulation.mode: unknown mode 'bogus'$"):
            replace(cfg, mode="bogus")

    def test_disturbance_injected_loop_is_certified_with_the_twin(self):
        # its injected radius is the twin's output gap, so compose and bound
        # carry the twin's (lip, eps) exactly as the symbolic loop does
        cfg = load_config(bundled_config_path("example5"))
        reports = {}
        for mode in ("symbolic", "disturbance-injected", "sampled-quantized"):
            mode_cfg = replace(cfg, mode=mode, eta_sweep=None)
            bound, _ = cli.cmd_bound(mode_cfg)
            reports[mode] = cli.cmd_compose(mode_cfg)[0], {**bound, "mode": None}
        assert reports["disturbance-injected"] == reports["symbolic"]
        constants = reports["symbolic"][1]["constants"]
        assert (constants["lip"], constants["eps"]) == (pytest.approx(0.6727, abs=1e-4), 0.25)
        delta = {mode: compose["controller_stage"]["delta"]
                 for mode, (compose, _) in reports.items()}
        assert delta["sampled-quantized"] == pytest.approx(0.012957, abs=1e-6)
        assert delta["symbolic"] == pytest.approx(1.80488, abs=1e-5)
        assert "lip" not in reports["sampled-quantized"][1]["constants"]


class TestSdCommand:
    def test_example5_certificates(self, capsys):
        code, rep = run_json(capsys, "sd", bundled_config_path("example5"))
        assert code == 0
        assert rep["plant"]["source"] == "supplied"
        assert rep["plant"]["passed"]
        assert rep["plant"]["worst_ratio"] <= 1.0 + 1e-9
        assert rep["controller"]["source"] == "constructed"
        assert rep["controller"]["passed"]
        assert rep["loop"]["window"] == 0

    def test_loop_a_supplied_controller_certificate(self, capsys):
        code, rep = run_json(capsys, "sd", bundled_config_path("loop_a"))
        assert code == 0
        assert rep["controller"]["source"] == "supplied"
        assert rep["controller"]["passed"]

    def test_seed_flag_overrides_configured_seed(self, capsys, tmp_path):
        # the bundled plant certificate is |h1(x)|^2, whose ratio is one on
        # every draw; this one's worst ratio depends on the draws
        doc = bundled_doc("example5", "plant.sd.p", square2([0.16, 0, 0, 0.1]))
        doc["simulation"]["trials"] = 50

        def worst_ratio(*extra):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            code, rep = run_json(capsys, "sd", str(path), *extra)
            assert code == 0
            return rep["plant"]["worst_ratio"]

        flag5, flag6 = worst_ratio("--seed", "5"), worst_ratio("--seed", "6")
        doc["simulation"]["seed"] = 5
        assert worst_ratio() == flag5 != flag6

    @pytest.mark.parametrize(
        "name, command",
        [("example5", "sd"), ("example5", "bound"), ("example5", "simulate"),
         ("loop_a", "sd"), ("loop_a", "bound"), ("loop_a", "simulate")],
    )
    def test_negative_seed_flag_is_reported(self, capsys, tmp_path, name, command):
        # the flag follows the rule of the configured simulation.seed, also
        # where no command would draw with it
        code, rep = run_json(
            capsys, command, bundled_config_path(name), "--seed", "-1", "--out", str(tmp_path)
        )
        assert code == 1
        assert rep == {"command": command, "error": "--seed: must be a nonnegative integer",
                       "failures": ["--seed: must be a nonnegative integer"]}

    def test_negative_seed_rejected_in_code(self):
        # a config replaced in code follows the parser's rule and names its
        # path; the --seed flag is checked before its replace (test above)
        cfg = load_config(bundled_config_path("loop_a"))
        with pytest.raises(ConfigError, match="^simulation.seed: must be a nonnegative integer$"):
            replace(cfg, seed=-1)

    @pytest.mark.parametrize(
        "name, system, scale", [("loop_a", "controller", 10.0), ("example5", "plant", 0.3)]
    )
    def test_failing_certificate_is_reported(self, capsys, tmp_path, name, system, scale):
        # loop_a's supplied controller certificate is checked exactly,
        # example5's nonlinear plant certificate by the falsifier
        doc = bundled_doc(name, f"{system}.sd.p", square2([scale, 0, 0, scale]))
        doc["simulation"]["trials"] = 200
        code, rep = run_doc(capsys, tmp_path, "sd", doc)
        assert code == 1
        assert not rep[system]["passed"]
        assert rep["failures"] == [f"{system} sd certificate failed"]


class TestBoundCommand:
    def test_standalone_bound_falsifies_like_sd(self, capsys, tmp_path):
        # a nonlinear controller's certificate is falsified with the same
        # draws whichever command checks it
        doc = bundled_doc("example5")
        controller = doc.pop("plant")
        del controller["indices"], controller["gain"]
        controller["discrete_indices"] = {"nu": 0.2, "rho": 0.98}
        controller["sd"]["p"] = square2([0.16, 0, 0, 0.1])
        doc["controller"] = controller
        del doc["symbolic"], doc["references"]
        doc["storage"] = {"controller": square2([0.23, 0, 0, 0.23])}
        doc["simulation"] = {"trials": 300, "seed": 3}
        code, sd = run_doc(capsys, tmp_path, "sd", doc)
        assert code == 0
        code, bound = run_doc(capsys, tmp_path, "bound", doc)
        assert code == 0
        assert bound["certificate"]["worst_ratio"] == sd["controller"]["worst_ratio"]

    def test_loop_a_bound_report(self, capsys):
        code, rep = run_json(capsys, "bound", bundled_config_path("loop_a"))
        assert code == 0
        assert rep["rho_hat"] > 0
        assert rep["margin"]["passed"]
        assert rep["level_d2"] > 0
        assert rep["level_d1"] >= rep["level_d2"]

    def test_example5_margin_reported_failing(self, capsys):
        # the sampled nonlinear plant carries a state bias with weight
        # 1/gamma; no supplied quadratic beta can be dominated here, so the
        # command reports the failing margin and exits nonzero
        code, rep = run_json(capsys, "bound", bundled_config_path("example5"))
        assert code == 1
        assert not rep["margin"]["passed"]
        assert any("margin" in f for f in rep["failures"])
        assert np.isfinite(rep["level_d2"])

    @pytest.mark.parametrize("name", ["loop_a", "example5"])
    def test_loop_quadratic_composed_once(self, capsys, monkeypatch, name):
        # the margin check reads the quadratic the levels were taken under
        calls = []
        compose = passquant.bounds.loop_detectability_matrix

        def counted(cert1, cert2):
            calls.append(compose(cert1, cert2))
            return calls[-1]

        monkeypatch.setattr(passquant.bounds, "loop_detectability_matrix", counted)
        run_json(capsys, "bound", bundled_config_path(name))
        assert len(calls) == 1

    def test_standalone_failing_certificate_is_reported(self, capsys, tmp_path):
        sd = {"window": 0, "theta": 0, "p": square2([10, 0, 0, 10])}
        code, rep = run_doc(capsys, tmp_path, "bound", bundled_doc("example2", "controller.sd", sd))
        assert code == 1
        assert not rep["certificate"]["passed"]
        assert rep["failures"] == ["sd certificate failed"]

    def test_standalone_bounds_need_constant_bias(self, capsys, tmp_path):
        # without discrete indices the sampling stage carries a state bias
        doc = bundled_doc("example2")
        del doc["controller"]["discrete_indices"]
        code, rep = run_doc(capsys, tmp_path, "bound", doc)
        assert code == 1
        assert rep["failures"] == ["standalone bounds need constant-bias indices (w = 0)"]


class TestAbstractCheckCommand:
    def test_example5_parameters_feasible(self, capsys):
        code, rep = run_json(capsys, "abstract-check", bundled_config_path("example5"))
        assert code == 0
        assert rep["passed"]
        assert rep["slack"] == pytest.approx(0.0322, abs=1e-3)
        assert rep["inf_slack"] == pytest.approx(0.01300, abs=1e-5)

    def test_small_eps_fails_the_inequality(self, capsys, tmp_path):
        doc = bundled_doc("example5", "symbolic.epsilon", 0.06)
        code, rep = run_doc(capsys, tmp_path, "abstract-check", doc)
        assert code == 1
        assert not rep["passed"]
        assert rep["failures"] == [
            "bisimulation parameter inequality fails (slack -3.169e-02)",
            "inf-norm bisimulation inequality fails (slack -3.540e-02)",
            "inf-norm bisimulation inequality fails at swept eta = 0.05 (slack -1.040e-02)",
        ]

    def test_inf_norm_check_fails_where_the_mixed_one_passes(self, capsys, tmp_path):
        # a lightly damped rotation: |Ad|_inf = 1.1579 at tau = 0.2, so one
        # step can carry an eps mismatch out of the eps tube
        doc = bundled_doc("example5", "sampling.tau", 0.2)
        doc["controller"].update(
            A=square2([-1.0, 3.93, -3.93, -1.0]), B=square2([0.01, 0.0, 0.0, 0.01]),
            C=square2([1.0, 0.0, 0.0, 1.0]), D=square2([0.0, 0.0, 0.0, 0.0]))
        doc["symbolic"].update(eta=0.01, epsilon=0.1)
        code, rep = run_doc(capsys, tmp_path, "abstract-check", doc)
        assert code == 1
        assert rep["slack"] == pytest.approx(0.0130, abs=1e-4)
        assert rep["inf_slack"] == pytest.approx(-0.0208, abs=1e-4)
        assert not rep["passed"]
        assert rep["failures"] == [
            "inf-norm bisimulation inequality fails (slack -2.081e-02)",
            "inf-norm bisimulation inequality fails at swept eta = 0.1 (slack -6.581e-02)",
            "inf-norm bisimulation inequality fails at swept eta = 0.05 (slack -4.081e-02)",
        ]

    def test_every_swept_pitch_is_checked(self, capsys, tmp_path):
        # example5's sweep, where simulate runs a twin at each pitch
        code, rep = run_json(capsys, "abstract-check", bundled_config_path("example5"))
        assert [eta for eta, _ in rep["sweep_inf_slack"]] == [0.1, 0.05, 0.01]
        slacks = [slack for _, slack in rep["sweep_inf_slack"]]
        assert slacks == pytest.approx([0.0130, 0.0380, 0.0580], abs=1e-4)
        assert slacks[0] == rep["inf_slack"]
        # a swept pitch coarser than the configured one fails on its own
        doc = bundled_doc("example5", "symbolic.eta_sweep", [0.1, 0.3])
        code, rep = run_doc(capsys, tmp_path, "abstract-check", doc)
        assert code == 1 and not rep["passed"]
        assert rep["inf_slack"] == pytest.approx(0.0130, abs=1e-4)
        assert rep["failures"] == [
            "inf-norm bisimulation inequality fails at swept eta = 0.3 (slack -8.700e-02)"]

    def test_no_sweep_no_key(self, capsys, tmp_path):
        doc = bundled_doc("example5")
        del doc["symbolic"]["eta_sweep"]
        code, rep = run_doc(capsys, tmp_path, "abstract-check", doc)
        assert code == 0 and "sweep_inf_slack" not in rep


class TestSimulateCommand:
    def test_loop_a_simulation_and_audit(self, capsys, tmp_path):
        code, rep = run_json(
            capsys, "simulate", bundled_config_path("loop_a"), "--out", str(tmp_path)
        )
        assert code == 0
        assert rep["audit"]["global_ok"] and rep["audit"]["post_entry_ok"]
        assert (tmp_path / "trajectory.csv").exists()
        assert "twin_gap" not in rep  # no twin runs outside symbolic mode

    def test_twin_gap_witnesses_the_eps_tube(self, capsys, tmp_path):
        doc = bundled_doc("example5", "simulation.horizon", 20)
        del doc["symbolic"]["eta_sweep"]
        code, rep = run_doc(capsys, tmp_path, "simulate", doc, "--out", str(tmp_path))
        assert code == 0
        assert rep["twin_gap"] == pytest.approx(0.0918, abs=1e-4)
        # eps = 0.06 fails both parameter checks, and the twin of the same
        # run leaves that tube
        doc["symbolic"]["epsilon"] = 0.06
        code, rep = run_doc(capsys, tmp_path, "simulate", doc, "--out", str(tmp_path))
        assert code == 1
        assert rep["twin_gap"] > 0.06
        assert rep["failures"] == [
            "symbolic twin left its eps tube (max |x2 - x2s|_inf 9.185e-02 > 0.06)"]
        loop = passquant.cli._loop_config(load_config(tmp_path / "cfg.json"))
        traj = passquant.sim.simulate(loop)
        gaps = [max(abs(a - b) for a, b in zip(x2, x2s)) for x2, x2s in zip(traj.x2, traj.x2s)]
        assert rep["twin_gap"] == max(gaps)

    def test_output_path_that_is_a_file_is_reported(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, rep = run_json(
            capsys, "simulate", bundled_config_path("loop_a"), "--out", str(taken)
        )
        assert code == 1
        assert rep["error"] == f"cannot create output directory {taken}: File exists"
        assert rep["failures"] == [rep["error"]]

    @pytest.mark.parametrize(
        "name, csv", [("loop_a", "trajectory.csv"), ("example5", "trajectory_eta_0.1.csv")]
    )
    def test_unwritable_trajectory_is_reported(self, capsys, tmp_path, name, csv):
        # a directory in the CSV's place makes the write of the run, or of the
        # configured sweep pitch's reused run, fail
        (tmp_path / csv).mkdir()
        code, rep = run_json(capsys, "simulate", bundled_config_path(name), "--out", str(tmp_path))
        assert code == 1
        assert rep["error"].startswith(f"cannot write trajectory {tmp_path / csv}: ")
        assert rep["failures"] == [rep["error"]]

    def test_without_storage_the_audit_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        doc = bundled_doc("loop_a")
        del doc["storage"]
        path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "simulate", str(path), "--out", str(tmp_path))
        assert code == 0
        assert rep["audit"] == {
            "skipped": "storage section with plant and controller matrices required"
        }
        assert (tmp_path / "trajectory.csv").exists()

    def test_bound_pipeline_failure_is_reported(self, capsys, tmp_path):
        # the audit is skipped only for a config without loop storage; any
        # other fault of the bound pipeline fails the run as `bound` does
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bundled_doc("loop_a", "lambdas.lam", 5)))
        code, rep = run_json(capsys, "simulate", str(path), "--out", str(tmp_path))
        assert code == 1
        assert set(rep) == {"command", "error", "failures"}
        assert "lam must lie in (0, rho)" in rep["error"]
        assert rep["failures"] == [rep["error"]]

    def test_example5_sweep_writes_csvs_and_trend(self, capsys, tmp_path):
        code, rep = run_json(
            capsys, "simulate", bundled_config_path("example5"), "--out", str(tmp_path)
        )
        assert code == 0
        assert rep["twin_gap"] == pytest.approx(0.0994, abs=1e-4)
        sweep = rep["eta_sweep"]
        assert [p["eta"] for p in sweep] == [0.1, 0.05, 0.01]
        sups = [p["sup_combined"] for p in sweep]
        assert all(b <= a * 1.05 for a, b in zip(sups, sups[1:]))
        for eta in ("0.1", "0.05", "0.01"):
            assert (tmp_path / f"trajectory_eta_{eta}.csv").exists()

    def test_sweep_reuses_the_configured_eta_run(self, capsys, tmp_path, monkeypatch):
        # the configured run (eta = 0.1), which the bound pipeline and the
        # sweep both reuse, then one run per other sweep pitch
        calls = []
        simulate = passquant.sim.simulate

        def counted(loop):
            calls.append(loop.eta)
            return simulate(loop)

        monkeypatch.setattr(passquant.sim, "simulate", counted)
        doc = bundled_doc("example5", "simulation.horizon", 60)
        doc["simulation"]["trials"] = 200
        code, rep = run_doc(capsys, tmp_path, "simulate", doc, "--out", str(tmp_path))
        assert code == 0
        assert calls == [0.1, 0.05, 0.01]
        configured = (tmp_path / "trajectory_eta_0.1.csv").read_bytes()
        assert configured == (tmp_path / "trajectory.csv").read_bytes()

    def test_close_sweep_pitches_get_their_own_csvs(self, capsys, tmp_path, monkeypatch):
        # 0.05 and 0.05000001 print alike with six significant digits
        runs = {}
        simulate = passquant.sim.simulate

        def recorded(loop):
            runs[loop.eta] = simulate(loop)
            return runs[loop.eta]

        monkeypatch.setattr(passquant.sim, "simulate", recorded)
        doc = bundled_doc("example5", "symbolic.eta_sweep", [0.1, 0.05, 0.05000001])
        doc["simulation"]["horizon"] = 60
        doc["simulation"]["trials"] = 200
        out = tmp_path / "out"
        code, rep = run_doc(capsys, tmp_path, "simulate", doc, "--out", str(out))
        assert code == 0
        assert [p["eta"] for p in rep["eta_sweep"]] == [0.1, 0.05, 0.05000001]
        names = ["trajectory_eta_0.1.csv", "trajectory_eta_0.05.csv", "trajectory_eta_0.05000001.csv"]
        assert sorted(f.name for f in out.glob("trajectory_eta_*.csv")) == sorted(names)
        storage = passquant.cli._loop_storage(load_config(tmp_path / "cfg.json"))
        for eta, name in zip((0.1, 0.05, 0.05000001), names):
            runs[eta].to_csv(tmp_path / "want.csv", storage=storage)
            assert (out / name).read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("horizon, runs", [(5, [5]), (2, [2, 3])])
    def test_bounds_read_the_prefix_off_the_run(
        self, capsys, tmp_path, monkeypatch, horizon, runs
    ):
        # with a plant window N = 3 the bound pipeline needs V on the first
        # N+1 steps: simulate reads them off its own run when that is at
        # least N steps long and simulates an N-step prefix otherwise
        calls, prefixes = [], []
        simulate, loop_bounds = passquant.sim.simulate, passquant.bounds.loop_bounds

        def counted(loop):
            calls.append(loop.horizon)
            return simulate(loop)

        def recorded(*args, v_first, **kwargs):
            prefixes.append(v_first)
            return loop_bounds(*args, v_first=v_first, **kwargs)

        monkeypatch.setattr(passquant.sim, "simulate", counted)
        monkeypatch.setattr(passquant.bounds, "loop_bounds", recorded)
        doc = bundled_doc("loop_a", "plant.sd.window", 3)
        doc["simulation"]["horizon"] = horizon
        code, bound = run_doc(capsys, tmp_path, "bound", doc)
        assert code == 0 and calls == [3]
        calls.clear()
        code, rep = run_doc(capsys, tmp_path, "simulate", doc, "--out", str(tmp_path))
        assert code == 0 and calls == runs
        assert rep["audit"]["level_d1"] == bound["level_d1"]
        assert len(prefixes[0]) == 4 and prefixes[1] == prefixes[0]

    @pytest.mark.parametrize("mode", ["disturbance-injected", "sampled-quantized"])
    def test_sweep_outside_symbolic_mode_is_rejected(self, capsys, tmp_path, mode):
        doc = bundled_doc("example5", "simulation.mode", mode)
        code, rep = run_doc(capsys, tmp_path, "simulate", doc, "--out", str(tmp_path))
        assert code == 1
        assert set(rep) == {"command", "error", "failures"}
        assert rep["error"].startswith("symbolic.eta_sweep: ")

    def test_failing_certificate_fails_the_run(self, capsys, tmp_path):
        # the audited levels rest on both certificates, as in `bound`
        doc = bundled_doc("loop_a", "controller.sd.p", square2([1e4, 0, 0, 1e4]))
        code, rep = run_doc(capsys, tmp_path, "simulate", doc, "--out", str(tmp_path))
        assert code == 1
        assert rep["audit"]["global_ok"] and rep["audit"]["post_entry_ok"]
        assert rep["failures"] == ["controller sd certificate failed"]


class TestAuditCommand:
    def test_loop_a_recorded_trajectory_passes(self, capsys, tmp_path):
        code, _ = run_json(
            capsys, "simulate", bundled_config_path("loop_a"), "--out", str(tmp_path)
        )
        assert code == 0
        code, rep = run_json(
            capsys,
            "audit",
            bundled_config_path("loop_a"),
            "--trajectory",
            str(tmp_path / "trajectory.csv"),
        )
        assert code == 0
        assert rep["passed"]
        assert rep["max_violation"] <= 1e-8

    def test_inflated_indices_violate_the_inequality(self, capsys, tmp_path):
        code, _ = run_json(
            capsys, "simulate", bundled_config_path("loop_a"), "--out", str(tmp_path)
        )
        assert code == 0
        doc = bundled_doc("loop_a", "plant.discrete_indices.rho", 5.0)
        doc["controller"]["discrete_indices"]["rho"] = 5.0
        code, rep = run_doc(
            capsys, tmp_path, "audit", doc, "--trajectory", str(tmp_path / "trajectory.csv")
        )
        assert code == 1
        assert not rep["passed"]
        assert rep["failures"] == ["dissipation inequality violated by 2.188e+01"]

    def test_trajectory_of_another_loop_is_reported(self, capsys, tmp_path):
        # loop_c is single-input: its CSV lacks the second loop_a state column
        code, _ = run_json(
            capsys, "simulate", bundled_config_path("loop_c"), "--out", str(tmp_path)
        )
        assert code == 0
        code, rep = run_json(
            capsys,
            "audit",
            bundled_config_path("loop_a"),
            "--trajectory",
            str(tmp_path / "trajectory.csv"),
        )
        assert code == 1
        assert "'x1_2'" in rep["error"]
        assert rep["failures"] == [rep["error"]]

    def test_missing_trajectory_file_is_reported(self, capsys, tmp_path):
        missing = tmp_path / "none.csv"
        code, rep = run_json(
            capsys, "audit", bundled_config_path("loop_a"), "--trajectory", str(missing)
        )
        assert code == 1
        assert str(missing) in rep["error"]

    def test_trajectory_without_steps_is_reported(self, capsys, tmp_path):
        code, _ = run_json(
            capsys, "simulate", bundled_config_path("loop_a"), "--out", str(tmp_path)
        )
        assert code == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n" + lines[-1] + "\n")
        code, rep = run_json(
            capsys, "audit", bundled_config_path("loop_a"), "--trajectory", str(path)
        )
        assert code == 1
        assert str(path) in rep["error"]
        assert rep["failures"] == [rep["error"]]

    def test_empty_trajectory_is_reported(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, rep = run_json(
            capsys, "audit", bundled_config_path("loop_a"), "--trajectory", str(path)
        )
        assert code == 1
        assert rep["error"] == f"trajectory {path}: no steps recorded"
        assert rep["failures"] == [rep["error"]]

    def test_truncated_trajectory_is_reported(self, capsys, tmp_path):
        code, _ = run_json(
            capsys, "simulate", bundled_config_path("loop_a"), "--out", str(tmp_path)
        )
        assert code == 0
        data = (tmp_path / "trajectory.csv").read_bytes()
        cuts = {
            "rows.csv": b"".join(data.splitlines(keepends=True)[:3]),
            "bytes.csv": data[:3000],
        }
        for name, cut in cuts.items():
            path = tmp_path / name
            path.write_bytes(cut)
            code, rep = run_json(
                capsys, "audit", bundled_config_path("loop_a"), "--trajectory", str(path)
            )
            assert code == 1, name
            assert rep["error"].startswith(f"trajectory {path}: ")
            assert rep["error"].endswith("; truncated file")
            assert rep["failures"] == [rep["error"]]

    @pytest.mark.parametrize(
        "edit, config, error",
        [
            # row k = 250 deleted: the next line records 251
            ("delete", "loop_a", "line 252 records k = '251', expected 250"),
            ("swap", "loop_a", "line 101 records k = '299', expected 99"),
            # a 2-entry trajectory read with loop_c's single-entry signals
            (None, "loop_c", "header column 3 expected 'x2_1', found 'x1_2'"),
        ],
    )
    def test_other_layouts_are_reported(self, capsys, tmp_path, edit, config, error):
        code, _ = run_json(
            capsys, "simulate", bundled_config_path("loop_a"), "--out", str(tmp_path)
        )
        assert code == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        if edit == "delete":
            del lines[251]
        elif edit == "swap":
            lines[100], lines[300] = lines[300], lines[100]
        path.write_bytes(b"".join(lines))
        code, rep = run_json(
            capsys, "audit", bundled_config_path(config), "--trajectory", str(path)
        )
        assert code == 1
        assert rep["error"].startswith(f"trajectory {path}: {error}")
        assert rep["failures"] == [rep["error"]]

    def test_missing_trajectory_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit", "--config", bundled_config_path("loop_a")])


class TestExitCodes:
    def test_missing_config_is_reported(self, capsys, tmp_path):
        missing = tmp_path / "none.json"
        code, rep = run_json(capsys, "degrade", str(missing))
        assert code == 1
        assert str(missing) in rep["error"]
        assert rep["failures"] == [rep["error"]]

    def test_config_error_is_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sampling": {"tau": 0.3}}')
        code, rep = run_json(capsys, "degrade", str(bad))
        assert code == 1
        assert rep["failures"]


class TestProcessEntry:
    """``python -m passquant.cli`` as a user runs it: a fresh process whose
    entry freezes the collector before exiting, which must change no byte,
    exit code or CSV of the golden runs."""

    @staticmethod
    def run_process(tmp_path, config, command, fmt, *extra):
        # under -X dev the child reports unclosed resources on the exit path too
        flags = ["-X", "dev", "-W", "error::ResourceWarning"] if sys.flags.dev_mode else []
        config_path = str(Path(bundled_config_path(config)).resolve())
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "passquant.cli", command,
             "--config", config_path, "--format", fmt, *extra],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, timeout=300,
        )
        assert proc.stderr == b""
        index = json.loads((GOLDEN / "index.json").read_text())
        assert proc.returncode == index["exit_codes"][f"{config}.{command}"]
        stdout = proc.stdout.replace(str(tmp_path).encode(), OUT.encode())
        assert stdout == golden_path(config, command, fmt).read_bytes()

    def test_loop_a_matches_golden(self, tmp_path):
        trajectory = str(tmp_path / "trajectory.csv")
        self.run_process(tmp_path, "loop_a", "degrade", "text")
        self.run_process(tmp_path, "loop_a", "simulate", "text", "--out", str(tmp_path))
        self.run_process(tmp_path, "loop_a", "audit", "text", "--trajectory", trajectory)
        index = json.loads((GOLDEN / "index.json").read_text())
        hashes = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.glob("*.csv"))
        }
        assert hashes == index["csv_sha256"]["loop_a"]

    def test_failed_check_exits_1(self, tmp_path):
        self.run_process(tmp_path, "example5", "bound", "json")

    def test_in_process_main_leaves_the_collector_alone(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["degrade", "--config", bundled_config_path("loop_a")]) == 0
        assert gc.get_freeze_count() == frozen

    def test_console_script_runs_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["passquant"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        blocks = [
            node for node in ast.parse(Path(cli.__file__).read_text()).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert len(blocks) == 1
        assert [ast.unparse(stmt) for stmt in blocks[0].body] == [f"{name}()"]
        assert getattr(cli, name) is entry


class TestScipyFreeCommands:
    """Importing passquant, and every command that neither discretizes nor
    solves an LMI, load no scipy: ``linalg`` imports it inside the functions
    that call it.  Each check runs in a fresh interpreter."""

    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "import passquant\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    from passquant.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')))\n"
    )

    def scipy_modules(self, tmp_path, *argvs):
        """The scipy modules loaded once ``cli.main`` has run each argv, each
        exiting 0, in one fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return json.loads(proc.stdout)

    def test_import_loads_no_scipy(self, tmp_path):
        assert self.scipy_modules(tmp_path) == []

    def test_degrade_compose_and_audit_load_no_scipy(self, capsys, tmp_path):
        # example1 and example2 have no plant section to compose or audit
        argvs = [["degrade", "--config", bundled_config_path(name)]
                 for name in ("example1", "example2")]
        for name in ("example5", "loop_a", "loop_b", "loop_c"):
            out = tmp_path / name
            code, _ = run_json(capsys, "simulate", bundled_config_path(name), "--out", str(out))
            assert code == 0
            config = ["--config", bundled_config_path(name)]
            argvs += [["degrade", *config], ["compose", *config],
                      ["audit", *config, "--trajectory", str(out / "trajectory.csv")]]
        assert self.scipy_modules(tmp_path, *argvs) == []

    def test_bound_loads_scipy_linalg(self, tmp_path):
        loaded = self.scipy_modules(tmp_path, ["bound", "--config", bundled_config_path("loop_a")])
        assert "scipy.linalg" in loaded
