import json
import re

import numpy as np
import pytest

from passquant import (
    AnalysisConfig,
    ConfigError,
    LambdaChoices,
    load_config,
    parse_config,
)
from passquant.cli import main
from passquant.config import bundled_config_path


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
    """A bundled config as a dict, with the dotted ``key`` set to ``value``."""
    with open(bundled_config_path(name)) as fh:
        doc = json.load(fh)
    if key is not None:
        *parents, last = key.split(".")
        section = doc
        for part in parents:
            section = section[part]
        section[last] = value
    return doc


EYE3 = {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}


def square2(data):
    return {"rows": 2, "cols": 2, "data": data}


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


class TestComposeCommand:
    def test_loop_a_composes_positive_rho(self, capsys):
        code, rep = run_json(capsys, "compose", bundled_config_path("loop_a"))
        assert code == 0
        assert rep["loop"]["rho_hat"] > 0
        assert rep["loop"]["delta_hat"] == pytest.approx(
            rep["controller_stage"]["delta"]
        )


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


class TestBoundCommand:
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


class TestAbstractCheckCommand:
    def test_example5_parameters_feasible(self, capsys):
        code, rep = run_json(capsys, "abstract-check", bundled_config_path("example5"))
        assert code == 0
        assert rep["passed"]
        assert rep["slack"] == pytest.approx(0.0322, abs=1e-3)


class TestSimulateCommand:
    def test_loop_a_simulation_and_audit(self, capsys, tmp_path):
        code, rep = run_json(
            capsys, "simulate", bundled_config_path("loop_a"), "--out", str(tmp_path)
        )
        assert code == 0
        assert rep["audit"]["global_ok"] and rep["audit"]["post_entry_ok"]
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
        sweep = rep["eta_sweep"]
        assert [p["eta"] for p in sweep] == [0.1, 0.05, 0.01]
        sups = [p["sup_combined"] for p in sweep]
        assert all(b <= a * 1.05 for a, b in zip(sups, sups[1:]))
        for eta in ("0.1", "0.05", "0.01"):
            assert (tmp_path / f"trajectory_eta_{eta}.csv").exists()


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
