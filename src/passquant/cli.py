"""Command-line front end tying the analyses together.

Each subcommand reads a JSON configuration (see :mod:`passquant.config`),
prints a deterministic report to stdout (text or JSON; the JSON mirrors
the text field for field) and exits 0 iff every requested check passed.
Failures are collected in a machine-readable list.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import abstraction, bounds, detectability, linalg, passivity, sim
from .config import AnalysisConfig, SystemSpec, _integer, load_config
from .detectability import SdCertificate
from .errors import ToolkitError
from .systems import SampledModel, discretize_exact

__all__ = ["main"]


# ---------------------------------------------------------------------------
# pipeline helpers


def _sampled_stage_indices(spec: SystemSpec, tau, lambdas):
    """Indices of the sampled (pre-quantization) stage of one subsystem.

    Prefers directly certified discrete indices (no state bias); otherwise
    degrades the continuous indices through the sampling formula, which
    requires the gain certificate.
    """
    if spec.discrete_indices is not None:
        return spec.discrete_indices
    if spec.indices is None:
        raise ToolkitError("system needs indices or discrete_indices")
    if spec.gain is None:
        raise ToolkitError("sampling degradation needs a gain certificate")
    return passivity.degrade_sampling(
        spec.indices.nu, spec.indices.rho, spec.gain.gamma, tau, lambdas.lambda1
    )


def _twin(cfg: AnalysisConfig):
    """``(lip, eps)`` of the symbolic twin, or None when the loop runs the
    plain quantized controller (``MODES[0]``).

    Disturbance-injected runs use the twin's constants too: the radius
    :func:`sim.simulate` injects is what a symbolic replacement produces.
    """
    if cfg.mode == sim.MODES[0]:
        return None
    return abstraction.lipschitz_output_bound(cfg.controller.model), cfg.eps


def _controller_quantized_indices(cfg: AnalysisConfig, twin):
    """Controller indices after input/output quantization.

    The symbolic ``twin`` (see :func:`_twin`) keeps the quantized indices
    but carries the larger bias of its state-quantization mismatch.
    """
    stage = _sampled_stage_indices(cfg.controller, cfg.tau, cfg.lambdas)
    if cfg.mu1 is None:
        raise ToolkitError("quantization section required")
    lam = cfg.lambdas
    return passivity.degrade_quantization(
        stage.nu, stage.rho, cfg.mu1, cfg.mu2, cfg.controller.model.m,
        lam.lambda2, lam.lambda3, lam.lambda4, lam.lambda5, w=stage.w, twin=twin,
    )


def _sd_certificate(spec: SystemSpec, cfg: AnalysisConfig):
    """Certificate for one subsystem: explicit (verified) or constructed.
    Every command falsifies a nonlinear plant's certificate with seed
    ``cfg.seed`` and a nonlinear controller's with ``cfg.seed + 1``."""
    explicit = None
    if spec.sd_theta is not None:
        explicit = SdCertificate(window=spec.sd_window, theta=spec.sd_theta, mp=spec.sd_p)
    if spec.is_lti:
        quad = discretize_exact(spec.model, cfg.tau)
        cert, source = explicit, "supplied"
        if explicit is None:
            cert, source = detectability.lti_sd_certificate(quad, spec.sd_window), "constructed"
        verdict = detectability.check_sd_certificate(quad, cert)
        return cert, {"source": source, "passed": verdict.passed, "margin": verdict.margin}
    if explicit is None:
        raise ToolkitError("nonlinear systems need an explicit sd certificate")
    system = SampledModel(spec.model, cfg.tau)
    seed = cfg.seed if spec is cfg.plant else cfg.seed + 1
    result = detectability.sd_falsify(system, explicit, trials=cfg.trials, seed=seed)
    return explicit, {
        "source": "supplied",
        "passed": not result.falsified,
        "worst_ratio": result.worst_ratio,
    }


def _compose(cfg: AnalysisConfig):
    if cfg.plant is None:
        raise ToolkitError("composition requires a plant section")
    plant_idx = _sampled_stage_indices(cfg.plant, cfg.tau, cfg.lambdas)
    ctrl_idx = _controller_quantized_indices(cfg, _twin(cfg))
    nu_hat = cfg.nu_hat
    if nu_hat is None:
        nu_hat = passivity.choose_nu_hat(plant_idx, ctrl_idx)
    composed = passivity.compose_feedback(plant_idx, ctrl_idx, nu_hat)
    return plant_idx, ctrl_idx, composed


def _storage(cfg: AnalysisConfig, *blocks):
    """Block-diagonal storage matrix, divided by tau when the config says so."""
    v = linalg.block_diag(*blocks)
    return v / cfg.tau if cfg.storage_tau_scaled else v


def _loop_storage(cfg: AnalysisConfig):
    if cfg.storage_plant is None or cfg.storage_controller is None:
        raise ToolkitError("storage section with plant and controller matrices required")
    return _storage(cfg, cfg.storage_plant, cfg.storage_controller)


def _beta_matrix(spec: SystemSpec):
    """Gain-certificate beta matrix, or zeros when no certificate is given."""
    n = spec.model.n
    return spec.gain.beta_matrix if spec.gain is not None else np.zeros((n, n))


def _loop_config(cfg: AnalysisConfig):
    if cfg.plant is None:
        raise ToolkitError("simulation requires a plant section")
    if cfg.horizon is None or cfg.x1_0 is None or cfg.x2_0 is None:
        raise ToolkitError("simulation section needs horizon, x1_0 and x2_0")
    if cfg.mu1 is None:
        raise ToolkitError("quantization section required")
    # every other loop setting has an AnalysisConfig field of the same name
    shared = {f.name: getattr(cfg, f.name) for f in fields(sim.LoopConfig)
              if f.name not in ("plant", "controller")}
    return sim.LoopConfig(plant=cfg.plant.model, controller=cfg.controller.model, **shared)


def _reference_norm(cfg: AnalysisConfig):
    m = cfg.controller.model.m
    r1 = np.zeros(m) if cfg.r1 is None else cfg.r1
    r2 = np.zeros(m) if cfg.r2 is None else cfg.r2
    return float(np.linalg.norm(np.concatenate([r1, r2])))


def _v_first(cfg: AnalysisConfig, storage, n_window, traj):
    """Storage values on the first N+1 steps of the configured loop, read
    off its run ``traj`` when that has N steps, else off a simulated prefix."""
    if traj is None or traj.horizon < n_window:
        if cfg.horizon is None or cfg.x1_0 is None or cfg.x2_0 is None:
            return None
        traj = sim.simulate(replace(_loop_config(cfg), horizon=max(n_window, 1)))
    return [float(x) for x in traj.storage_values(storage)[: n_window + 1]]


def _compute_bounds(cfg: AnalysisConfig, traj=None):
    """Full bound pipeline; returns (report, margin, composed, infos), where
    ``infos`` maps "plant" and "controller" to their certificate reports.
    ``traj`` is the configured run when the caller has already made it."""
    _, _, composed = _compose(cfg)
    cert1, info1 = _sd_certificate(cfg.plant, cfg)
    cert2, info2 = _sd_certificate(cfg.controller, cfg)
    storage = _loop_storage(cfg)
    n_window = max(cert1.window, cert2.window)
    v_first = _v_first(cfg, storage, n_window, traj)
    # looked up on the module in every mode, where the benchmark's tracer wraps it
    report = bounds.loop_bounds(
        composed, cert1, cert2, storage, _reference_norm(cfg), cfg.mu1, cfg.mu2,
        cfg.controller.model.m, lam=cfg.lam, d3=cfg.d3, v_first=v_first, twin=_twin(cfg),
    )
    margin = bounds.margin_check(
        report.eta2, report.mp,
        composed.w1, _beta_matrix(cfg.plant), composed.w2, _beta_matrix(cfg.controller),
    )
    return report, margin, composed, {"plant": info1, "controller": info2}


def _certificate_failures(infos):
    """One failure per subsystem certificate report that did not pass."""
    return [f"{name} sd certificate failed" for name, info in infos.items() if not info["passed"]]


# ---------------------------------------------------------------------------
# commands (each returns a report dict and a list of failure strings)


def cmd_degrade(cfg: AnalysisConfig):
    report = {}
    failures = []
    spec = cfg.controller
    if spec.indices is not None and spec.gain is not None:
        idx = passivity.degrade_sampling(
            spec.indices.nu, spec.indices.rho, spec.gain.gamma, cfg.tau, cfg.lambdas.lambda1
        )
        report["sampling"] = {"nu": idx.nu, "rho": idx.rho, "w": idx.w}
    if cfg.mu1 is not None:
        idx = _controller_quantized_indices(cfg, None)
        report["quantization"] = {"nu": idx.nu, "rho": idx.rho, "delta": idx.delta}
    if not report:
        failures.append("nothing to degrade: need indices+gain and/or quantization")
    return report, failures


def cmd_compose(cfg: AnalysisConfig):
    plant_idx, ctrl_idx, composed = _compose(cfg)
    report = {
        "plant_stage": {"nu": plant_idx.nu, "rho": plant_idx.rho, "w": plant_idx.w},
        "controller_stage": {
            "nu": ctrl_idx.nu,
            "rho": ctrl_idx.rho,
            "delta": ctrl_idx.delta,
            "w": ctrl_idx.w,
        },
        "loop": {
            "nu_hat": composed.nu,
            "rho_hat": composed.rho,
            "delta_hat": composed.delta,
            "rho_hat_positive": composed.rho > 0,
        },
    }
    return report, []


def _cert_report(cert: SdCertificate, info):
    out = {
        "window": cert.window,
        "theta": cert.theta,
        "p": [[float(v) for v in row] for row in cert.mp],
    }
    out.update(info)
    return out


def cmd_sd(cfg: AnalysisConfig):
    report = {}
    cert2, info2 = _sd_certificate(cfg.controller, cfg)
    report["controller"] = _cert_report(cert2, info2)
    infos = {"controller": info2}
    if cfg.plant is not None:
        cert1, infos["plant"] = _sd_certificate(cfg.plant, cfg)
        report["plant"] = _cert_report(cert1, infos["plant"])
        composed = detectability.compose_sd(cert1, cert2)
        report["loop"] = _cert_report(composed, {"source": "composed"})
    return report, _certificate_failures(infos)


def _levels(rep: bounds.BoundReport):
    """The report keys shared by the single-system and loop bounds."""
    return {
        "eta1": rep.eta1,
        "eta2": rep.eta2,
        "level_d1": rep.level_d1,
        "level_d2": rep.level_d2,
        "constants": {k: float(v) for k, v in rep.constants.items()},
    }


def cmd_bound(cfg: AnalysisConfig):
    if cfg.plant is None:
        # standalone system: global/ultimate levels for the controller alone
        idx = _controller_quantized_indices(cfg, None)
        if idx.w != 0:
            return {}, ["standalone bounds need constant-bias indices (w = 0)"]
        cert, info = _sd_certificate(cfg.controller, cfg)
        if cfg.storage_controller is None:
            raise ToolkitError("storage.controller required")
        storage = _storage(cfg, cfg.storage_controller)
        u_norm = float(np.linalg.norm(cfg.r2)) if cfg.r2 is not None else 0.0
        p_x0 = cert.p(cfg.x2_0) if cfg.x2_0 is not None else 0.0
        rep = bounds.single_system_bounds(
            idx, cert, storage, u_norm, lam=cfg.lam, c5=cfg.c5, p_x0=p_x0
        )
        report = {"mode": "single-system", **_levels(rep), "certificate": info}
        return report, [] if info["passed"] else ["sd certificate failed"]

    rep, margin, composed, infos = _compute_bounds(cfg)
    report = {
        "mode": cfg.mode,
        "nu_hat": composed.nu,
        "rho_hat": composed.rho,
        "delta_hat": composed.delta,
        **_levels(rep),
        "margin": {"value": margin.margin, "passed": margin.passed},
        "certificates": infos,
    }
    failures = _certificate_failures(infos)
    if not margin.passed:
        failures.append(f"bias margin check failed (min eigenvalue {margin.margin:.3e})")
    return report, failures


def cmd_abstract_check(cfg: AnalysisConfig):
    failures = []
    if not cfg.controller.is_lti:
        raise ToolkitError("incremental-stability bounds are derived for LTI controllers only")
    if cfg.eta is None or cfg.eps is None or cfg.mu1 is None:
        raise ToolkitError("abstract-check needs the symbolic and quantization sections")
    model = cfg.controller.model
    bound = abstraction.lti_delta_iss(model.a, model.b)
    verdict = abstraction.check_bisim_params(bound, cfg.eps, cfg.tau, cfg.mu1, cfg.eta)
    disc = discretize_exact(model, cfg.tau)
    inf_verdict = abstraction._inf_bisim_check(disc, cfg.eps, cfg.mu1, cfg.eta)
    # simulate runs a twin at every swept pitch too
    sweep = [(eta, abstraction._inf_bisim_check(disc, cfg.eps, cfg.mu1, eta))
             for eta in cfg.eta_sweep or ()]
    report = {
        "scale": bound.scale,
        "rate": bound.rate,
        "input_gain": bound.input_gain,
        "slack": verdict.margin,
        "inf_slack": inf_verdict.margin,
        # [eta, slack] pairs: perfbench's cli-sweep compares the floats of a
        # list to a tolerance, but a dict inside a list exactly
        **({"sweep_inf_slack": [[eta, v.margin] for eta, v in sweep]} if sweep else {}),
        "passed": all(v.passed for v in (verdict, inf_verdict, *(v for _, v in sweep))),
    }
    if not verdict.passed:
        failures.append(f"bisimulation parameter inequality fails (slack {verdict.margin:.3e})")
    if not inf_verdict.passed:
        failures.append(
            f"inf-norm bisimulation inequality fails (slack {inf_verdict.margin:.3e})")
    # the configured pitch has its line above
    failures += [f"inf-norm bisimulation inequality fails at swept eta = {eta:g}"
                 f" (slack {v.margin:.3e})" for eta, v in sweep if not v.passed and eta != cfg.eta]
    return report, failures


def cmd_simulate(cfg: AnalysisConfig, out_dir):
    failures = []
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ToolkitError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    loop = _loop_config(cfg)
    try:
        storage = _loop_storage(cfg)
    except ToolkitError as exc:
        storage, skipped = None, str(exc)

    traj = sim.simulate(loop)
    csv_path = out_dir / "trajectory.csv"
    traj.to_csv(csv_path, storage=storage)
    report = {
        "mode": loop.mode,
        "horizon": loop.horizon,
        "csv": str(csv_path),
        "final_state_sup": float(np.max(np.abs(traj.loop_states[-1]))),
    }
    if traj.x2s is not None:
        # the runtime witness of the twin: the largest |x2 - x2s|_inf of the run
        gap = report["twin_gap"] = float(np.max(np.abs(traj.x2 - traj.x2s)))
        if gap > cfg.eps:
            failures.append(
                f"symbolic twin left its eps tube (max |x2 - x2s|_inf {gap:.3e} > {cfg.eps})")

    if storage is None:
        report["audit"] = {"skipped": skipped}
    else:
        bound_report, margin, _, infos = _compute_bounds(cfg, traj)
        failures += _certificate_failures(infos)
        audit = sim.ultimate_bound_audit(traj, bound_report, storage)
        report["audit"] = {
            "level_d1": bound_report.level_d1,
            "level_d2": bound_report.level_d2,
            "global_ok": audit.global_ok,
            "entry_index": audit.entry_index,
            "post_entry_ok": audit.post_entry_ok,
            "margin_passed": margin.passed,
        }
        if not audit.global_ok:
            failures.append("trajectory left the certified global level set")
        if not audit.post_entry_ok:
            failures.append("trajectory did not settle below the ultimate level")

    if cfg.eta_sweep:
        sweep = []
        for eta in cfg.eta_sweep:
            # repr reads back as the same float: no two pitches share a file
            eta_path = out_dir / f"trajectory_eta_{eta!r}.csv"
            # the configured pitch reuses the run above
            traj_eta = traj if eta == loop.eta else sim.simulate(replace(loop, eta=eta))
            traj_eta.to_csv(eta_path, storage=storage)
            sweep.append(asdict(sim.SweepPoint.from_trajectory(eta, traj_eta)))
        report["eta_sweep"] = sweep
    return report, failures


def cmd_audit(cfg: AnalysisConfig, trajectory_path):
    """Dissipation audit of a recorded closed-loop CSV.

    Reconstructs the stacked reference from the recorded signals
    (``r1 = y2tilde + u1``, ``r2 = u2tilde - y1``) and checks the composed
    quasi-passivity inequality over all trajectory windows.
    """
    failures = []
    _, _, composed = _compose(cfg)
    storage = _loop_storage(cfg)
    states, signals = sim.read_csv(
        trajectory_path, cfg.plant.model.n, cfg.controller.model.n, cfg.controller.model.m
    )
    refs = np.hstack([signals["y2_tilde"] + signals["u1"], signals["u2_tilde"] - signals["y1"]])
    outs = np.hstack([signals["y1"], signals["y2_tilde"]])

    # the weights sit in the stacked bias matrix; the audit reads it only
    # when some weight is nonzero
    bias = bounds._bias_matrix(
        composed.w1, _beta_matrix(cfg.plant), composed.w2, _beta_matrix(cfg.controller)
    )
    audit_idx = passivity.IndexSet(
        nu=composed.nu, rho=composed.rho, delta=composed.delta,
        w=1.0 if composed.w1 > 0 or composed.w2 > 0 else 0.0,
    )
    violation = passivity.dissipation_audit(states, refs, outs, storage, audit_idx, bias)
    passed = violation <= 1e-8
    if not passed:
        failures.append(f"dissipation inequality violated by {violation:.3e}")
    return {
        "trajectory": str(trajectory_path),
        "steps_audited": int(refs.shape[0]),
        "max_violation": float(violation),
        "passed": passed,
    }, failures


# command name -> (function, names of the parsed arguments it takes after
# the configuration)
_COMMANDS = {
    "degrade": (cmd_degrade,),
    "compose": (cmd_compose,),
    "sd": (cmd_sd,),
    "bound": (cmd_bound,),
    "abstract-check": (cmd_abstract_check,),
    "simulate": (cmd_simulate, "out"),
    "audit": (cmd_audit, "trajectory"),
}


# ---------------------------------------------------------------------------
# rendering and entry point


def _render_text(report, failures):
    out = sys.stdout

    def emit(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                emit(f"{prefix}{key}." if prefix else f"{key}.", sub)
        else:
            key = prefix.rstrip(".")
            if isinstance(value, float):
                out.write(f"{key} = {value:.6g}\n")
            elif isinstance(value, list):
                out.write(f"{key} = {json.dumps(value)}\n")
            else:
                out.write(f"{key} = {value}\n")

    emit("", report)
    for failure in failures:
        out.write(f"FAIL: {failure}\n")
    if not failures:
        out.write("all checks passed\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="passquant",
        description="Passivity analysis of sampled and quantized controller implementations",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--out", default=".", help="output directory for CSV artifacts")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--trajectory", default=None, help="recorded CSV for the audit command")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=_integer(0)(args.seed, "--seed"))
        if args.command == "audit" and args.trajectory is None:
            parser.error("audit requires --trajectory")
        command, *extra = _COMMANDS[args.command]
        report, failures = command(cfg, *(getattr(args, name) for name in extra))
    except ToolkitError as exc:
        report = {"error": str(exc)}
        failures = [str(exc)]

    report = {"command": args.command, **report, "failures": failures}
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=False)
        sys.stdout.write("\n")
    else:
        _render_text(
            {k: v for k, v in report.items() if k != "failures"}, failures
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
