"""In-process workloads ``symbolic-loop`` and ``lti-certify``.

Both call passquant's public functions directly, one unit after another
from a single client.  ``symbolic-loop`` spends its time in the nonlinear
plant's RK4 flow and the symbolic controller; ``lti-certify`` spends it in
the exact discretization, the LMI/eigenvalue certificates and the LTI loop
simulation, and never calls the flow.  Inputs (initial states, grid pitches,
random systems, falsifier seeds) are drawn from the workload seed.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.linalg

# Random systems per cycle as (state dimension, signal dimension, SD window);
# each window is one where the stacked observability matrix has full rank.
# With the three loops a cycle has 9 units that sort n=2 < n=8 < loops <
# n=32 (the n=32 certificate is LAPACK-bound).  The median then falls in the
# upper part of the loop cluster and the tail inside the n=32 cluster: on a
# host whose speed switches between phases lasting seconds, a quantile at
# the centre of a cluster flips between the phases from run to run.
LTI_SYSTEMS = [(2, 1, 1), (8, 2, 7)] + [(32, 8, 25)] * 4
LOOPS = ["loop_a", "loop_b", "loop_c"]
SYMBOLIC_HORIZON = 400
LOOP_HORIZON = 500
FALSIFY_WINDOW = 3
FALSIFY_BATCH = 25
LTI_FALSIFY_TRIALS = 100
TAU = 0.3


def _loop_storage(cfg):
    v = scipy.linalg.block_diag(cfg.storage_plant, cfg.storage_controller)
    return v / cfg.tau if cfg.storage_tau_scaled else v


def _sd_cert(pq, spec, tau):
    """Subsystem SD certificate, supplied or constructed, and its exact
    check verdict (``None`` for a nonlinear subsystem)."""
    if spec.sd_theta is not None:
        cert = pq.SdCertificate(window=spec.sd_window, theta=spec.sd_theta, mp=spec.sd_p)
    else:
        cert = None
    if not spec.is_lti:
        return cert, None
    quad = pq.systems.discretize_exact(spec.model, tau)
    if cert is None:
        cert = pq.detectability.lti_sd_certificate(quad, spec.sd_window)
    return cert, pq.detectability.check_sd_certificate(quad, cert)


def _loop_config(pq, cfg, mode, x1_0, x2_0, horizon, eta=None):
    return pq.sim.LoopConfig(
        plant=cfg.plant.model, controller=cfg.controller.model, mode=mode,
        tau=cfg.tau, mu1=cfg.mu1, mu2=cfg.mu2, horizon=horizon,
        x1_0=x1_0, x2_0=x2_0, eta=eta, eps=cfg.eps, r1=cfg.r1, r2=cfg.r2,
    )


def _v_first(pq, loop, storage, window):
    """Storage values on the first ``window + 1`` steps of the loop."""
    prefix = pq.sim.simulate(replace(loop, horizon=max(window, 1)))
    return [float(v) for v in prefix.storage_values(storage)[: window + 1]]


def _reference_norm(cfg):
    m = cfg.controller.model.m
    r1 = np.zeros(m) if cfg.r1 is None else cfg.r1
    r2 = np.zeros(m) if cfg.r2 is None else cfg.r2
    return float(np.linalg.norm(np.concatenate([r1, r2])))


# ---------------------------------------------------------------------------
# symbolic-loop


class SymbolicLoop:
    """example5: nonlinear plant closed on the symbolic LTI controller."""

    configs = ["example5"]

    def __init__(self, pq, src, rng):
        self.pq, self.rng = pq, rng
        cfg = self.cfg = pq.config.load_config(config_path(src, "example5"))
        lam = cfg.lambdas
        m = cfg.controller.model.m
        plant_idx = pq.passivity.degrade_sampling(
            cfg.plant.indices.nu, cfg.plant.indices.rho, cfg.plant.gain.gamma,
            cfg.tau, lam.lambda1)
        stage = cfg.controller.discrete_indices
        self.lip = pq.abstraction.lipschitz_output_bound(cfg.controller.model)
        delta = pq.passivity.symbolic_quant_bias(
            stage.nu, stage.rho, self.lip, cfg.eps, cfg.mu1, cfg.mu2, m,
            lam.lambda2, lam.lambda3, lam.lambda4, lam.lambda5)
        base = pq.passivity.degrade_quantization(
            stage.nu, stage.rho, cfg.mu1, cfg.mu2, m,
            lam.lambda2, lam.lambda3, lam.lambda4, lam.lambda5, w=stage.w)
        ctrl_idx = pq.IndexSet(nu=base.nu, rho=base.rho, delta=delta, w=stage.w)
        nu_hat = cfg.nu_hat if cfg.nu_hat is not None else pq.passivity.choose_nu_hat(plant_idx, ctrl_idx)
        self.composed = pq.passivity.compose_feedback(plant_idx, ctrl_idx, nu_hat)
        self.cert1, _ = _sd_cert(pq, cfg.plant, cfg.tau)
        self.cert2, verdict2 = _sd_cert(pq, cfg.controller, cfg.tau)
        if not verdict2.passed:
            raise RuntimeError("example5 controller SD certificate fails its exact check")
        self.storage = _loop_storage(cfg)
        self.window = max(self.cert1.window, self.cert2.window)
        self.plant_sampled = pq.SampledModel(cfg.plant.model, cfg.tau)
        self.falsify_cert = pq.SdCertificate(
            window=FALSIFY_WINDOW, theta=self.cert1.theta, mp=self.cert1.mp)
        self.etas = list(cfg.eta_sweep)

    def draw(self):
        x1 = self.rng.uniform(-2.0, 2.0, self.cfg.plant.model.n)
        x2 = self.rng.uniform(-2.0, 2.0, self.cfg.controller.model.n)
        eta = self.etas[int(self.rng.integers(len(self.etas)))]
        return "symbolic", (x1, x2, eta)

    def unit(self, inputs):
        pq, cfg = self.pq, self.cfg
        x1, x2, eta = inputs
        loop = _loop_config(pq, cfg, "symbolic", x1, x2, SYMBOLIC_HORIZON, eta=eta)
        v_first = _v_first(pq, loop, self.storage, self.window)
        report = pq.bounds.symbolic_loop_bounds(
            self.composed, self.cert1, self.cert2, self.storage, _reference_norm(cfg),
            self.lip, cfg.eps, cfg.mu1, cfg.mu2, cfg.controller.model.m,
            lam=cfg.lam, d3=cfg.d3, v_first=v_first)
        t0 = time.perf_counter()
        traj = pq.sim.simulate(loop)
        sim_s = time.perf_counter() - t0
        audit = pq.sim.ultimate_bound_audit(traj, report, self.storage)
        return {"traj": traj, "audit": audit, "eta": eta, "sim": (traj.horizon, sim_s)}

    def check(self, out):
        traj, eta = out["traj"], out["eta"]
        witness = float(np.max(np.abs(traj.x2 - traj.x2s)))
        notes = {"max|x2-x2s|inf": witness, "eps": self.cfg.eps, "eta": eta}
        grid = np.round(traj.x2s / eta) * eta
        if not np.array_equal(grid, traj.x2s):
            return "grid state off the eta grid", notes
        if witness > self.cfg.eps:
            return f"max|x2-x2s|inf = {witness:.4g} exceeds eps = {self.cfg.eps}", notes
        if not out["audit"].global_ok:
            return "trajectory left the certified global level", notes
        return "", notes

    def counts(self, out):
        traj = out["traj"]
        return {
            "simulated_steps": traj.horizon,
            "rk4_substeps": (traj.horizon + max(self.window, 1)) * 64,
        }

    def cycle_done(self):
        return True

    def side_work(self, out):
        """One seeded batch of falsification trials at window 3."""
        seed = int(self.rng.integers(0, 2**31 - 1))
        t0 = time.perf_counter()
        res = self.pq.detectability.sd_falsify(
            self.plant_sampled, self.falsify_cert, trials=FALSIFY_BATCH, seed=seed)
        wall = time.perf_counter() - t0
        why = "sd_falsify found a counterexample at window 3" if res.falsified else ""
        return FALSIFY_BATCH, wall, why


# ---------------------------------------------------------------------------
# lti-certify


def random_stable_lti(pq, rng, n, m, window):
    """Seeded stable LTI system whose certificates exist.

    ``A = -Q diag(l) Q' + S`` with ``l`` in [0.5, 2] and ``S`` skew is
    Hurwitz with a negative definite symmetric part.  Draws are repeated
    until the observability stack over ``window`` is well conditioned
    (min eigenvalue of O'O at least 1e-3), so an SD certificate exists.
    The screening uses scipy directly so that only the unit's own calls
    reach passquant.
    """
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s = rng.normal(size=(n, n))
        a = -(q * rng.uniform(0.5, 2.0, n)) @ q.T + 0.5 * (s - s.T)
        b = rng.normal(size=(n, m)) / np.sqrt(n)
        c = rng.normal(size=(m, n)) / np.sqrt(n)
        ad = scipy.linalg.expm(a * TAU)
        blocks, power = [], np.eye(n)
        for _ in range(window + 1):
            blocks.append(c @ power)
            power = power @ ad
        o = np.vstack(blocks)
        if np.linalg.eigvalsh(o.T @ o)[0] >= 1e-3:
            # storage for the index bisection: A_d' P A_d - P = -I
            p = scipy.linalg.solve_discrete_lyapunov(ad.T, np.eye(n))
            return pq.LtiModel(a, b, c, 0.5 * np.eye(m)), p


class LtiCertify:
    """Bundled LTI loops through the full pipeline, interleaved with
    per-system certificates of random stable systems."""

    configs = LOOPS

    def __init__(self, pq, src, rng, out_dir):
        self.pq, self.rng = pq, rng
        self.cfgs = {name: pq.config.load_config(config_path(src, name)) for name in LOOPS}
        self.csv_dir = Path(out_dir)
        self.cycle = []

    def draw(self):
        if not self.cycle:
            kinds = [("loop", name) for name in LOOPS] + [("system", s) for s in LTI_SYSTEMS]
            self.cycle = [kinds[i] for i in self.rng.permutation(len(kinds))]
        what, arg = self.cycle.pop()
        if what == "loop":
            cfg = self.cfgs[arg]
            x1 = self.rng.uniform(-1.5, 1.5, cfg.plant.model.n)
            x2 = self.rng.uniform(-1.5, 1.5, cfg.controller.model.n)
            return arg, ("loop", arg, x1, x2)
        n, m, window = arg
        model, p = random_stable_lti(self.pq, self.rng, n, m, window)
        seed = int(self.rng.integers(0, 2**31 - 1))
        return f"system-n{n}", ("system", model, p, window, seed)

    def cycle_done(self):
        return not self.cycle

    def unit(self, inputs):
        if inputs[0] == "loop":
            return self._loop_unit(*inputs[1:])
        return self._system_unit(*inputs[1:])

    def _loop_unit(self, name, x1, x2):
        pq = self.pq
        cfg = self.cfgs[name]
        lam = cfg.lambdas
        m = cfg.controller.model.m
        plant_idx = cfg.plant.discrete_indices
        stage = cfg.controller.discrete_indices
        ctrl_idx = pq.passivity.degrade_quantization(
            stage.nu, stage.rho, cfg.mu1, cfg.mu2, m,
            lam.lambda2, lam.lambda3, lam.lambda4, lam.lambda5, w=stage.w)
        nu_hat = cfg.nu_hat if cfg.nu_hat is not None else pq.passivity.choose_nu_hat(plant_idx, ctrl_idx)
        composed = pq.passivity.compose_feedback(plant_idx, ctrl_idx, nu_hat)
        cert1, verdict1 = _sd_cert(pq, cfg.plant, cfg.tau)
        cert2, verdict2 = _sd_cert(pq, cfg.controller, cfg.tau)
        pq.detectability.compose_sd(cert1, cert2)
        storage = _loop_storage(cfg)
        loop = _loop_config(pq, cfg, "sampled-quantized", x1, x2, LOOP_HORIZON)
        v_first = _v_first(pq, loop, storage, max(cert1.window, cert2.window))
        report = pq.bounds.loop_bounds(
            composed, cert1, cert2, storage, _reference_norm(cfg),
            cfg.mu1, cfg.mu2, m, lam=cfg.lam, d3=cfg.d3, v_first=v_first)
        _, _, mp_loop = pq.bounds.loop_detectability_matrix(cert1, cert2)
        n1, n2 = cfg.plant.model.n, cfg.controller.model.n
        margin = pq.bounds.margin_check(
            report.eta2, mp_loop, composed.w1, np.zeros((n1, n1)), composed.w2, np.zeros((n2, n2)))
        t0 = time.perf_counter()
        traj = pq.sim.simulate(loop)
        sim_s = time.perf_counter() - t0
        audit = pq.sim.ultimate_bound_audit(traj, report, storage)
        states = np.hstack([traj.x1, traj.x2])
        refs = np.hstack([traj.y2_tilde + traj.u1, traj.u2_tilde - traj.y1])
        outs = np.hstack([traj.y1, traj.y2_tilde])
        indices = pq.IndexSet(nu=composed.nu, rho=composed.rho, delta=composed.delta)
        violation = pq.passivity.dissipation_audit(states, refs, outs, storage, indices)
        traj.to_csv(self.csv_dir / f"{name}.csv", storage=storage)
        return {
            "kind": "loop", "verdicts": (verdict1, verdict2), "margin": margin,
            "audit": audit, "violation": violation, "w": (composed.w1, composed.w2),
            "sim": (traj.horizon, sim_s), "steps": traj.horizon,
        }

    def _system_unit(self, model, p, window, seed):
        pq = self.pq
        disc = pq.systems.discretize_exact(model, TAU)
        nu = pq.passivity.max_index_bisection(disc, p, "rho", 0.0)
        lmi = pq.passivity.verify_lti_passivity(disc, p, nu, 0.0)
        cert = pq.detectability.lti_sd_certificate(disc, window)
        verdict = pq.detectability.check_sd_certificate(disc, cert)
        return {"kind": "system", "nu": nu, "lmi": lmi, "verdict": verdict,
                "disc": disc, "cert": cert, "seed": seed, "n": model.n}

    def check(self, out):
        if out["kind"] == "loop":
            notes = {"violation": out["violation"]}
            if out["w"] != (0.0, 0.0):
                return "loop indices carry a state bias; the audit here assumes none", notes
            if not all(v.passed for v in out["verdicts"]):
                return "subsystem SD certificate fails its exact check", notes
            if not out["margin"].passed:
                return f"bias margin fails ({out['margin'].margin:.3e})", notes
            if not (out["audit"].global_ok and out["audit"].post_entry_ok):
                return "loop left its certified levels", notes
            if out["violation"] > 1e-8:
                return f"dissipation inequality violated by {out['violation']:.3e}", notes
            return "", notes
        notes = {"nu": out["nu"], "clipped": out["nu"] == 10.0}
        if not out["lmi"].passed:
            return f"bisected index nu = {out['nu']} fails verify_lti_passivity", notes
        if not out["verdict"].passed:
            return "constructed SD certificate fails check_sd_certificate", notes
        return "", notes

    def counts(self, out):
        if out["kind"] == "loop":
            k = min(out["steps"], 500)
            return {"simulated_steps": out["steps"], "audit_pairs": k * (k + 1) // 2,
                    "audit_bytes": (k + 1) * (k + 1) * 8}
        return {"sd_window": out["cert"].window}

    def side_work(self, out):
        """Falsify the constructed SD certificate of a system unit."""
        if out["kind"] != "system":
            return None
        t0 = time.perf_counter()
        res = self.pq.detectability.sd_falsify(
            out["disc"], out["cert"], trials=LTI_FALSIFY_TRIALS, seed=out["seed"])
        wall = time.perf_counter() - t0
        why = "sd_falsify refuted a constructed SD certificate" if res.falsified else ""
        return LTI_FALSIFY_TRIALS, wall, why


def config_path(src, name):
    return str(Path(src) / "passquant" / "configs" / f"{name}.json")


def run(workload, result, seconds):
    """Closed loop, one client: draw inputs, run a unit, check it, repeat
    until ``seconds`` have passed, ending on a whole cycle of unit kinds.
    The timed run counts the program's calls (units and falsification),
    not the drawing of inputs."""
    start = time.perf_counter()
    while True:
        kind, inputs = workload.draw()
        result.set_unit(len(result.units))
        t0 = time.perf_counter()
        out = workload.unit(inputs)
        wall = time.perf_counter() - t0
        why, notes = workload.check(out)
        result.add_unit(kind, wall, why, notes)
        result.add_counts(kind, workload.counts(out))
        if "sim" in out:
            result.sim.append((kind,) + out["sim"])
        result.set_unit(None)
        side = workload.side_work(out)
        result.elapsed += wall
        if side is not None:
            trials, side_s, side_why = side
            result.falsify.append((kind, trials, side_s))
            result.elapsed += side_s
            if side_why:
                result.side_failures.append(side_why)
        if time.perf_counter() - start >= seconds and workload.cycle_done():
            break
