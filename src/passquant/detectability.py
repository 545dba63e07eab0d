"""Strong-detectability certificates and their feedback composition.

A discrete system is N-step strongly detectable (SD) when weighted
input-plus-output energy over any window of N+1 steps dominates a positive
definite function of the window's initial state:

    sum_{k=k0}^{k0+N} theta |u[k]|^2 + |y[k]|^2  >=  p(x[k0]).

Certificates here restrict ``p`` to quadratics ``p(x) = x' Mp x`` so that
sublevel-set maxima needed by the bound computations stay exact.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import linalg
from .errors import (
    CertificateError, NotDetectableError, _array, _count, _instance, _nonnegative,
    _nonnegative_integer)
from .passivity import Verdict, _quad_values, _quadratic_form
from .systems import DiscreteLti

__all__ = [
    "SdCertificate",
    "FalsifyResult",
    "observability_stack",
    "lti_sd_certificate",
    "check_sd_certificate",
    "compose_sd",
    "sd_falsify",
]


@dataclass(frozen=True)
class SdCertificate:
    """(window, theta, Mp) witnessing N-step strong detectability."""

    window: int
    theta: float
    mp: np.ndarray

    def __post_init__(self):
        _nonnegative_integer(window=self.window)
        _nonnegative(theta=self.theta)
        object.__setattr__(self, "mp", _quadratic_form(self.mp, "Mp", definite=True))

    def p(self, x):
        x = np.asarray(x, float)
        return float(x @ self.mp @ x)


@dataclass(frozen=True)
class FalsifyResult:
    """Worst sampled ratio p(x0) / energy and a counterexample when > 1."""

    worst_ratio: float
    counterexample: Optional[Tuple[np.ndarray, np.ndarray]]

    @property
    def falsified(self) -> bool:
        return self.counterexample is not None


def observability_stack(system: DiscreteLti, window: int):
    """Stacked maps O, H with ``Y = O x[k0] + H U`` over ``window + 1`` steps."""
    _instance(system, "system", DiscreteLti)
    _nonnegative_integer(window=window)
    ad, bd, c, d = system.ad, system.bd, system.c, system.d
    n = system.n
    mo = c.shape[0]
    mi = bd.shape[1]
    power = np.eye(n)
    cp = [c @ power]
    for _ in range(window):
        power = power @ ad
        cp.append(c @ power)
    o = np.vstack(cp)
    # Markov parameters: the block of H at lag k is D for k = 0 and
    # C Ad^(k-1) Bd after that
    markov = [d] + [cp[k] @ bd for k in range(window)]
    h = np.zeros(((window + 1) * mo, (window + 1) * mi))
    for i in range(window + 1):
        for j in range(i + 1):
            h[i * mo : (i + 1) * mo, j * mi : (j + 1) * mi] = markov[i - j]
    return o, h


def lti_sd_certificate(system: DiscreteLti, window: int) -> SdCertificate:
    """Construct an SD certificate for a discrete LTI system.

    Requires the stacked observability matrix over the window to have full
    rank (otherwise :class:`NotDetectableError` carries the rank).  The
    smallest ``theta`` in [1e-9, 1e3] making the Schur complement

        S(theta) = O'O - O'H (theta I + H'H)^{-1} H'O
                 = O'O - Z' diag(s^2 / (theta + s^2)) Z

    positive definite (min eigenvalue >= 1e-8) is searched for and the
    certificate is returned with ``Mp = S(theta)/2``; the halving makes the
    certificate inequality strict and robust to round-off.  The second form
    comes from one thin SVD ``H = U diag(s) V'`` with ``Z = U'O``, taken
    once per certificate, so each check costs one product with ``Z`` and an
    ``n x n`` eigenvalue, not a solve with ``theta I + H'H``.

    Along the eigenvector ``v`` of the smallest eigenvalue at a point
    ``t0`` below the floor, ``v' S(t) v = lambda_min(S(t0)) + p(t0) - p(t)``
    with the pole sum ``p(t) = sum_i (Z v)_i^2 s_i^2 / (t + s_i^2)``.  It
    bounds ``lambda_min(S(t))`` from above, so the ``t`` where it reaches
    the floor (:func:`_floor_along`) is at most the smallest feasible theta,
    and equals it when the eigenvector does not turn.  Eight such steps run
    from the lower end, each from the largest point that failed (a step
    leaving the bracket takes its geometric midpoint), then the closing
    points ``lo (1 + 10^k)``, k = -13, -11, ..., -5; ``theta`` is the
    smallest point whose own check passed.  So every certificate costs 15
    eigenvalue problems (2 when ``theta = 1e-9`` passes), and rounding near
    the floor resolves ``theta`` only to about 1e-8 relative, or worse where
    ``lambda_min(S)`` is nearly flat at the floor.  If even ``theta = 1e3``
    fails, :class:`CertificateError` names the searched range and carries
    its ends as ``theta_lo`` and ``theta_hi`` in ``info``.
    """
    o, h = observability_stack(system, window)
    rank = int(np.linalg.matrix_rank(o))
    if rank < system.n:
        raise NotDetectableError(
            f"system is not detectable over a {window}-step window "
            f"(observability rank {rank} < {system.n})",
            rank=rank,
            window=window,
        )
    # the theta-free factors, formed once for the whole search
    u, s, _ = np.linalg.svd(h, full_matrices=False)
    z = u.T @ o
    oo = o.T @ o
    s2 = s * s

    def schur(theta):
        return oo - z.T @ ((s2 / (theta + s2))[:, None] * z)

    lo, hi = 1e-9, 1e3
    if linalg.min_eig(schur(hi)) < 1e-8:
        raise CertificateError(
            f"no theta in the searched range [{lo:g}, {hi:g}] certifies "
            f"detectability at window {window}",
            window=window,
            theta_lo=lo,
            theta_hi=hi,
        )
    w, v = linalg.sym_eig(schur(lo))
    if w[0] >= 1e-8:
        theta = lo
    else:
        # (w, v) is the eigendecomposition at lo, the largest failed point
        for _ in range(8):
            trial = _floor_along(z @ v[:, 0], s2, lo, 1e-8 - float(w[0]))
            if not lo < trial < hi:
                trial = (lo * hi) ** 0.5
            w_trial, v_trial = linalg.sym_eig(schur(trial))
            if w_trial[0] >= 1e-8:
                hi = trial
            else:
                lo, w, v = trial, w_trial, v_trial
        for k in (-13, -11, -9, -7, -5):
            trial = lo * (1.0 + 10.0**k)
            if linalg.min_eig(schur(trial)) >= 1e-8:
                hi = min(hi, trial)
        theta = hi
    return SdCertificate(window=window, theta=theta, mp=0.5 * schur(theta))


def _floor_along(zv, s2, theta, gap):
    """Smallest ``t >= theta`` where ``v' S(t) v`` has risen by ``gap``,
    for the eigenvector ``v`` with ``zv = Z v``; inf when it never does.

    The rise is ``p(theta) - p(t)`` with ``p(t) = sum_i a_i / (t + s_i^2)``
    and ``a = zv^2 s^2``.  ``1/p`` is concave (Cauchy-Schwarz), so Newton
    steps on ``1/p(t) = 1/(p(theta) - gap)`` climb to the root from below;
    one pole is solved in one step.
    """
    a = zv * zv * s2
    target = float(a @ (1.0 / (theta + s2))) - gap
    if not target > 0:
        return np.inf
    t = theta
    for _ in range(50):
        e = a / (t + s2)
        p = float(e.sum())
        step = p * (p - target) / (target * float(e @ (1.0 / (t + s2))))
        if not step > 1e-15 * t:
            break
        t += step
    return t


def check_sd_certificate(system: DiscreteLti, cert: SdCertificate) -> Verdict:
    """Exact verification of an SD certificate for a discrete LTI system.

    The certificate inequality holds for all (x, U) iff the block form
    ``[[O'O - Mp, O'H], [H'O, theta I + H'H]]`` is positive semidefinite;
    it passes when the minimum eigenvalue (the margin) is at least -1e-9.
    """
    o, h = observability_stack(system, cert.window)
    mp = _array(cert.mp, "Mp", (system.n, system.n))
    # update in place and free the blocks before min_eig copies blk: none is held twice
    oo, oh, ho, hh = o.T @ o, o.T @ h, h.T @ o, h.T @ h
    oo -= mp
    hh += cert.theta * np.eye(hh.shape[0])
    blk = np.block([[oo, oh], [ho, hh]])
    del oo, oh, ho, hh
    margin = linalg.min_eig(blk)
    return Verdict(passed=bool(margin >= -1e-9), margin=float(margin))


def compose_sd(cert1: SdCertificate, cert2: SdCertificate) -> SdCertificate:
    """SD certificate of the feedback loop from the subsystem certificates.

    The loop (reference input, stacked output) is N-step SD with::

        N = max(N1, N2)
        theta = max(2 theta1 / (2 theta1 + 1), 2 theta2 / (2 theta2 + 1))
        p(x) = (1 - theta) (p1(x1) + p2(x2))
    """
    theta = max(2.0 * c.theta / (2.0 * c.theta + 1.0) for c in (cert1, cert2))
    mp = (1.0 - theta) * linalg.block_diag(cert1.mp, cert2.mp)
    return SdCertificate(window=max(cert1.window, cert2.window), theta=theta, mp=mp)


# trials per sd_falsify block; a trial draws n + (window + 1) m floats, so a
# block of the bundled systems' trials holds a few kB
_FALSIFY_BLOCK = 256


def sd_falsify(system, cert: SdCertificate, trials=10000, seed=0):
    """Sampling-based falsifier for an SD certificate.

    Draws ``trials`` pairs of an initial state and an input sequence
    uniformly from ``[-3, 3]`` and evaluates the certificate ratio
    ``p(x0) / sum(theta |u|^2 + |y|^2)``.  Intended for systems where the
    exact block-form check is unavailable (nonlinear dynamics); ``system``
    only needs ``step``/``output`` methods and ``n``/``m`` attributes.
    Trials are drawn in blocks of up to 256, one draw per block, with
    ``p(x0)`` and ``theta |u[k]|^2`` as one product per block; the draws,
    the products and so the result are those of drawing and evaluating one
    trial at a time.  ``step`` and ``output`` run per trial.

    Returns
    -------
    FalsifyResult
        Worst observed ratio and, if some draw exceeded ``1 + 1e-9``, the
        offending ``(x0, U)`` pair.
    """
    _count(trials=trials)
    _nonnegative_integer(seed=seed)
    _array(cert.mp, "Mp", (system.n, system.n))
    rng = np.random.default_rng(seed)
    n, m, steps = system.n, system.m, cert.window + 1
    worst = 0.0
    witness = None
    for start in range(0, trials, _FALSIFY_BLOCK):
        # one draw per block: row i is trial i's x0 then its inputs, the
        # numbers the per-trial draws took from the stream, in their order
        draws = rng.uniform(-3.0, 3.0, (min(_FALSIFY_BLOCK, trials - start), n + steps * m))
        x0s = draws[:, :n]
        useqs = draws[:, n:].reshape(len(draws), steps, m)
        # p(x0) and theta |u[k]|^2 with the bits of the per-trial products
        p0s = _quad_values(cert.mp, x0s).tolist()
        weighted = (cert.theta * (useqs[..., None, :] @ useqs[..., :, None])[..., 0, 0]).tolist()
        for x0, useq, p0, input_energy in zip(x0s, useqs, p0s, weighted):
            energy = 0.0
            x = x0
            for k in range(steps):
                y = np.asarray(system.output(x, useq[k]), float)
                energy += input_energy[k] + float(y @ y)
                if k + 1 < steps:
                    x = np.asarray(system.step(x, useq[k]), float)
            if p0 == 0.0:
                continue
            ratio = np.inf if energy == 0.0 else p0 / energy
            if ratio > worst:
                worst = ratio
                if ratio > 1.0 + 1e-9:
                    witness = (x0.copy(), useq.copy())
    return FalsifyResult(worst_ratio=float(worst), counterexample=witness)
