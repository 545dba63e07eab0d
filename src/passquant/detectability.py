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
from .passivity import Verdict, _quadratic_form
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

    positive definite (min eigenvalue >= 1e-8) is found by geometric
    bisection and the certificate is returned with ``Mp = S(theta)/2``; the
    halving makes the certificate inequality strict and robust to round-off.
    The second form comes from one thin SVD ``H = U diag(s) V'`` with
    ``Z = U'O``, taken once per certificate, so each check costs one
    product with ``Z`` and an ``n x n`` eigenvalue, not a solve with
    ``theta I + H'H``.  Rounding near the 1e-8 floor resolves ``theta``
    only to about 1e-8 relative.
    After 59 halvings the bisection stops once its geometric midpoint equals
    an end of the bracket: the bracket can no longer change, so this gives
    the same theta as running all 80 halvings.  If even ``theta = 1e3``
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
    # the theta-free factors, formed once for the whole bisection
    u, s, _ = np.linalg.svd(h, full_matrices=False)
    z = u.T @ o
    oo = o.T @ o
    s2 = s * s

    def schur(theta):
        return oo - z.T @ ((s2 / (theta + s2))[:, None] * z)

    def feasible(theta):
        return linalg.min_eig(schur(theta)) >= 1e-8

    lo, hi = 1e-9, 1e3
    if not feasible(hi):
        raise CertificateError(
            f"no theta in the searched range [{lo:g}, {hi:g}] certifies "
            f"detectability at window {window}",
            window=window,
            theta_lo=lo,
            theta_hi=hi,
        )
    if feasible(lo):
        theta = lo
    else:
        # geometric bisection: theta spans twelve orders of magnitude.  The
        # bracket stops changing after 56-58 halvings; testing for that
        # only from halving 59 on keeps the work per certificate the same
        # (61 feasibility checks) whatever the system
        for step in range(80):
            mid = (lo * hi) ** 0.5
            if step >= 59 and (mid == lo or mid == hi):
                break
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        theta = hi
    return SdCertificate(window=window, theta=theta, mp=0.5 * schur(theta))


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


def sd_falsify(system, cert: SdCertificate, trials=10000, seed=0):
    """Sampling-based falsifier for an SD certificate.

    Draws ``trials`` pairs of an initial state and an input sequence
    uniformly from ``[-3, 3]`` and evaluates the certificate ratio
    ``p(x0) / sum(theta |u|^2 + |y|^2)``.  Intended for systems where the
    exact block-form check is unavailable (nonlinear dynamics); ``system``
    only needs ``step``/``output`` methods and ``n``/``m`` attributes.

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
    steps = cert.window + 1
    worst = 0.0
    witness = None
    for _ in range(trials):
        x0 = rng.uniform(-3.0, 3.0, system.n)
        useq = rng.uniform(-3.0, 3.0, (steps, system.m))
        energy = 0.0
        x = x0
        for k in range(steps):
            y = np.asarray(system.output(x, useq[k]), float)
            energy += cert.theta * float(useq[k] @ useq[k]) + float(y @ y)
            if k + 1 < steps:
                x = np.asarray(system.step(x, useq[k]), float)
        p0 = cert.p(x0)
        if p0 == 0.0:
            continue
        ratio = np.inf if energy == 0.0 else p0 / energy
        if ratio > worst:
            worst = ratio
            if ratio > 1.0 + 1e-9:
                witness = (x0, useq)
    return FalsifyResult(worst_ratio=float(worst), counterexample=witness)
