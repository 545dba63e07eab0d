"""Invariant and ultimate level sets for quasi-passive, detectable systems.

Given a quasi-passivity certificate with positive output index and a
strong-detectability certificate, the storage value along any trajectory
stays below a global level (the set ``D1``) and eventually enters and stays
below an ultimate level (the set ``D2``).  The operations here compute those
levels for a single system, for the sampled-and-quantized feedback loop, and
for the loop closed around a state-quantized symbolic controller; they also
implement the bias-margin condition.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .detectability import SdCertificate, compose_sd
from .errors import ParameterError, _array, _finite, _nonnegative, _overflow, _positive
from .passivity import ComposedIndices, IndexSet, Verdict, _ChannelErrors, _storage_matrix

__all__ = [
    "BoundReport",
    "single_system_bounds",
    "loop_bounds",
    "symbolic_loop_bounds",
    "loop_detectability_matrix",
    "margin_check",
]


@dataclass(frozen=True)
class BoundReport:
    """Certified storage levels: ``V <= level_d1`` always, ``V <= level_d2``
    ultimately.  ``mp`` is the matrix of the detectability quadratic the
    levels were taken under (the loop's composed one for the loop bounds),
    which :func:`margin_check` weighs against the state bias.  ``constants``
    holds the intermediate quantities by name."""

    eta1: float
    eta2: float
    level_d1: float
    level_d2: float
    mp: np.ndarray
    constants: dict = field(default_factory=dict)


def _split(nu, rho, lam):
    _positive(rho=rho)
    if lam is None:
        lam = rho / 2.0
    if not 0.0 < lam < rho:
        raise ParameterError(f"lam must lie in (0, rho) = (0, {rho}), got {lam}")
    eta1 = 1.0 / (4.0 * lam) - nu
    eta2 = rho - lam
    if not eta1 > 0:  # NaN fails too
        raise ParameterError(
            f"eta1 = 1/(4 lam) - nu = {eta1:.6g} must be positive; "
            "pick a smaller lam or note that nu is too large"
        )
    return lam, eta1, eta2


def single_system_bounds(
    indices: IndexSet,
    cert: SdCertificate,
    storage,
    u_norm,
    lam=None,
    c5=None,
    p_x0=0.0,
) -> BoundReport:
    """Global and ultimate storage levels for one quasi-passive SD system.

    Parameters
    ----------
    indices : IndexSet
        Quasi-passivity indices with ``rho > 0`` and constant bias only
        (``w`` must be zero; state-dependent biases are a loop-level notion).
    cert : SdCertificate
        N-step strong-detectability certificate of the same system.
    storage : array
        Positive semidefinite matrix of the quadratic storage the indices
        were certified with.
    u_norm : float
        Sup norm of the input over the horizon of interest.
    lam : float, optional
        Split of ``rho`` (default ``rho/2``); must lie in (0, rho).
    c5 : float, optional
        Free positive constant trading entry time against the ultimate
        level; defaults to ``1e-3 * (c2 + 1)``.
    p_x0 : float
        Value of the certificate quadratic at the initial state.
    """
    if indices.w != 0.0:
        raise ParameterError("single-system bounds require a constant bias (w = 0)")
    _nonnegative(u_norm=u_norm)
    lam, eta1, eta2 = _split(indices.nu, indices.rho, lam)
    v = _storage_matrix(storage)
    n_win = cert.window + 1
    with _overflow("c2"):  # c3 squares the same u_norm
        c2 = n_win * ((eta1 + cert.theta * eta2) * u_norm**2 + indices.delta)
        c3 = n_win * (eta1 * u_norm**2 + indices.delta)
    if c5 is None:
        c5 = 1e-3 * (c2 + 1.0)
    _positive(c5=c5)
    xi2 = max(p_x0, c2 / eta2)
    c1 = linalg.quad_sublevel_max(v, cert.mp, xi2)
    xi1 = c1 + c3
    xi4 = (c2 + c5) / eta2
    c4 = linalg.quad_sublevel_max(v, cert.mp, xi4)
    xi3 = c2 + c4
    return BoundReport(
        eta1=eta1,
        eta2=eta2,
        level_d1=float(xi1),
        level_d2=float(xi3),
        mp=cert.mp,
        constants={
            "lam": lam,
            "c1": c1,
            "c2": c2,
            "c3": c3,
            "c4": c4,
            "c5": c5,
            "xi1": xi1,
            "xi2": xi2,
            "xi3": xi3,
            "xi4": xi4,
        },
    )


def loop_detectability_matrix(cert1: SdCertificate, cert2: SdCertificate):
    """Composed detectability data used by the loop bounds.

    Returns ``(n_window, theta, mp)`` of :func:`detectability.compose_sd`
    with the quantized subsystem's certificate weighted by one half:
    ``p(x) = (1 - theta)(p1(x1) + p2(x2)/2)``.
    """
    loop = compose_sd(cert1, replace(cert2, mp=0.5 * cert2.mp))
    return loop.window, loop.theta, loop.mp


def loop_bounds(
    idx: ComposedIndices,
    cert1: SdCertificate,
    cert2: SdCertificate,
    storage,
    r_norm,
    mu1,
    mu2,
    m,
    lam=None,
    d3=None,
    v_first=None,
    twin=None,
) -> BoundReport:
    """Storage levels for the loop closed on a quantized controller.

    ``idx`` are the composed loop indices (``rho`` must be positive; its
    ``delta`` is the controller's quantization bias), ``cert1``/``cert2``
    the subsystem detectability certificates (subsystem 2 being the
    quantized one), ``storage`` the loop storage matrix and ``r_norm`` the
    sup norm of the stacked reference.  The levels are::

        d1 = (N+1) [(eta1 + theta*eta2) r_norm^2 + delta]
        d2 = (1 - theta) (N2+1) (theta2 m mu1^2 + m mu2^2)
        level_d2 = d1 + d2 + max{V : p <= d1 + d2 + d3}

    with the global level covering the observed prefix values ``v_first``.
    With ``twin = (lip, eps)`` the loop runs on the symbolic controller:
    ``idx.delta`` should be the bias of :func:`passivity.degrade_quantization`
    with the same ``twin``, ``m mu2^2`` grows to ``(lip*eps + 3 sqrt(m)
    mu2)^2`` and d2 drops the factor ``1 - theta``.
    """
    channels = _ChannelErrors.of(m, mu1, mu2, twin)
    _nonnegative(r_norm=r_norm)
    lam, eta1, eta2 = _split(idx.nu, idx.rho, lam)
    n_win, theta, mp = loop_detectability_matrix(cert1, cert2)
    # only the quantized loop's d2 carries 1 - theta; whether the twin's
    # should too is open
    shrink = 1.0 - theta if twin is None else 1.0
    with _overflow("d2"):
        d2 = shrink * (cert2.window + 1) * channels.weighted(cert2.theta, 1.0)
    with _overflow("d1"):
        d1 = (n_win + 1) * ((eta1 + theta * eta2) * r_norm**2 + idx.delta)
    if d3 is None:
        d3 = 1e-3 * (d1 + d2 + 1.0)
    _positive(d3=d3)
    v = _storage_matrix(storage)
    d4 = linalg.quad_sublevel_max(v, mp, d1 + d2 + d3)
    level_d2 = d1 + d2 + d4
    level_d1 = level_d2 if v_first is None else max(level_d2, max(v_first))
    constants = {"lam": lam, "theta": theta, "d1": d1, "d2": d2, "d3": d3, "d4": d4,
                 "mu1": mu1, "mu2": mu2, "m": m}
    if twin is not None:
        constants["lip"], constants["eps"] = twin
    return BoundReport(
        eta1=eta1,
        eta2=eta2,
        level_d1=float(level_d1),
        level_d2=float(level_d2),
        mp=mp,
        constants=constants,
    )


def symbolic_loop_bounds(
    idx, cert1, cert2, storage, r_norm, lip, eps, mu1, mu2, m, lam=None, d3=None, v_first=None
) -> BoundReport:
    """:func:`loop_bounds` with ``twin = (lip, eps)``."""
    return loop_bounds(idx, cert1, cert2, storage, r_norm, mu1, mu2, m, lam=lam, d3=d3,
                       v_first=v_first, twin=(lip, eps))


def _bias_matrix(w1, mbeta1, w2, mbeta2):
    """``blockdiag(w1 Mb1, w2 Mb2)``, the matrix of the loop's state bias
    ``w1 beta1(x1) + w2 beta2(x2)``."""
    return linalg.block_diag(
        w1 * _array(np.atleast_2d(mbeta1), "mbeta1", (None, None)),
        w2 * _array(np.atleast_2d(mbeta2), "mbeta2", (None, None)),
    )


def margin_check(eta2, mp, w1, mbeta1, w2, mbeta2) -> Verdict:
    """Check that the detectability decrease dominates the state bias.

    Forms ``eta2 * Mp - blockdiag(w1 Mb1, w2 Mb2)`` and passes iff its
    minimum eigenvalue (the margin) exceeds 1e-9.  This is a global check,
    stronger than needed on any particular invariant set.
    """
    _finite(eta2=eta2)
    mb = _bias_matrix(w1, mbeta1, w2, mbeta2)
    mp = _array(np.atleast_2d(mp), "Mp", mb.shape)
    margin = linalg.min_eig(eta2 * mp - mb)
    return Verdict(passed=bool(margin > 1e-9), margin=float(margin))
