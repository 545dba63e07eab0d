"""Passivity indices: LMI verification, degradation, composition, audits.

A system is IF-OFP(nu, rho) when it is dissipative for the supply rate
``u'y - nu u'u - rho y'y``; the quasi-passive variant IF-OFQP(nu, rho, delta)
adds a constant internal-generation allowance ``delta >= 0``.  Implementing a
continuous system under sampling and quantization degrades these indices;
the operations here quantify the degradation and compose indices across a
feedback interconnection.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CertificateError, DimensionError, ParameterError, _array, _count, _finite, _instance,
    _nonnegative, _overflow, _positive)
from .systems import DiscreteLti, LtiModel

__all__ = [
    "IndexSet",
    "GainCertificate",
    "LambdaChoices",
    "ComposedIndices",
    "Verdict",
    "verify_lti_passivity",
    "max_index_bisection",
    "verify_gain_assumption",
    "degrade_sampling",
    "degrade_quantization",
    "symbolic_quant_bias",
    "compose_feedback",
    "choose_nu_hat",
    "dissipation_audit",
]


@dataclass(frozen=True)
class IndexSet:
    """Passivity/quasi-passivity indices.

    ``nu`` is the input-feedforward index, ``rho`` the output-feedback index,
    ``delta`` the constant quasi-passivity bias, and ``w`` the weight of a
    state-dependent bias ``delta(x0) = w * beta(x0)`` picked up when indices
    are derived by sampling degradation.  Pure IF-OFP means delta = w = 0.
    """

    nu: float
    rho: float
    delta: float = 0.0
    w: float = 0.0

    def __post_init__(self):
        _finite(nu=self.nu, rho=self.rho)
        _nonnegative(delta=self.delta, w=self.w)


# feasibility tolerance on the largest eigenvalue of every index LMI
_LMI_TOL = 1e-8


def _quadratic_form(matrix, name, definite=False, size=None):
    """Symmetric part of ``matrix`` (``size x size`` when given), checked positive
    semidefinite (minimum eigenvalue >= -1e-10) or, with ``definite``, definite."""
    q = linalg._as_symmetric(np.atleast_2d(matrix), name, size)
    # q is its own symmetric part, so min_eig's second pass is skipped; the
    # kernel overwrites what it is given
    lam = linalg._eig_at(q.copy(), 1)
    if not ((lam > 0) if definite else (lam >= -1e-10)):  # NaN fails too
        kind = "definite" if definite else "semidefinite"
        raise ParameterError(f"{name} must be positive {kind}")
    return q


def _quad_values(q, states):
    """``x' Q x`` for each row ``x`` of ``states``, as one batched product
    with the bits of ``float(x @ q @ x)`` row by row."""
    return ((states[:, None, :] @ q) @ states[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class GainCertificate:
    """Gain bound on the state part of the output map.

    Witnesses ``int |d/dt h1(x)|^2 <= gamma^2 int |u|^2 + beta(x0)`` with
    ``beta(x) = x' Mb x``.
    """

    gamma: float
    beta_matrix: np.ndarray

    def __post_init__(self):
        _positive(gamma=self.gamma)
        mb = _quadratic_form(self.beta_matrix, "beta matrix")
        object.__setattr__(self, "beta_matrix", mb)


@dataclass(frozen=True)
class LambdaChoices:
    """Free positive parameters of the degradation formulas.

    Defaults follow the worked examples bundled with the package:
    ``lambda1 = 10`` for the sampling stage and 20 for the quantization
    stage.  Larger values trade a larger constant bias for larger indices.
    """

    lambda1: float = 10.0
    lambda2: float = 20.0
    lambda3: float = 20.0
    lambda4: float = 20.0
    lambda5: float = 20.0

    def __post_init__(self):
        _positive(**vars(self))


@dataclass(frozen=True)
class ComposedIndices:
    """Loop indices with the per-subsystem bias weights carried through.

    The state bias of the interconnection splits as
    ``delta(x0) = w1 * beta1(x1_0) + w2 * beta2(x2_0)``.
    """

    nu: float
    rho: float
    delta: float
    w1: float = 0.0
    w2: float = 0.0

    def __post_init__(self):
        _finite(**vars(self))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certificate check.

    ``margin`` is the quantity the decision compares against its tolerance:
    a critical eigenvalue for matrix inequalities, the slack of the
    bisimulation parameter inequality.
    """

    passed: bool
    margin: float


def _storage_matrix(storage, size=None):
    return _quadratic_form(storage, "storage matrix", size=size)


def _passivity_lmi(model, p, nu, rho):
    """Quadratic form in (x, u) whose negative semidefiniteness certifies
    the dissipation inequality for the candidate (P, nu, rho)."""
    c, d = model.c, model.d
    m = c.shape[0]
    if isinstance(model, DiscreteLti):
        ad, bd = model.ad, model.bd
        m11 = ad.T @ p @ ad - p + rho * c.T @ c
        m12 = ad.T @ p @ bd - 0.5 * c.T + rho * c.T @ d
        m22 = bd.T @ p @ bd + nu * np.eye(m) - 0.5 * (d + d.T) + rho * d.T @ d
    else:
        a, b = model.a, model.b
        m11 = a.T @ p + p @ a + rho * c.T @ c
        m12 = p @ b - 0.5 * c.T + rho * c.T @ d
        m22 = nu * np.eye(m) - 0.5 * (d + d.T) + rho * d.T @ d
    return np.block([[m11, m12], [m12.T, m22]])


def verify_lti_passivity(model, storage, nu, rho) -> Verdict:
    """Check whether an LTI system is IF-OFP(nu, rho) for a given storage.

    Parameters
    ----------
    model : LtiModel or DiscreteLti
        Continuous models are checked against the differential dissipation
        inequality, discrete ones against the one-step difference form.
    storage : array
        Candidate storage matrix P (V(x) = x'Px), positive semidefinite.
    nu, rho : float
        Candidate passivity indices.

    Returns
    -------
    Verdict
        ``passed`` is True iff the form is negative semidefinite within
        1e-8; ``margin`` is its max eigenvalue.
    """
    _instance(model, "model", LtiModel, DiscreteLti)
    _finite(nu=nu, rho=rho)
    p = _storage_matrix(storage, model.n)
    margin = linalg.max_eig(_passivity_lmi(model, p, nu, rho))
    return Verdict(passed=bool(margin <= _LMI_TOL), margin=float(margin))


def max_index_bisection(model, storage, fixed, fixed_value):
    """Largest value of the free index passing :func:`verify_lti_passivity`.

    ``fixed`` names which index ("nu" or "rho") is held at ``fixed_value``;
    the other is searched over [-10, 10].  The LMI is affine in the free
    index x, ``M(x) = M(-10) + (x + 10) F``, with ``F`` positive
    semidefinite (``diag(0, I)`` for nu, ``[C D]'[C D]`` for rho), so the
    largest x with ``M(x) <= level I`` is one generalized eigenvalue of a
    symmetric pencil, ``-10 + 1 / lambda_max(F, level I - M(-10))`` (-10
    when ``level I - M(-10)`` is not positive definite).  The result is the
    larger of that x at half the 1e-8 tolerance and that x at the tolerance
    less 0.5e-5: it passes the check with a margin, and the index + 1e-5
    fails it.  Returns 10 when the whole window passes.  Raises a
    :class:`CertificateError` when even the lower bound is infeasible, or
    when the result fails its check (``info`` carries its margin).
    """
    _instance(model, "model", LtiModel, DiscreteLti)
    if fixed not in ("nu", "rho"):
        raise ParameterError("fixed must be 'nu' or 'rho'")
    _finite(fixed_value=fixed_value)
    p = _storage_matrix(storage, model.n)

    def lmi(free):
        nu, rho = (fixed_value, free) if fixed == "nu" else (free, fixed_value)
        return _passivity_lmi(model, p, nu, rho)

    lo, hi = -10.0, 10.0
    base = lmi(lo)
    if linalg.max_eig(base) > _LMI_TOL:
        raise CertificateError(
            f"no feasible index at the search lower bound {lo}", lower_bound=lo
        )
    if linalg.max_eig(lmi(hi)) <= _LMI_TOL:
        return hi
    step = lmi(lo + 1.0) - base
    eye = np.eye(len(base))

    def largest(level):
        try:
            return lo + 1.0 / linalg.quad_sublevel_max(step, level * eye - base, 1.0)
        except CertificateError:  # M(lo) is already within 1e-12 of the level
            return lo

    free = max(largest(0.5 * _LMI_TOL), largest(_LMI_TOL) - 0.5e-5)
    margin = float(linalg.max_eig(lmi(free)))
    if margin > _LMI_TOL:
        raise CertificateError(
            f"the largest index {free} fails its LMI check (margin {margin:.3e})",
            index=free,
            margin=margin,
        )
    return free


def verify_gain_assumption(model: LtiModel, cert: GainCertificate):
    """Check the derivative-gain bound for the state output ``h1(x) = Cx``.

    Assembles the 2x2-block form whose negative semidefiniteness certifies
    ``d/dt beta(x) <= gamma^2 |u|^2 - |d/dt (Cx)|^2`` with ``beta = x'Mb x``.
    """
    _instance(model, "model", LtiModel)
    a, b, c = model.a, model.b, model.c
    pb = _array(cert.beta_matrix, "beta matrix", (model.n, model.n))
    g = cert.gamma
    m11 = a.T @ pb + pb @ a + a.T @ c.T @ c @ a
    m12 = pb @ b + a.T @ c.T @ c @ b
    m22 = -g * g * np.eye(model.m) + b.T @ c.T @ c @ b
    margin = linalg.max_eig(np.block([[m11, m12], [m12.T, m22]]))
    return Verdict(passed=bool(margin <= _LMI_TOL), margin=float(margin))


def degrade_sampling(nu, rho, gamma, tau, lambda1=10.0) -> IndexSet:
    """Passivity indices of the ZOH-sampled system from the continuous ones.

    Given a continuous IF-OFP(nu, rho) system whose state output satisfies a
    derivative-gain bound with constant ``gamma``, the sampled system with
    period ``tau`` satisfies the quasi-passivity inequality (with storage
    scaled by ``1/tau``) for::

        nu' = nu - tau*gamma - tau^2*gamma^2*(1 + lambda1)*|rho|
        rho' = rho - |rho|/lambda1
        delta(x0) = w * beta(x0),   w = |rho|*tau*(1 + lambda1) + 1/gamma

    Returns an :class:`IndexSet` with ``delta = 0`` and the weight ``w`` set.
    """
    _positive(tau=tau, gamma=gamma, lambda1=lambda1)
    with _overflow("nu'"):
        nu_s = nu - tau * gamma - tau**2 * gamma**2 * (1.0 + lambda1) * abs(rho)
    rho_s = rho - abs(rho) / lambda1
    w = abs(rho) * tau * (1.0 + lambda1) + 1.0 / gamma
    return IndexSet(nu=nu_s, rho=rho_s, delta=0.0, w=w)


def _quant_weights(nu, rho, mu1, mu2, m, lambda2, lambda3, lambda4, lambda5):
    """Bias weights ``(|rho|(1+lambda2) + lambda4, |nu|(1+lambda3) + lambda5)``
    of the squared output and input errors, once the inputs are checked."""
    _positive(lambda2=lambda2, lambda3=lambda3, lambda4=lambda4, lambda5=lambda5)
    _nonnegative(mu1=mu1, mu2=mu2)
    _count(m=m)
    return abs(rho) * (1.0 + lambda2) + lambda4, abs(nu) * (1.0 + lambda3) + lambda5


def degrade_quantization(
    nu, rho, mu1, mu2, m, lambda2=20.0, lambda3=20.0, lambda4=20.0, lambda5=20.0, w=0.0
) -> IndexSet:
    """Indices after uniform input/output quantization of a sampled system.

    ``mu1`` and ``mu2`` are the input and output quantizer precisions and
    ``m`` the signal dimension::

        nu~ = nu - |nu|/lambda3 - 1/(4 lambda4)
        rho~ = rho - |rho|/lambda2 - 1/(4 lambda5)
        delta~ = [|rho|(1+lambda2) + lambda4] m mu2^2
               + [|nu|(1+lambda3) + lambda5] m mu1^2

    A state-bias weight ``w`` from a previous sampling stage passes through.
    """
    out_w, in_w = _quant_weights(nu, rho, mu1, mu2, m, lambda2, lambda3, lambda4, lambda5)
    nu_q = nu - abs(nu) / lambda3 - 1.0 / (4.0 * lambda4)
    rho_q = rho - abs(rho) / lambda2 - 1.0 / (4.0 * lambda5)
    with _overflow("delta~"):
        delta_q = out_w * m * mu2**2 + in_w * m * mu1**2
    return IndexSet(nu=nu_q, rho=rho_q, delta=delta_q, w=w)


def _twin_radius(lip, eps, m, mu2, cells):
    """2-norm radius of the output error the symbolic twin can add.

    By the triangle inequality: the twin's state lies within ``eps`` of the
    exact controller's in the inf-norm, which moves the output by at most
    ``lip*eps``, and a quantizer of pitch ``mu2`` moves it by at most
    ``sqrt(m) mu2``.  The gap between the twin's and the exact controller's
    quantized outputs is thus at most ``lip*eps + 2 sqrt(m) mu2`` (``cells
    = 2``, the disturbance-injected radius); the twin's own output quantizer
    raises it to ``lip*eps + 3 sqrt(m) mu2`` (``cells = 3``).  A radius
    that overflows the float range raises :class:`ParameterError`.
    """
    _nonnegative(lip=lip, eps=eps)
    _count(m=m)
    with _overflow("twin radius") as finite:
        return finite(lip * eps + cells * math.sqrt(m) * mu2)


def symbolic_quant_bias(
    nu, rho, lip, eps, mu1, mu2, m, lambda2=20.0, lambda3=20.0, lambda4=20.0, lambda5=20.0
):
    """Constant bias when the quantized controller is replaced by its
    state-quantized symbolic twin.

    The output error radius grows from ``sqrt(m) mu2`` to
    ``lip*eps + 3 sqrt(m) mu2`` (state mismatch up to ``eps`` through the
    output Lipschitz bound, plus quantizer effects on both sides)::

        delta~ = [|rho|(1+lambda2) + lambda4] (lip*eps + 3 sqrt(m) mu2)^2
               + [|nu|(1+lambda3) + lambda5] m mu1^2
    """
    out_w, in_w = _quant_weights(nu, rho, mu1, mu2, m, lambda2, lambda3, lambda4, lambda5)
    with _overflow("delta~"):
        return out_w * _twin_radius(lip, eps, m, mu2, 3) ** 2 + in_w * m * mu1**2


def _loop_rho(idx1, idx2, nu_hat):
    """The loop's output index ``rho_hat`` at ``nu_hat`` (see
    :func:`compose_feedback`, which checks ``nu_hat``)."""
    return min(
        idx1.rho - nu_hat * idx2.nu / (idx2.nu - nu_hat),
        idx2.rho - nu_hat * idx1.nu / (idx1.nu - nu_hat),
    )


def compose_feedback(idx1: IndexSet, idx2: IndexSet, nu_hat) -> ComposedIndices:
    """Indices of the negative-feedback interconnection of two subsystems.

    For any choice ``nu_hat < min(nu1, nu2)`` (strict) the loop satisfies a
    quasi-passivity inequality from the stacked reference to the stacked
    output with::

        rho_hat = min(rho1 - nu_hat*nu2/(nu2 - nu_hat),
                      rho2 - nu_hat*nu1/(nu1 - nu_hat))
        delta_hat = delta1 + delta2

    The per-subsystem bias weights are carried so the state bias remains
    evaluable as ``w1*beta1(x1) + w2*beta2(x2)``.
    """
    _finite(nu_hat=nu_hat)
    bound = min(idx1.nu, idx2.nu)
    if not nu_hat < bound:
        raise ParameterError(
            f"nu_hat must satisfy nu_hat < min(nu1, nu2) = {bound}, got {nu_hat}"
        )
    return ComposedIndices(
        nu=nu_hat,
        rho=_loop_rho(idx1, idx2, nu_hat),
        delta=idx1.delta + idx2.delta,
        w1=idx1.w,
        w2=idx2.w,
    )


def choose_nu_hat(idx1: IndexSet, idx2: IndexSet):
    """Golden-section search for the ``nu_hat`` maximizing the loop ``rho``.

    Searches ``(min(nu1, nu2) - 10, min(nu1, nu2))`` to a width of 1e-6,
    or until the float spacing of large indices stops the probes moving
    strictly inside the bracket.  The objective is monotone in ``nu_hat``
    for fixed subsystem indices, so the maximizer typically sits at the far
    end of the window; the search still confirms local optimality at the
    returned point, which lies strictly below ``min(nu1, nu2)``.  An index
    so large that the window holds no float below it raises
    :class:`ParameterError`.
    """
    bound = min(idx1.nu, idx2.nu)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = bound - 10.0, bound - 1e-9
    if not a < bound:
        raise ParameterError(f"nu = {bound} leaves no float nu_hat in (nu - 10, nu)")
    # the rho of compose_feedback, with no ComposedIndices built per probe;
    # a probe is strictly inside (a, b), so never at the bound
    while b - a > 1e-6:
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        if not (a < c < b and a < d < b):
            break
        if _loop_rho(idx1, idx2, c) > _loop_rho(idx1, idx2, d):
            b = d
        else:
            a = c
    mid = 0.5 * (a + b)
    return mid if mid < bound else a


def dissipation_audit(states, inputs, outputs, storage, indices: IndexSet, bias=None):
    """Maximum violation of the quasi-passivity inequality over all windows.

    Parameters
    ----------
    states, inputs, outputs : arrays
        Aligned trajectory data of shapes (K+1, n), (K, m), (K, m).
    storage : array
        Positive semidefinite matrix P of the storage ``V(x) = x'Px``.
    indices : IndexSet
        Candidate indices; ``indices.delta`` enters the per-step supply and
        ``indices.w`` weights the start-of-window state bias.
    bias : array, optional
        Positive semidefinite matrix Mb of the state bias
        ``beta(x) = x'Mb x``; required when ``indices.w > 0``.

    Returns
    -------
    float
        ``max over k0 < k1`` of ``V(x[k1]) - V(x[k0]) - w*beta(x[k0])
        - sum(supply)``; a value <= 0 means the inequality held empirically.
        Every step is audited, in O(K) time and memory.
    """
    p = _storage_matrix(storage)
    inputs = _array(inputs, "inputs", (None, None))
    outputs = _array(outputs, "outputs", inputs.shape)
    states = _array(states, "states", (len(inputs) + 1, len(p)))
    if len(inputs) == 0:
        raise DimensionError("trajectory has no steps to audit")

    v = _quad_values(p, states)
    supply = (
        np.einsum("ki,ki->k", inputs, outputs)
        - indices.nu * np.einsum("ki,ki->k", inputs, inputs)
        - indices.rho * np.einsum("ki,ki->k", outputs, outputs)
        + indices.delta
    )
    cum = np.concatenate([[0.0], np.cumsum(supply)])
    if indices.w > 0:
        if bias is None:
            raise ParameterError("a bias matrix is required when indices.w > 0")
        b = indices.w * _quad_values(_quadratic_form(bias, "bias matrix"), states)
    else:
        b = np.zeros(states.shape[0])

    # violation(k0, k1) = V[k1] - V[k0] - b[k0] - (cum[k1] - cum[k0]), k0 < k1;
    # subtraction is monotone, so the max over k0 pairs rhs[k1] with the
    # running minimum of lhs, exactly as the pairwise maximum would
    rhs = v - cum
    lhs = rhs + b  # subtracted at the window start
    return float(np.max(rhs[1:] - np.minimum.accumulate(lhs[:-1])))
