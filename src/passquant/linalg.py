"""Dense real linear-algebra kernels used by every other module.

All routines take array-likes, work on float64 copies, and are pure.
Matrices passed to symmetric-only operations are checked for symmetry to an
absolute tolerance of 1e-10 on the max entry and then symmetrized to absorb
round-off before decomposition.
"""

import numpy as np
import scipy.linalg

from .errors import CertificateError, DimensionError

__all__ = [
    "sym_eig",
    "max_eig",
    "min_eig",
    "is_nsd",
    "expm",
    "quad_sublevel_max",
    "cholesky",
    "solve",
    "lyap",
]

SYM_TOL = 1e-10


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def _as_symmetric(a, name="matrix"):
    a = _as_square(a, name)
    if a.size and np.max(np.abs(a - a.T)) > SYM_TOL:
        raise DimensionError(f"{name} is not symmetric within {SYM_TOL:g}")
    return 0.5 * (a + a.T)


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` in ascending order and
    orthogonal eigenvectors as columns of ``v``, so ``a = v @ diag(w) @ v.T``.
    """
    a = _as_symmetric(a)
    return np.linalg.eigh(a)


def max_eig(a):
    """Largest eigenvalue of a symmetric matrix."""
    return sym_eig(a)[0][-1]


def min_eig(a):
    """Smallest eigenvalue of a symmetric matrix."""
    return sym_eig(a)[0][0]


def is_nsd(a, tol=0.0):
    """True iff the symmetric matrix ``a`` has max eigenvalue <= ``tol``."""
    return bool(max_eig(a) <= tol)


def expm(a):
    """Matrix exponential of a square matrix."""
    return scipy.linalg.expm(_as_square(a))


def quad_sublevel_max(m_form, p_form, xi):
    """Maximum of ``x' M x`` over the ellipsoid ``x' P x <= xi``.

    ``P`` must be positive definite; the maximum equals
    ``xi * lambda_max`` of the pencil ``M v = lambda P v`` (clamped at zero,
    since the sublevel set contains the origin).
    """
    m_form = _as_symmetric(m_form, "M")
    p_form = _as_symmetric(p_form, "P")
    if m_form.shape != p_form.shape:
        raise DimensionError("M and P must have identical shapes")
    if xi < 0:
        raise DimensionError(f"sublevel value must be nonnegative, got {xi}")
    lam_min = min_eig(p_form)
    if lam_min <= 1e-12:
        raise CertificateError(
            f"P is not positive definite (min eigenvalue {lam_min:.3e})",
            min_eigenvalue=lam_min,
        )
    lam = scipy.linalg.eigh(m_form, p_form, eigvals_only=True)[-1]
    return float(xi) * max(float(lam), 0.0)


def cholesky(p):
    """Lower-triangular Cholesky factor of a symmetric PD matrix."""
    p = _as_symmetric(p, "P")
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise CertificateError(
            f"matrix is not positive definite (min eigenvalue {min_eig(p):.3e})",
            min_eigenvalue=min_eig(p),
        ) from exc


def solve(a, b):
    """Solve ``a x = b`` by LU with partial pivoting."""
    a = _as_square(a, "A")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise DimensionError(f"rhs length {b.shape[0]} != matrix size {a.shape[0]}")
    return np.linalg.solve(a, b)


def lyap(a, q):
    """Solve the continuous Lyapunov equation ``A' P + P A = -Q``.

    ``A`` must be Hurwitz; the solution is symmetrized before returning.
    """
    a = _as_square(a, "A")
    q = _as_symmetric(q, "Q")
    if q.shape != a.shape:
        raise DimensionError("A and Q must have identical shapes")
    eigs = np.linalg.eigvals(a)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0:
        raise CertificateError(
            f"A is not Hurwitz (eigenvalue {worst:.6g})", eigenvalue=worst
        )
    p = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
    return 0.5 * (p + p.T)
