"""Dense real linear-algebra kernels used by every other module.

All routines take array-likes, work on float64 copies, and are pure.
A quadratic form ``x' A x`` depends only on the symmetric part
``(A + A')/2``: the eigenvalue routines, ``quad_sublevel_max`` and ``lyap``
take any square matrix and use its symmetric part, which only
:func:`_as_symmetric` forms (an exactly symmetric matrix is its own
symmetric part, bit for bit).  This is the only module that imports scipy.
"""

import numpy as np
import scipy.linalg
from scipy.linalg import block_diag

from .errors import CertificateError, _array, _nonnegative

__all__ = [
    "sym_eig",
    "max_eig",
    "min_eig",
    "expm",
    "quad_sublevel_max",
    "lyap",
]


def _as_square(a, name="matrix", size=None):
    """``a`` through the array rule as a ``size x size`` (any square) matrix."""
    if size is None and np.shape(a):
        size = len(a)
    return _array(a, name, (size, size))


def _as_symmetric(a, name="matrix", size=None):
    """Symmetric part ``(A + A')/2`` of a square matrix."""
    a = _as_square(a, name, size)
    return 0.5 * (a + a.T)


def sym_eig(a):
    """Eigendecomposition of the symmetric part ``s`` of a square matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` in ascending order and
    orthogonal eigenvectors as columns of ``v``, so ``s = v @ diag(w) @ v.T``.
    """
    a = _as_symmetric(a)
    return np.linalg.eigh(a)


def max_eig(a):
    """Largest eigenvalue of the symmetric part of a square matrix."""
    return sym_eig(a)[0][-1]


def min_eig(a):
    """Smallest eigenvalue of the symmetric part of a square matrix."""
    return sym_eig(a)[0][0]


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
    p_form = _as_symmetric(p_form, "P", len(m_form))
    _nonnegative(xi=xi)
    lam_min = min_eig(p_form)
    if lam_min <= 1e-12:
        raise CertificateError(
            f"P is not positive definite (min eigenvalue {lam_min:.3e})",
            min_eigenvalue=lam_min,
        )
    lam = scipy.linalg.eigh(m_form, p_form, eigvals_only=True)[-1]
    return float(xi) * max(float(lam), 0.0)


def lyap(a, q):
    """Solve the continuous Lyapunov equation ``A' P + P A = -Q``.

    ``A`` must be Hurwitz; the symmetric part of the solution is returned.
    """
    a = _as_square(a, "A")
    q = _as_symmetric(q, "Q", len(a))
    eigs = np.linalg.eigvals(a)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0:
        raise CertificateError(
            f"A is not Hurwitz (eigenvalue {worst:.6g})", eigenvalue=worst
        )
    return _as_symmetric(scipy.linalg.solve_continuous_lyapunov(a.T, -q))
