"""Dense real linear-algebra kernels used by every other module.

All routines take array-likes, work on float64 copies, and are pure.
A quadratic form ``x' A x`` depends only on the symmetric part
``(A + A')/2``: the eigenvalue routines, ``quad_sublevel_max`` and ``lyap``
take any square matrix and use its symmetric part, which only
:func:`_as_symmetric` forms (an exactly symmetric matrix is its own
symmetric part, bit for bit).  This is the only module that imports scipy,
and it imports ``scipy.linalg`` inside the four functions that call it, so
importing the package, or a command that never reaches them, loads no scipy.

Each eigen routine names its LAPACK driver: :func:`sym_eig` takes every
eigenvalue and eigenvector (numpy's ``eigh``, ``dsyevd``); :func:`min_eig`
and :func:`max_eig` take one eigenvalue and no eigenvector (``dsyevr`` with
an index range), which is all a yes/no verdict reads and costs a third to
a half of the full decomposition; :func:`quad_sublevel_max` takes the
eigenvalues of a symmetric pencil (scipy's ``eigh``, ``dsygvd``).
"""

import numpy as np

from .errors import CertificateError, ToolkitError, _array, _nonnegative

__all__ = [
    "sym_eig",
    "max_eig",
    "min_eig",
    "expm",
    "quad_sublevel_max",
    "lyap",
    "block_diag",
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


def _eig_at(s, i):
    """The ``i``-th smallest eigenvalue (1-based) of an exactly symmetric
    matrix ``s``, which is overwritten, and no eigenvector.

    LAPACK ``dsyevr`` with the index range ``[i, i]`` reduces ``s`` to
    tridiagonal form and computes that one eigenvalue; a nonzero ``info``
    raises :class:`ToolkitError`.
    """
    import scipy.linalg

    # s.T is s, in the column order LAPACK works in without a copy
    w, _, _, _, info = scipy.linalg.lapack.dsyevr(
        s.T, compute_v=0, range="I", il=i, iu=i, overwrite_a=1)
    if info:
        raise ToolkitError(f"LAPACK dsyevr failed on a {len(s)}x{len(s)} matrix (info {info})")
    return w[0]


def max_eig(a):
    """Largest eigenvalue of the symmetric part of a square matrix."""
    s = _as_symmetric(a)
    return _eig_at(s, len(s))


def min_eig(a):
    """Smallest eigenvalue of the symmetric part of a square matrix."""
    return _eig_at(_as_symmetric(a), 1)


def expm(a):
    """Matrix exponential of a square matrix."""
    import scipy.linalg

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
    import scipy.linalg

    lam = scipy.linalg.eigh(m_form, p_form, eigvals_only=True)[-1]
    return float(xi) * max(float(lam), 0.0)


def block_diag(*blocks):
    """Float matrix with the blocks along its diagonal and zeros elsewhere.

    A scalar or 1-D block is a row, as in ``scipy.linalg.block_diag``; the
    entries are copied, so the result holds the blocks' values bit for bit.
    """
    blocks = [np.atleast_2d(b) for b in blocks]
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


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
    import scipy.linalg

    return _as_symmetric(scipy.linalg.solve_continuous_lyapunov(a.T, -q))
