import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import passquant
from passquant import CertificateError, DimensionError, ToolkitError
from passquant import linalg


def series_expm(a, terms=30):
    """Truncated Taylor series, the independent oracle for the exponential."""
    a = np.asarray(a, float)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


class TestSymEig:
    def test_identity(self):
        w, _ = linalg.sym_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        w, _ = linalg.sym_eig(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0])

    def test_two_by_two_hand_derived(self):
        # characteristic polynomial (2-l)^2 - 1 = 0 -> l in {1, 3}
        w, _ = linalg.sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(w, [1.0, 3.0], atol=1e-12)

    def test_evaluates_the_symmetric_part(self):
        # any square matrix is accepted and stands for its symmetric part,
        # bit for bit, whatever its asymmetry
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = rng.integers(1, 9)
            a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 9)
            w, v = linalg.sym_eig(a)
            w_sym, v_sym = linalg.sym_eig(0.5 * (a + a.T))
            assert np.array_equal(w, w_sym) and np.array_equal(v, v_sym)
            sym = 0.5 * (a + a.T)
            assert linalg.min_eig(a) == linalg.min_eig(sym)
            assert linalg.max_eig(a) == linalg.max_eig(sym)

    def test_extreme_eigenvalues_agree_with_eigvalsh(self):
        # min_eig and max_eig take one eigenvalue through another LAPACK
        # driver than eigvalsh; both are backward stable, so they agree to
        # a few rounding errors of the spectral norm
        rng = np.random.default_rng(4)
        for n in [*range(1, 33), *range(40, 241, 8)]:
            a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 10)
            w = np.linalg.eigvalsh(0.5 * (a + a.T))
            # the spectral norm of a symmetric matrix is its largest |eigenvalue|
            tol = n * np.finfo(float).eps * max(-w[0], w[-1]) * 10
            assert abs(linalg.min_eig(a) - w[0]) <= tol
            assert abs(linalg.max_eig(a) - w[-1]) <= tol

    def test_lapack_failure_raises(self, monkeypatch):
        # a nonzero info from the one-eigenvalue driver is never read as a value
        def failing(a, **kwargs):
            return np.zeros(len(a)), np.zeros((0, 0)), 0, np.zeros(0, np.int32), 3

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failing)
        for fn in (linalg.min_eig, linalg.max_eig):
            with pytest.raises(ToolkitError, match="dsyevr"):
                fn(np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            linalg.sym_eig(np.zeros((2, 3)))

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = rng.integers(1, 9)
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            w, v = linalg.sym_eig(a)
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-8
            scale = max(np.max(np.abs(a)), 1e-30)
            assert np.max(np.abs(a @ v - v @ np.diag(w))) <= 1e-9 * max(scale, 1.0)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        e = linalg.expm(np.diag([1.0, -1.0]))
        assert np.allclose(e, np.diag([math.e, 1.0 / math.e]), rtol=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            a *= 1.0 / max(np.linalg.norm(a, 2), 1.0)
            assert np.max(np.abs(linalg.expm(a) - series_expm(a))) <= 1e-9

    def test_inverse_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            a *= 3.0 / max(np.linalg.norm(a, 2), 3.0)
            prod = linalg.expm(a) @ linalg.expm(-a)
            assert np.max(np.abs(prod - np.eye(4))) <= 1e-7


class TestQuadSublevelMax:
    def test_spheres(self):
        assert linalg.quad_sublevel_max(np.eye(2), np.eye(2), 4.0) == pytest.approx(4.0)

    def test_axis_aligned(self):
        assert linalg.quad_sublevel_max(np.diag([2.0, 1.0]), np.eye(2), 1.0) == pytest.approx(2.0)

    def test_against_boundary_sweep(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        p = np.diag([1.0, 4.0])
        got = linalg.quad_sublevel_max(m, p, 1.0)
        theta = np.linspace(0.0, 2.0 * np.pi, 100000)
        pts = np.stack([np.cos(theta), 0.5 * np.sin(theta)])
        brute = np.einsum("ik,ij,jk->k", pts, m, pts).max()
        assert got == pytest.approx(brute, abs=1e-3)

    def test_homogeneous_in_xi(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal((3, 3))
            p = g @ g.T + 0.5 * np.eye(3)
            h = rng.standard_normal((3, 3))
            m = h @ h.T
            base = linalg.quad_sublevel_max(m, p, 1.5)
            assert linalg.quad_sublevel_max(m, p, 3.0) == pytest.approx(2.0 * base, rel=1e-12)

    def test_rejects_non_pd(self):
        with pytest.raises(CertificateError) as err:
            linalg.quad_sublevel_max(np.eye(2), np.diag([1.0, 0.0]), 1.0)
        assert "min_eigenvalue" in err.value.info


class TestCholeskySolveLyap:
    def test_lyap_closed_form(self):
        # A = -I: A'P + PA = -2P = -Q -> P = Q/2
        p = linalg.lyap(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(p, np.eye(2), atol=1e-12)

    def test_lyap_residual(self, bench_model):
        a = bench_model.a
        p = linalg.lyap(a, np.eye(2))
        assert np.max(np.abs(a.T @ p + p @ a + np.eye(2))) <= 1e-8

    def test_lyap_rejects_unstable(self):
        with pytest.raises(CertificateError) as err:
            linalg.lyap(np.array([[1.0]]), np.eye(1))
        assert "eigenvalue" in err.value.info


class TestBlockDiag:
    @pytest.mark.parametrize("blocks", [
        ([[1.0, 2.0], [3.0, 4.0]], [[5.0]]),
        (np.arange(6).reshape(2, 3), np.ones((3, 1)), 7.5),
        ([1.0, 2.0], [[3.0], [4.0]], np.eye(2)),
        (np.eye(2), np.array([]), np.ones((0, 3)), [[-0.0, np.pi]]),
        (np.asfortranarray(np.arange(4.0).reshape(2, 2)), np.arange(9.0).reshape(3, 3)[:, ::2]),
    ], ids=["square", "int and scalar", "1-D row", "empty blocks", "strided"])
    def test_matches_scipy(self, blocks):
        got = linalg.block_diag(*blocks)
        want = scipy.linalg.block_diag(*blocks)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.astype(float).tobytes()


def test_only_linalg_imports_scipy():
    # the other modules reach scipy's routines through linalg
    importers = []
    for path in sorted(Path(passquant.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.append(path.name)
    assert set(importers) == {"linalg.py"}
