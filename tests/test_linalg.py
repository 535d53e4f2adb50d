import math
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from framedisc import (
    EigensolverError,
    InvalidParameterError,
    as_hermitian,
    counterexample_vectors,
    diagonal_delta,
    eigensystem,
    engines,
    exhaustive_partition_search,
    is_projection,
    opnorm,
    rank_one,
    vector_system,
)
from framedisc.linalg import _opnorm, eigenvalues
from framedisc.rng import make_rng


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_rank_one_basis_vector():
    m = rank_one([1.0, 0.0])
    assert np.allclose(m, [[1, 0], [0, 0]])


def test_rank_one_symmetric():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.allclose(rank_one(v), [[0.5, 0.5], [0.5, 0.5]])


def test_rank_one_trace_is_delta_on_family_vector():
    inst = counterexample_vectors(5)
    m = rank_one(inst.primed.vectors[0])
    assert np.real(np.trace(m)) == pytest.approx(0.4375, abs=1e-15)
    # PSD with trace ||v||^2
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-14


def test_eigensystem_diagonal():
    w, _ = eigensystem(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])


def test_eigensystem_pauli():
    w, _ = eigensystem(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1, 1])


def test_eigensystem_family_frame_operator_top_eigenvalue():
    inst = counterexample_vectors(5)
    s = inst.normalized.vectors.T @ inst.normalized.vectors.conj()
    w, _ = eigensystem(s)
    assert w[-1] == pytest.approx(16 / 7, abs=1e-9)


def test_eigensystem_invariants_random():
    rng = make_rng(11)
    for dim in (2, 7, 23, 40):
        h = random_hermitian(dim, rng)
        w, f = eigensystem(h)
        hn = opnorm(h)
        for t in range(dim):
            res = np.linalg.norm(h @ f[:, t] - w[t] * f[:, t])
            assert res <= 1e-10 * (1 + hn)
        gram = f.conj().T @ f
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        # eigen-reconstruction
        rebuilt = (f * w) @ f.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-9 * (1 + np.linalg.norm(h))


def test_eigensystem_deterministic():
    rng = make_rng(12)
    h = random_hermitian(9, rng)
    (wa, fa), (wb, fb) = eigensystem(h), eigensystem(h.copy())
    assert np.array_equal(wa, wb)
    assert np.array_equal(fa, fb)


def test_opnorm_examples():
    v = make_rng(1).standard_normal(4) + 1j * make_rng(2).standard_normal(4)
    assert opnorm(rank_one(v)) == pytest.approx(np.linalg.norm(v) ** 2, rel=1e-12)
    assert opnorm(np.diag([1.0, -2.0])) == 2.0
    assert opnorm(np.zeros((3, 3))) == 0.0


def test_opnorm_dominates_quadratic_form_samples():
    rng = make_rng(3)
    h = random_hermitian(6, rng)
    top = opnorm(h)
    for _ in range(200):
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u /= np.linalg.norm(u)
        assert abs(np.vdot(u, h @ u).real) <= top + 1e-12


def test_is_projection_examples():
    assert is_projection(np.eye(3), 1e-10)
    assert is_projection([[0.5, 0.5], [0.5, 0.5]], 1e-10)
    assert not is_projection([[0.5, 0.0], [0.0, 0.5]], 1e-10)


def test_diagonal_delta_examples():
    assert diagonal_delta(np.eye(3)) == 1.0
    assert diagonal_delta([[0.5, 0.5], [0.5, 0.5]]) == 0.5
    assert diagonal_delta(np.zeros((2, 2))) == 0.0


def test_as_hermitian_rejects_far_from_hermitian():
    with pytest.raises(InvalidParameterError):
        as_hermitian([[0.0, 1.0], [0.0, 0.0]])


def test_as_hermitian_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        as_hermitian([[np.inf, 0.0], [0.0, 0.0]])


def _hilbert_schmidt_selfadjoint_basis(k):
    mats = []
    for a in range(k):
        e = np.zeros((k, k), dtype=complex)
        e[a, a] = 1.0
        mats.append(e)
    for a in range(k):
        for b in range(a + 1, k):
            e = np.zeros((k, k), dtype=complex)
            e[a, b] = e[b, a] = 1 / np.sqrt(2)
            mats.append(e)
            f = np.zeros((k, k), dtype=complex)
            f[a, b] = 1j / np.sqrt(2)
            f[b, a] = -1j / np.sqrt(2)
            mats.append(f)
    return mats


def test_orthonormal_basis_signed_sum_hs_norm_is_k():
    # Euclidean-norm sanity anchor: any signed sum of a Hilbert-Schmidt
    # orthonormal self-adjoint basis has HS norm exactly k.
    rng = make_rng(5)
    for k in (2, 3, 4):
        basis = _hilbert_schmidt_selfadjoint_basis(k)
        assert len(basis) == k * k
        signs = np.where(rng.random(k * k) < 0.5, 1.0, -1.0)
        total = sum(s * b for s, b in zip(signs, basis))
        assert np.linalg.norm(total) == pytest.approx(k, abs=1e-10)


def test_eigensolver_error_type_exists():
    assert issubclass(EigensolverError, RuntimeError)


def nan_kernel(h):
    """eigvalsh_lo failing to converge on every matrix: NaN eigenvalues and
    numpy's invalid flag raised, as LAPACK's failure leaves them."""
    zeros = np.zeros(h.shape[:-1])
    return zeros / zeros


def test_solver_failure_becomes_eigensolver_error(monkeypatch):
    def fail(h):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", nan_kernel)  # opnorm's kernel
    h = np.array([[0.0, 2.0], [2.0, 1.0]])
    for f in (opnorm, eigensystem, eigenvalues):
        with pytest.raises(EigensolverError) as info:
            f(h)
        assert info.value.residual == pytest.approx(np.sqrt(8.0))


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("k", range(1, 41))
def test_single_matrix_kernel_matches_eigvalsh_bitwise(k, real):
    # _opnorm calls numpy's private gufunc eigvalsh_lo on a single matrix;
    # pin it to np.linalg.eigvalsh, C-ordered or not
    rng = make_rng(k)
    for _ in range(3):
        h = random_hermitian(k, rng)
        h = h.real.copy() if real else h
        for m in (h, np.asfortranarray(h), h[::-1, ::-1]):
            w = np.linalg.eigvalsh(m)
            assert _umath_linalg.eigvalsh_lo(m).tobytes() == w.tobytes()
            norm = _opnorm(m)
            assert type(norm) is float
            assert norm.hex() == float(np.maximum(np.abs(w[0]), np.abs(w[-1]))).hex()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_single_matrix_kernel_gives_positive_zero_for_the_zero_matrix(dtype):
    for k in (1, 2, 5):
        for z in (np.zeros((k, k), dtype=dtype), -np.zeros((k, k), dtype=dtype)):
            assert math.copysign(1.0, _opnorm(z)) == 1.0
            assert math.copysign(1.0, opnorm(z)) == 1.0


def test_kernel_nonconvergence_raises_without_a_warning(monkeypatch, capfd):
    monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", nan_kernel)
    h = np.array([[0.0, 2.0], [2.0, 1.0]])
    v = np.array([[0.6, 0.0], [0.0, 0.8], [0.6, 0.0]])
    a = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    searches = {
        "opnorm": (lambda: opnorm(h), np.sqrt(8.0)),
        "partition": (lambda: exhaustive_partition_search(vector_system(v), 2), 0.0),
        "pave": (lambda: engines._paving_search(a, 2), 0.0),
        "banaszczyk": (lambda: engines.banaszczyk_sign_search([h / 20.0] * 21, M=1.0),
                       None),
    }
    for name, (call, residual) in searches.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RuntimeWarning would raise here
            with pytest.raises(EigensolverError) as info:
                call()
        if residual is not None:
            assert info.value.residual == pytest.approx(residual), name
    assert capfd.readouterr().err == ""
