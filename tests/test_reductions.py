import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import (
    InvalidParameterError,
    diagonal_delta,
    frame_bound,
    frame_operator,
    is_projection,
    opnorm,
    partition,
    paving_quality,
    projection_to_vectors,
    random_projection,
    vector_system,
    vectors_to_projection,
)
from framedisc.rng import make_rng

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def projection_matrix(n, part):
    """Q, the 0/1 diagonal n x n matrix of the diagonal projection onto the
    coordinates ``part``."""
    return np.diag(np.isin(np.arange(n), part).astype(float))


def compress(a, part):
    """Q A Q for the diagonal projection Q onto ``part``: a with the rows and
    columns outside the part zeroed, from A itself (no product is formed)."""
    out = np.zeros_like(a)
    out[np.ix_(part, part)] = a[np.ix_(part, part)]
    return out


def test_projection_to_vectors_identity_n1():
    vs = projection_to_vectors(np.eye(3), 1.0)
    assert vs.n == 3 and vs.k == 3
    assert np.max(np.abs(vs.norms_squared() - 1.0)) <= 1e-12
    assert frame_bound(vs) == pytest.approx(1.0, abs=1e-10)


def test_projection_to_vectors_half_projection():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    vs = projection_to_vectors(p, 2.0)
    assert vs.k == 1
    assert np.max(np.abs(vs.norms_squared() - 1.0)) <= 1e-12
    assert frame_bound(vs) == pytest.approx(2.0, abs=1e-10)


def test_projection_to_vectors_gram_recovers_projection():
    rng = make_rng(30)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(3 * k, 3 * k + 6))
        p = random_projection(k, n, 0.5, rng)
        vs = projection_to_vectors(p, 2.0)
        # <v_i, v_j> = N * P[j][i]
        gram = vs.vectors.conj() @ vs.vectors.T  # gram[j][i] = <v_i, v_j>
        assert np.max(np.abs(gram - 2.0 * p)) <= 1e-8


def test_projection_to_vectors_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        projection_to_vectors(np.diag([0.5, 0.5]), 2.0)  # not idempotent
    with pytest.raises(InvalidParameterError):
        projection_to_vectors(np.eye(2), 2.0)  # delta = 1 > 1/2
    with pytest.raises(InvalidParameterError):
        projection_to_vectors(np.eye(2), 0.5)


def test_vectors_to_projection_singleton():
    trace = vectors_to_projection(vector_system([[1.0]]), 2.0)
    assert np.allclose(trace.P, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    assert np.allclose(np.diag(np.diag(trace.P)), [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    assert opnorm(trace.A) == pytest.approx(0.5, abs=1e-12)


def test_vectors_to_projection_properties():
    rng = make_rng(31)
    for trial in range(10):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, k + 6))
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g *= rng.random((n, 1)) ** 0.5
        vs = vector_system(g)
        n_level = max(2.0, frame_bound(vs) + 0.5)
        trace = vectors_to_projection(vs, n_level)
        assert is_projection(trace.P, 1e-8)
        assert diagonal_delta(trace.P) <= 1.0 / n_level + 1e-10
        assert opnorm(trace.A) <= 1.0 + 1.0 / n_level + 1e-8
        assert np.max(np.abs(np.diag(trace.A))) == 0.0
        # completion is exactly Parseval-type
        assert np.linalg.norm(frame_operator(trace.w) - np.eye(k)) <= 1e-9
        # leading block of the Gram projection returns the shrunk inner products
        lead = trace.P[:n, :n]
        expected = (vs.vectors.conj() @ vs.vectors.T) / n_level
        assert np.max(np.abs(lead - expected)) <= 1e-10


def test_round_trip_projection_vectors_projection():
    rng = make_rng(32)
    p = random_projection(2, 7, 0.5, rng)
    vs = projection_to_vectors(p, 2.0)
    trace = vectors_to_projection(vs, 2.0)
    # the lead block of the new Gram projection reproduces the original
    assert np.max(np.abs(trace.P[:7, :7] - p)) <= 1e-8


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), k=st.integers(1, 4),
       real=st.booleans(), headroom=st.floats(0.0, 3.0))
def test_vec2proj_then_proj2vec_has_frame_bound_N_and_unit_ball_vectors(seed, n, k, real,
                                                                         headroom):
    rng = make_rng(seed)
    v = rng.standard_normal((n, k))
    v = v if real else v + 1j * rng.standard_normal((n, k))
    vs = vector_system(v / np.max(np.linalg.norm(v, axis=1)))  # norms <= 1, one of them 1
    N = max(1.0, frame_bound(vs)) * (1.0 + headroom)
    back = projection_to_vectors(vectors_to_projection(vs, N).P, N)
    assert back.k == k
    assert frame_bound(back) == pytest.approx(N, rel=1e-9)
    assert np.max(back.norms_squared()) <= 1.0 + 1e-9


def test_vectors_to_projection_rejects():
    with pytest.raises(InvalidParameterError):
        vectors_to_projection(vector_system([[1.5, 0.0]]), 2.0)
    with pytest.raises(InvalidParameterError):
        vectors_to_projection(vector_system(np.vstack([np.eye(2)] * 3)), 2.0)  # fb = 3 > 2


def test_diagonal_projection_and_compress():
    # Q is built from a part's indices; paving_quality scores each part by
    # the same Q A Q
    part = partition(2, [0, 1, 0]).parts()[0]
    q = projection_matrix(3, part)
    assert np.allclose(q, np.diag([1.0, 0.0, 1.0]))
    a = np.arange(9, dtype=float).reshape(3, 3)
    a = (a + a.T) / 2
    c = compress(a, part)
    assert c[1, 1] == 0.0 and c[0, 1] == 0.0
    assert c[0, 0] == a[0, 0] and c[0, 2] == a[0, 2]
    assert np.array_equal(c, q @ a @ q)
    # idempotence of compression and the norm-square identity ||QPQ|| <= ||P||
    assert np.allclose(compress(c, part), c)
    assert opnorm(c) <= opnorm(a) + 1e-12
    assert paving_quality(a, partition(2, [0, 1, 0])) == max(opnorm(c), abs(a[1, 1]))
    with pytest.raises(InvalidParameterError, match="dimension mismatch"):
        paving_quality(a, partition(1, [0, 0]))


def test_compression_quadratic_identity():
    # ||Q_j P u||^2 = (1/N) sum_{i in X_j} |<u, v_i>|^2 when P is the Gram
    # projection of the completed system and Q_j selects the part's rows.
    rng = make_rng(33)
    vs = vector_system((rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / 3.0)
    n_level = max(2.0, frame_bound(vs) + 0.1)
    trace = vectors_to_projection(vs, n_level)
    m = trace.w.n
    w = trace.w.vectors
    q = projection_matrix(m, [0, 2])
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        # the isometry u -> (<u, w_i>)_i carries C^k onto range(P)
        image = w.conj() @ u
        assert np.linalg.norm(trace.P @ image - image) <= 1e-10
        lhs = np.linalg.norm(q @ image) ** 2
        rhs = sum(abs(np.vdot(vs.vectors[i], u)) ** 2 for i in (0, 2)) / n_level
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_paving_quality_examples():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert paving_quality(a, partition(2, [0, 1])) == 0.0
    assert paving_quality(a, partition(1, [0, 0])) == pytest.approx(1.0)
    # the parts are the supports of Q_j with disjoint supports summing to I
    parts = partition(2, [0, 1]).parts()
    assert sum(projection_matrix(2, p) for p in parts) == pytest.approx(np.eye(2))


def test_paving_quality_contraction_and_label_invariance():
    rng = make_rng(34)
    g = rng.standard_normal((5, 5))
    a = (g + g.T) / 2
    np.fill_diagonal(a, 0.0)
    assign = np.array([0, 1, 0, 1, 1])
    q1 = paving_quality(a, partition(2, assign))
    q2 = paving_quality(a, partition(2, 1 - assign))
    assert q1 == pytest.approx(q2, abs=1e-12)
    assert q1 <= opnorm(a) + 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_paving_quality_is_bitwise_the_padded_compressions(seed):
    # max_j ||Q_j A Q_j|| with each Q_j A Q_j the full n x n matrix, empty
    # parts skipped: the bits of eigensolving the test-side padded matrices
    rng = make_rng(3600 + seed)
    n, r = int(rng.integers(1, 12)), int(rng.integers(1, 5))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) * (seed % 2)
    a = (g + g.conj().T) / 2
    part = partition(r, rng.integers(0, r, size=n))
    expected = max((opnorm(compress(a, p)) for p in part.parts() if p.size), default=0.0)
    assert paving_quality(a, part).hex() == expected.hex()


def test_random_projection_contract():
    rng = make_rng(35)
    for _ in range(5):
        p = random_projection(3, 9, 0.5, rng)
        assert is_projection(p, 1e-10)
        assert diagonal_delta(p) <= 0.5
        assert np.linalg.matrix_rank(p) == 3
    with pytest.raises(InvalidParameterError):
        random_projection(4, 3, 0.5, rng)
