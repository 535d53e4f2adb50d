import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import (
    BudgetExceededError,
    InfeasibleError,
    InvalidParameterError,
    complete_to_tight,
    counterexample_vectors,
    frame_bound,
    frame_operator,
    partition,
    rank_one,
    subset_frame_bound,
    tight_pad_unit,
    unit_norm_lift,
    vector_system,
)
from framedisc.rng import make_rng

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=100)
EPS = float(np.finfo(float).eps)


def random_system(n, k, rng, max_norm=1.0):
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    scales = max_norm * rng.random((n, 1)) ** 0.5
    return vector_system(g / norms * scales)


def test_frame_operator_orthonormal_basis_is_identity():
    vs = vector_system(np.eye(3))
    assert np.allclose(frame_operator(vs), np.eye(3))


def test_frame_operator_two_copies_of_basis():
    vs = vector_system(np.vstack([np.eye(2), np.eye(2)]))
    assert np.allclose(frame_operator(vs), 2 * np.eye(2))


def test_frame_operator_matches_rank_one_sum():
    rng = make_rng(20)
    vs = random_system(7, 3, rng)
    direct = sum(rank_one(v) for v in vs.vectors)
    assert np.allclose(frame_operator(vs), direct, atol=1e-13)


def test_frame_bound_examples():
    assert frame_bound(vector_system(np.eye(4))) == pytest.approx(1.0)
    assert frame_bound(vector_system([[1.0, 0.0], [1.0, 0.0]])) == pytest.approx(2.0)
    inst = counterexample_vectors(5)
    assert frame_bound(inst.normalized) == pytest.approx(16 / 7, abs=1e-9)


def test_frame_bound_dominates_sampled_quadratic_sums():
    rng = make_rng(21)
    vs = random_system(9, 4, rng)
    fb = frame_bound(vs)
    for _ in range(100):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        total = np.sum(np.abs(vs.vectors.conj() @ u) ** 2)
        assert total <= fb + 1e-10


def test_subset_frame_bound_examples_and_monotonicity():
    vs = vector_system(np.vstack([np.eye(2), np.eye(2)]))
    assert subset_frame_bound(vs, []) == 0.0
    assert subset_frame_bound(vs, [0]) == pytest.approx(1.0)
    assert subset_frame_bound(vs, [0, 2]) == pytest.approx(2.0)
    rng = make_rng(22)
    rvs = random_system(8, 3, rng)
    full = set(range(8))
    for _ in range(30):
        size = int(rng.integers(0, 9))
        x = set(int(i) for i in rng.choice(8, size=size, replace=False))
        y = x | {int(rng.integers(0, 8))}
        # monotone under inclusion, bounded by the whole system
        assert subset_frame_bound(rvs, x) <= subset_frame_bound(rvs, y) + 1e-12
        assert subset_frame_bound(rvs, x) <= subset_frame_bound(rvs, full) + 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e100, 1e150])
def test_subset_frame_bound_accepts_every_scale(scale):
    # the product sub^T conj(sub) is symmetrized, as frame_operator's is:
    # its rounding asymmetry grows with the vectors' squared scale, and an
    # absolute Hermitian tolerance refused valid input (already at 1e3);
    # the bound keeps the bits of symmetrizing the product first
    rng = make_rng(24)
    vs = vector_system(random_system(7, 3, rng).vectors * scale)
    for x in ([0, 1, 2], [3, 4, 5, 6], range(7)):
        sub = vs.vectors[sorted(x)]
        s = sub.T @ sub.conj()
        want = np.linalg.eigvalsh((s + s.conj().T) / 2)[-1]
        assert subset_frame_bound(vs, x).hex() == float(want).hex()


def test_subset_frame_bound_rejects_out_of_range():
    vs = vector_system(np.eye(2))
    with pytest.raises(InvalidParameterError):
        subset_frame_bound(vs, [5])


def test_subset_frame_bound_refuses_a_repeated_index():
    # counted twice, e_1 would give 2.0 where [0] gives 1.0
    vs = vector_system(np.eye(2))
    assert subset_frame_bound(vs, [0]) == 1.0
    with pytest.raises(InvalidParameterError, match="distinct"):
        subset_frame_bound(vs, [0, 0])


def test_partition_validation():
    with pytest.raises(InvalidParameterError):
        partition(2, [0, 1, 2])
    p = partition(3, [0, 2, 1, 0])
    assert [list(q) for q in p.parts()] == [[0, 3], [2], [1]]


def test_per_part_frame_bounds_two_basis_copies():
    vs = vector_system(np.vstack([np.eye(2), np.eye(2)]))
    good = [subset_frame_bound(vs, p) for p in partition(2, [0, 0, 1, 1]).parts()]
    assert np.allclose(good, [1.0, 1.0])
    assert 2.0 - max(good) == pytest.approx(1.0)  # the slack against N = 2
    bad = [subset_frame_bound(vs, p) for p in partition(2, [0, 1, 0, 1]).parts()]
    assert max(bad) == pytest.approx(2.0)
    assert 2.0 - max(bad) == pytest.approx(0.0)


def seeded_vectors(seed, n, k, real):
    rng = make_rng(seed)
    v = rng.standard_normal((n, k))
    return v if real else v + 1j * rng.standard_normal((n, k))


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), k=st.integers(1, 5),
       real=st.booleans(), t=st.floats(1e-3, 1e3))
def test_frame_bound_scales_as_t_squared(seed, n, k, real, t):
    v = seeded_vectors(seed, n, k, real)
    fb = frame_bound(vector_system(v))
    assert frame_bound(vector_system(t * v)) == pytest.approx(t * t * fb, rel=1e-12)


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), k=st.integers(1, 5),
       real=st.booleans(), headroom=st.floats(0.0, 3.0), cap=st.floats(0.05, 2.0))
def test_complete_to_tight_frame_operator_is_N_identity(seed, n, k, real, headroom, cap):
    vs = vector_system(seeded_vectors(seed, n, k, real))
    N = frame_bound(vs) * (1.0 + headroom)
    out = complete_to_tight(vs, N, cap * N)
    # rounding of the eigensolve and of the pieces, plus residual
    # eigenvalues up to 1e-12 that complete_to_tight leaves unpadded
    err = np.max(np.abs(frame_operator(out) - N * np.eye(k)))
    assert err <= 64 * k * EPS * N + 1e-12
    assert np.array_equal(out.vectors[:n], vs.vectors)


def test_complete_to_tight_single_vector():
    vs = vector_system([[1.0, 0.0]])
    out = complete_to_tight(vs, 2.0, 1.0)
    s = frame_operator(out)
    assert np.linalg.norm(s - 2 * np.eye(2)) <= 1e-10
    # input prefix preserved
    assert np.array_equal(out.vectors[:1], vs.vectors)
    # the added vectors make up the residual B = N I - S of the input
    added = out.vectors[vs.n:]
    assert np.allclose(added.T @ added.conj(), 2 * np.eye(2) - frame_operator(vs))


def test_complete_to_tight_cap_respected():
    rng = make_rng(24)
    vs = random_system(4, 3, rng, max_norm=0.9)
    for cap in (1.0, 0.25, 0.07):
        out = complete_to_tight(vs, 2.5, cap)
        assert np.linalg.norm(frame_operator(out) - 2.5 * np.eye(3)) <= 1e-9
        added = out.vectors[vs.n:]
        if added.size:
            assert np.max(np.sum(np.abs(added) ** 2, axis=1)) <= cap * (1 + 1e-8)
        assert np.array_equal(out.vectors[:4], vs.vectors)


def test_complete_to_tight_already_tight_adds_nothing():
    vs = vector_system(np.eye(3))
    out = complete_to_tight(vs, 1.0, 1.0)
    assert out.vectors[vs.n:].shape[0] == 0
    assert out.n == 3


def test_complete_to_tight_budget_caps_the_output_count():
    vs = vector_system([[0.5, 0.0], [0.0, 0.5]])  # residual 0.75 I at N = 1
    m = complete_to_tight(vs, 1.0, 0.25).n
    assert m == 2 + 2 * 3
    assert complete_to_tight(vs, 1.0, 0.25, budget=m).n == m
    with pytest.raises(BudgetExceededError, match=f"m = {m} vectors"):
        complete_to_tight(vs, 1.0, 0.25, budget=m - 1)
    with pytest.raises(BudgetExceededError, match="m = inf vectors"):
        complete_to_tight(vs, 1.0, 1e-320, budget=10**9)  # 0.75 / cap overflows


def test_complete_to_tight_infeasible():
    vs = vector_system([[2.0, 0.0]])
    with pytest.raises(InfeasibleError):
        complete_to_tight(vs, 1.0, 1.0)


def test_unit_norm_lift_shapes_and_norms():
    rng = make_rng(25)
    vs = random_system(5, 3, rng, max_norm=0.8)
    lifted = unit_norm_lift(vs)
    assert lifted.n == 5 + 3
    assert lifted.k == 5 + 3
    assert np.max(np.abs(lifted.norms_squared() - 1.0)) <= 1e-12
    # original coordinates preserved in the head block
    assert np.allclose(lifted.vectors[:5, :3], vs.vectors)


def test_unit_norm_lift_bound_when_headroom():
    # frame_bound <= N - sqrt(N) with N >= 4 gives lifted frame bound <= N
    rng = make_rng(26)
    for trial in range(10):
        vs = random_system(6, 2, rng, max_norm=0.7)
        fb = frame_bound(vs)
        # pick N with fb <= N - sqrt(N)
        n_target = max(4.0, fb + np.sqrt(fb) + 2.0)
        while n_target - np.sqrt(n_target) < fb:
            n_target += 1.0
        lifted = unit_norm_lift(vs)
        assert frame_bound(lifted) <= n_target + 1e-9


def test_unit_norm_lift_rejects_big_vectors_and_thin_systems():
    with pytest.raises(InvalidParameterError):
        unit_norm_lift(vector_system([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidParameterError):
        unit_norm_lift(vector_system([[0.5, 0.0, 0.0]]))


def test_tight_pad_unit_identity_input():
    vs = vector_system(np.eye(3))
    out = tight_pad_unit(vs, 2)
    assert out.n == 6
    assert np.linalg.norm(frame_operator(out) - 2 * np.eye(3)) <= 1e-10
    assert np.max(np.abs(out.norms_squared() - 1.0)) <= 1e-10
    # DFT identity: sum over one period of added vectors equals B/(N-1)
    period = out.vectors[vs.n:][:3]
    s = period.T @ period.conj()
    b = 2 * np.eye(3) - frame_operator(vs)
    assert np.linalg.norm(s - b / 1.0) <= 1e-10


def test_tight_pad_unit_random_rotations():
    rng = make_rng(27)
    for trial in range(5):
        m = int(rng.integers(2, 6))
        n_level = int(rng.integers(2, 5))
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        q, _ = np.linalg.qr(g)
        vs = vector_system(q.T)  # m orthonormal rows = unit vectors
        out = tight_pad_unit(vs, n_level)
        assert out.n == m * n_level
        assert np.max(np.abs(out.norms_squared() - 1.0)) <= 1e-9
        assert np.linalg.norm(frame_operator(out) - n_level * np.eye(m)) <= 1e-9
        period = out.vectors[vs.n:][:m]
        s = period.T @ period.conj()
        b = n_level * np.eye(m) - frame_operator(vs)
        assert np.linalg.norm(s - b / (n_level - 1)) <= 1e-9
        assert np.array_equal(out.vectors[:m], vs.vectors)


def test_tight_pad_unit_validation():
    with pytest.raises(InvalidParameterError):
        tight_pad_unit(vector_system(np.eye(3)), 1)
    with pytest.raises(InvalidParameterError):
        tight_pad_unit(vector_system(0.5 * np.eye(2)), 2)
    with pytest.raises(InvalidParameterError):
        tight_pad_unit(vector_system(np.eye(3)[:2]), 2)
    with pytest.raises(InfeasibleError):
        # three copies of e_1 in C^3: frame bound 3 exceeds N = 2
        tight_pad_unit(vector_system(np.array([[1.0, 0, 0]] * 3)), 2)


def test_vector_system_validation():
    with pytest.raises(InvalidParameterError):
        vector_system(np.zeros((0, 3)))
    with pytest.raises(InvalidParameterError):
        vector_system([[np.nan, 0.0]])
