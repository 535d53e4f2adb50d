"""The matroid spanning partition answers its exchange queries from one
cached elimination per part. It is checked here against a reference that
runs one elimination per (element, part) query, kept in this file, and the
capped elimination behind it against per-column eliminations. The
elimination's in-place row update is pinned bitwise to the masked update
it replaced, also kept here."""

import json
import re
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import BudgetExceededError, Partition, ViolatingSet, vector_system
from framedisc import engines
from framedisc.cli import EXIT_BUDGET, EXIT_PASS, EXIT_USAGE, main
from framedisc.frames import partition
from framedisc.reports import canonical_json
from framedisc.rng import make_rng
from framedisc.serialize import system_to_dict

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=200)
KINDS = ("general", "low-rank", "repeated", "zero", "near-duplicate")


def reference_partition(vs, r):
    """Matroid union augmentation with one elimination of [members | v_z]
    per exchange query: (result, queries)."""
    n, k = vs.n, vs.k
    cols, norms, tol = engines._rank_columns(vs)
    queries = 0

    def rank(idxs):
        return len(engines._row_reduce(cols[:, idxs], tol)[1])

    parts = [set() for _ in range(r)]
    placed = {}

    def search(sources):
        nonlocal queries
        parent = dict.fromkeys(sources)
        label = {}
        queue = deque(sources)
        while queue:
            z = queue.popleft()
            for j in range(r):
                if z in parts[j]:
                    continue
                queries += 1
                members = list(parts[j])
                red, pivots = engines._row_reduce(cols[:, members + [z]], tol)
                if pivots and pivots[-1] == len(members):
                    return parent, label, z, j
                coords = {members[col]: red[row, -1] for row, col in enumerate(pivots)}
                for y in members:
                    if y not in parent and abs(coords.get(y, 0.0)) * norms[y] > tol:
                        parent[y] = z
                        label[y] = j
                        queue.append(y)
        return parent, label, None, None

    unplaced = []
    for x in range(n):
        if len(placed) == r * k:
            break
        parent, label, cur, j = search([x])
        if cur is None:
            unplaced.append(x)
            continue
        parts[j].add(cur)
        placed[cur] = j
        while parent[cur] is not None:
            prev = parent[cur]
            j = label[cur]
            parts[j].remove(cur)
            parts[j].add(prev)
            placed[prev] = j
            cur = prev

    if len(placed) == r * k:
        assignment = np.zeros(n, dtype=np.int64)
        for elem, j in placed.items():
            assignment[elem] = j
        if any(rank(sorted(part_set)) != k for part_set in parts):
            raise RuntimeError("internal error: assembled part does not span C^k")
        return partition(r, assignment), queries
    reach, _, sink, _ = search(unplaced)
    if sink is not None:  # the engine's check: no unplaced element is insertable
        raise RuntimeError("internal error: an unplaced element became insertable")
    base = sorted(reach)
    d = rank(base)
    in_closure = [z in reach or rank(base + [z]) == d for z in range(n)]
    x_set = tuple(z for z in range(n) if not in_closure[z])
    return ViolatingSet(indices=x_set, complement_rank=d), queries


def matroid_input(seed, kind, n, k):
    """n vectors in C^k of the given kind, drawn from the seed."""
    rng = make_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "general":
        return gauss(n, k)
    if kind == "low-rank":
        d = int(rng.integers(1, k + 1))
        return gauss(n, d) @ gauss(d, k)
    if kind == "repeated":
        return np.eye(k)[rng.integers(0, k, size=n)] * rng.choice([1.0, -2.0, 0.5, 1j], size=(n, 1))
    if kind == "zero":
        v = gauss(n, k)
        v[rng.random(n) < 0.4] = 0.0
        return v
    # near-duplicates of a few vectors, some perturbed close to the rank tolerance
    base = gauss(int(rng.integers(1, k + 2)), k)
    scale = rng.choice([1e-3, 1e-8, 1e-10, 1e-11, 0.0], size=(n, 1))
    return base[rng.integers(0, base.shape[0], size=n)] + scale * gauss(n, k)


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS), r=st.integers(2, 4),
       k=st.integers(1, 5), n=st.integers(1, 14))
def test_cached_tables_match_per_query_reference(seed, kind, r, k, n):
    vs = vector_system(matroid_input(seed, kind, n, k))
    try:
        expected, queries = reference_partition(vs, r)
    except RuntimeError as exc:
        # parts judged spanning in search order but not in sorted order, or
        # an unplaced element judged insertable by the final search
        with pytest.raises(RuntimeError, match=re.escape(str(exc))):
            engines.matroid_spanning_partition(vs, r)
        return
    out = engines.matroid_spanning_partition(vs, r)
    result = out.witness
    assert out.counters["exchange_queries"] == queries and out.exact
    if isinstance(expected, Partition):
        assert isinstance(result, Partition)
        assert np.array_equal(result.assignment, expected.assignment)
    else:
        assert result == expected


def reference_row_reduce(m, tol, ncols=None):
    """Gauss-Jordan elimination as engines._row_reduce did it before its
    in-place update: every pivot copies the non-pivot rows out through a
    mask and writes them back less an outer product with the pivot row."""
    m = np.array(m, dtype=np.result_type(m, np.float64))
    rows, cols = m.shape
    pivots = []
    for col in range(cols if ncols is None else ncols):
        row = len(pivots)
        if row >= rows:
            break
        p = int(np.argmax(np.abs(m[row:, col]))) + row
        if abs(m[p, col]) <= tol:
            continue
        m[[row, p]] = m[[p, row]]
        m[row] /= m[row, col]
        others = np.arange(rows) != row
        m[others] -= np.outer(m[others, col], m[row])
        pivots.append(col)
    return m, pivots


TABLES = ("general", "rank-deficient", "duplicated", "integer")


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(TABLES), real=st.booleans(),
       rows=st.integers(1, 8), cols=st.integers(0, 14),
       ncols=st.sampled_from(["all", "partial", "zero"]),
       tol=st.sampled_from([0.0, 1e-10, 0.3, 1.5]))
def test_in_place_elimination_is_bitwise_the_masked_one(seed, kind, real, rows, cols,
                                                        ncols, tol):
    rng = make_rng(seed)

    def draw(*shape):
        g = rng.standard_normal(shape)
        return g if real else g + 1j * rng.standard_normal(shape)

    if kind == "general":
        m = draw(rows, cols)
    elif kind == "rank-deficient":
        d = int(rng.integers(1, rows + 1))
        m = draw(rows, d) @ draw(d, cols)
    elif kind == "duplicated":
        base = draw(rows, max(1, cols // 3))
        m = base[:, rng.integers(0, base.shape[1], size=cols)] * rng.choice([1.0, -1.0, 0.5], cols)
    else:  # small integers: exact cancellations, signed zeros and pivot ties
        m = rng.integers(-2, 3, size=(rows, cols)).astype(float)
        if not real:
            m = m + 1j * rng.integers(-2, 3, size=(rows, cols))
    cap = {"all": None, "partial": cols // 2, "zero": 0}[ncols]
    red, pivots = engines._row_reduce(m, tol, cap)
    want, want_pivots = reference_row_reduce(m, tol, cap)
    assert pivots == want_pivots
    assert red.dtype == want.dtype and red.shape == want.shape
    red, want = (np.ascontiguousarray(a).view(np.float64) for a in (red, want))
    assert np.array_equal(red, want)
    assert np.array_equal(np.signbit(red), np.signbit(want))
    if ncols == "zero":
        assert pivots == []


@pytest.mark.parametrize("real", [False, True])
def test_capped_elimination_columns_match_per_column_eliminations(real):
    # unit vectors like the benchmark's feasible input, members drawn at random
    rng = make_rng(61)
    v = rng.standard_normal((45, 8)) + (0 if real else 1j) * rng.standard_normal((45, 8))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    cols = v.T
    tol = 1e-10
    checked = joins = 0
    for m in (0, 3, 7, 8, 12):
        members = [int(i) for i in rng.permutation(45)[:m]]
        red, pivots = engines._row_reduce(cols[:, members + list(range(45))], tol, m)
        for z in range(45):
            alone, alone_pivots = engines._row_reduce(cols[:, members + [z]], tol)
            column = red[:, m + z]
            if alone_pivots[-1:] == [m]:  # z raises the rank of the members
                joins += 1
                assert alone_pivots[:-1] == pivots
                assert np.any(np.abs(column[len(pivots):]) > tol)
            else:
                assert alone_pivots == pivots
                assert not np.any(np.abs(column[len(pivots):]) > tol)
                assert np.array_equal(column, alone[:, -1])  # bitwise
            checked += 1
    assert checked == 225 and 0 < joins < checked


def test_budget_caps_exchange_queries():
    vs = vector_system(matroid_input(7, "low-rank", 12, 4))
    out = engines.matroid_spanning_partition(vs, 2)
    used = out.counters["exchange_queries"]
    assert used > 1 and out.counters["eliminations"] >= 1
    assert isinstance(out.witness, ViolatingSet)
    assert engines.matroid_spanning_partition(vs, 2, budget=used) == out
    with pytest.raises(BudgetExceededError):
        engines.matroid_spanning_partition(vs, 2, budget=used - 1)


def test_search_matroid_budget_boundary(tmp_path, capsys):
    rng = make_rng(62)
    flat = (rng.standard_normal((14, 2)) + 1j * rng.standard_normal((14, 2))) \
        @ (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
    v = np.vstack([flat, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))])
    src = tmp_path / "sys.json"
    src.write_text(canonical_json(system_to_dict(vector_system(v))) + "\n")
    argv = ["search", "--kind", "matroid", "--input", str(src), "--r", "2"]
    assert main(argv) == EXIT_PASS
    extra = json.loads(capsys.readouterr().out)["extra"]
    assert extra["feasible"] is False
    used = extra["exchange_queries"]
    assert used > 1 and extra["eliminations"] < used
    assert main(argv + ["--budget", str(used)]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["extra"]["exchange_queries"] == used
    assert main(argv + ["--budget", str(used - 1)]) == EXIT_BUDGET
    assert "exchange queries" in capsys.readouterr().err
    assert main(argv + ["--budget", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("scale", [1e160, 1e300, 1.7e308, 1e-160, 1e-300, 1e-310])
def test_search_matroid_decides_the_same_at_any_scale(tmp_path, capsys, scale):
    # the rank tests run on the vectors scaled by a power of two, so their
    # norms and tolerance neither overflow (an infinite tolerance judged
    # every vector dependent and returned an empty violating set) nor sink
    # below the tolerance's floor; the decision is the unit-scale one
    rng = make_rng(63)
    v = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    reports = []
    for factor in (1.0, scale):
        src = tmp_path / "sys.json"
        src.write_text(canonical_json(system_to_dict(vector_system(v * factor))) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["search", "--kind", "matroid", "--input", str(src), "--r", "2"]) == (
                EXIT_PASS)
        out, err = capsys.readouterr()
        assert "Warning" not in err
        reports.append(json.loads(out)["extra"])
    assert reports[0]["feasible"] is True
    assert reports[1] == reports[0]


def test_rank_columns_scale_by_a_power_of_two():
    # exact scaling: the columns, norms and tolerance of a unit-scale input
    # and of the same input times 2^40 are the same bits
    v = matroid_input(5, "general", 9, 4)
    cols, norms, tol = engines._rank_columns(vector_system(v))
    big = engines._rank_columns(vector_system(v * 2.0 ** 40))
    assert np.array_equal(cols, big[0]) and np.array_equal(norms, big[1]) and tol == big[2]
    assert 0.5 <= np.max(np.abs(np.ascontiguousarray(cols).view(np.float64))) < 1.0
    zero = engines._rank_columns(vector_system(np.zeros((3, 2))))
    assert zero[2] == 1e-10 * 1e-30 and not zero[0].any()
