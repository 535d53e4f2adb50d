"""The matroid spanning partition answers its exchange queries from one
cached elimination per part. It is checked here against a reference that
runs one elimination per (element, part) query, kept in this file, and the
capped elimination behind it against per-column eliminations."""

import json
import re
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
    tol = engines._rank_tol(vs)
    cols = vs.vectors.T
    norms = np.sqrt(vs.norms_squared())
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
    reach, _, _, _ = search(unplaced)
    base = sorted(reach)
    d = rank(base)
    in_closure = [z in reach or rank(base + [z]) == d for z in range(n)]
    x_set = tuple(z for z in range(n) if not in_closure[z])
    return ViolatingSet(indices=x_set, complement_rank=d, r=r, k=k), queries


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
    counters = {}
    try:
        expected, queries = reference_partition(vs, r)
    except RuntimeError as exc:
        # parts judged spanning in search order but not in sorted order
        with pytest.raises(RuntimeError, match=re.escape(str(exc))):
            engines.matroid_spanning_partition(vs, r)
        return
    result = engines.matroid_spanning_partition(vs, r, counters=counters)
    assert counters["exchange_queries"] == queries
    if isinstance(expected, Partition):
        assert isinstance(result, Partition)
        assert np.array_equal(result.assignment, expected.assignment)
    else:
        assert result == expected


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
    counters = {}
    result = engines.matroid_spanning_partition(vs, 2, counters=counters)
    used = counters["exchange_queries"]
    assert used > 1 and counters["eliminations"] >= 1
    assert isinstance(result, ViolatingSet)
    assert engines.matroid_spanning_partition(vs, 2, budget=used) == result
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
