"""Certifying subset frame bounds without the eigensolver.

A branch and bound over boxes in Hopf coordinates brackets
sup_u sum_{i in X} |<u, v_i>|^2 between the best box centre's value and
that value plus a chosen gap; net-check uses the gap 2N * epsilon/(4N).
Every box bound is proved, so the bracket holds at every k; the
eigenvalue oracle is printed only to compare.

Run: python3 demos/net_certification_demo.py
"""

import numpy as np

from framedisc import certified_subset_bound, make_rng, subset_frame_bound, vector_system

rng = make_rng(314)
N = 2.0
epsilon = 0.1
gap = 2 * N * epsilon / (4 * N)


def unit_rows(n, k):
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return vector_system(g / np.linalg.norm(g, axis=1, keepdims=True))


for k, n, subsets in ((2, 6, ([0, 1, 2], [3, 4], list(range(6)))),
                      (3, 9, ([0, 1, 2, 3], list(range(9))))):
    vs = unit_rows(n, k)
    print(f"k = {k}, gap {gap}:")
    for subset in subsets:
        lower, upper, evaluations, _ = certified_subset_bound(vs, subset, gap)
        oracle = subset_frame_bound(vs, subset)
        print(f"  subset {subset}: {lower:.6f} <= oracle {oracle:.6f} <= {upper:.6f} "
              f"({evaluations} box centres scored)")

lower, upper, evaluations, _ = certified_subset_bound(vector_system(np.eye(3)), range(3), gap)
print(f"tight frame I_3: {lower:.6f} <= 1 <= {upper:.6f} ({evaluations} box centre scored)")
