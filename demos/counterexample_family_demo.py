"""Walk through the sharp counterexample family.

For each k the script builds the k-1 vectors, checks the closed forms
(frame bound (k-1)^2/(2k-3), subset-sum distance from e_k/2, signed-norm
floor 1/(delta*sqrt(k-1))), and shows the sqrt(k)/2 growth that rules out
any constant bound on signed operator discrepancy of trace-norm-one PSD
matrices.

Run: python3 demos/counterexample_family_demo.py
"""

import math

import numpy as np

from framedisc import (
    counterexample_vectors,
    exhaustive_sign_search,
    frame_bound,
    rank_one,
    signed_norm_lower_bound,
    subset_center_distance,
    verify_counterexample,
)

print("=== the family at k = 5 ===")
inst = counterexample_vectors(5)
print(f"alpha = {inst.alpha}, beta = {inst.beta}, delta = {inst.delta}, N = {inst.N}")
print("first primed vector:", np.real(inst.primed.vectors[0]))
print(f"normalized frame bound = {frame_bound(inst.normalized):.15f}  (16/7 = {16 / 7:.15f})")

print("\nsubset distances from e_k/2 depend only on the subset size:")
for c in range(5):
    direct, closed = subset_center_distance(inst, list(range(c)))
    print(f"  |X| = {c}: direct = {direct:.12f}, closed form = {closed:.12f}")

print("\nexhaustive signed minimum vs the proven floor:")
for k in (5, 8, 11):
    fam = counterexample_vectors(k)
    min_norm = exhaustive_sign_search(fam.normalized).value
    floor = signed_norm_lower_bound(k)
    print(f"  k = {k:2d}: min over signs = {min_norm:.10f} >= floor {floor:.10f}")

print("\nOmega(sqrt(k)) growth of the floor:")
for k in (25, 100, 400):
    lb = signed_norm_lower_bound(k)
    print(f"  k = {k:4d}: floor = {lb:8.4f}, floor/sqrt(k) = {lb / math.sqrt(k):.4f}")

mats = [rank_one(v) for v in counterexample_vectors(100).normalized.vectors]
print(f"\ntrace-ball witness at k = 100: {len(mats)} trace-norm-one matrices, "
      f"every signed sum has operator norm >= {signed_norm_lower_bound(100):.4f}")

report = verify_counterexample(counterexample_vectors(6))
print(f"\nself-checking report (k = 6): passed = {report.passed}")
for c in report.claims:
    print(f"  {c.name}: computed {c.computed:.3e} vs bound {c.bound:.3e} [{c.relation}]")
