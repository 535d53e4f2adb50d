"""Constructive discrepancy engines side by side.

Beck-Fiala rounding (l-inf discrepancy <= 2 on coordinate profiles),
exhaustive Gray-code sign search, the partition branch and bound run whole
and on a node budget, with the floor that bounds every partition,
matroid spanning partitions with counting certificates, and the Gaussian
balancing search inside operator radius 5R.

Run: python3 demos/discrepancy_search_demo.py
"""

import numpy as np

from framedisc import (
    Partition,
    banaszczyk_sign_search,
    beck_fiala_signs,
    coordinate_profile,
    exhaustive_partition_search,
    exhaustive_sign_search,
    gaussian_median_radius,
    make_rng,
    matroid_spanning_partition,
    opnorm,
    partition_floor,
    rank_one,
    vector_system,
)

rng = make_rng(99)


def unit_rows(n, k):
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


print("=== Beck-Fiala rounding ===")
vs = vector_system(unit_rows(20, 8))
prof = coordinate_profile(vs)
signs = beck_fiala_signs(prof)
print(f"20 unit vectors in C^8: l-inf discrepancy of the signed profile = "
      f"{np.max(np.abs(prof.T @ signs)):.4f} (guarantee: 2)")

print("\n=== exhaustive sign search ===")
vs = vector_system(unit_rows(10, 2))
found = exhaustive_sign_search(vs)
print(f"10 unit vectors in C^2: min over 2^9 sign patterns of ||sum s_i A_i|| = "
      f"{found.value:.6f}")
print(f"witness signs: {found.witness.tolist()}")

print("\n=== partition search: the whole walk vs a node budget ===")
vs = vector_system(unit_rows(14, 3))
whole = exhaustive_partition_search(vs, 3)
print(f"14 unit vectors in C^3, r = 3: floor max(||S||/r, max ||v_i||^2) = "
      f"{partition_floor(vs, 3):.6f}")
print(f"whole walk   min-max part bound = {whole.value:.6f} "
      f"(exact: {whole.exact}, {whole.counters['nodes_visited']} nodes)")
early = exhaustive_partition_search(vs, 3, budget=300)
print(f"300 nodes    min-max part bound = {early.value:.6f} "
      f"(exact: {early.exact}: the best partition found so far; the optimum lies between "
      f"the floor and it)")

print("\n=== matroid spanning partition ===")
three_bases = np.vstack([np.linalg.qr(rng.standard_normal((3, 3))
                                      + 1j * rng.standard_normal((3, 3)))[0] for _ in range(3)])
result = matroid_spanning_partition(vector_system(three_bases), 3).witness
assert isinstance(result, Partition)
print(f"9 vectors from 3 rotated bases of C^3 split into 3 spanning parts: "
      f"{[sorted(map(int, p)) for p in result.parts()]}")

deficient = vector_system(np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=float))
cert = matroid_spanning_partition(deficient, 2).witness
print(f"deficient family: violating set X (0-based) = {cert.indices}, complement rank d = "
      f"{cert.complement_rank}; r(k-d) = {2 * (deficient.k - cert.complement_rank)} > |X| = "
      f"{len(cert.indices)}")

print("\n=== Gaussian balancing inside radius 5R ===")
ctx = gaussian_median_radius(2, samples=100_000, seed=0)
print(f"k = 2: empirical median operator norm R = {ctx.R_hat:.4f}, ball radius M = 5R = {ctx.M:.4f}")
mats = [rank_one(v) / 5.0 for v in unit_rows(12, 2)]
found = banaszczyk_sign_search(mats, M=ctx.M, seed=0)
signed = sum(s * m for s, m in zip(found.witness, mats))
print(f"12 matrices of HS norm 1/5: found signs with ||sum s_i B_i|| = {opnorm(signed):.4f} <= M")
