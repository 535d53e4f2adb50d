"""The two-way bridge between small-diagonal projections and vector systems.

A rank-k projection P in C^n with max diagonal entry delta(P) <= 1/N turns
into n vectors of norm <= 1 with frame bound exactly N; conversely a bounded
vector system shrinks, completes to a Parseval-type family, and its Gram
matrix is again a projection whose zero-diagonal part A = P - D is the
paving-problem test matrix with ||A|| <= 1 + 1/N.

Run: python3 demos/projection_bridge_demo.py
"""

import numpy as np

from framedisc import (
    diagonal_delta,
    frame_bound,
    is_projection,
    make_rng,
    opnorm,
    partition,
    paving_quality,
    projection_to_vectors,
    random_projection,
    vectors_to_projection,
)

rng = make_rng(2024)
N = 2.0

print("=== forward: projection -> vectors ===")
p = random_projection(3, 10, 1.0 / N, rng)
print(f"sampled rank-3 projection in C^10 with delta(P) = {diagonal_delta(p):.4f} <= 1/N = {1 / N}")
vs = projection_to_vectors(p, N)
print(f"got {vs.n} vectors in C^{vs.k}; max norm^2 = {np.max(vs.norms_squared()):.12f}")
print(f"frame bound = {frame_bound(vs):.12f}  (target N = {N})")
gram = vs.vectors.conj() @ vs.vectors.T
print(f"Gram check max |<v_i,v_j> - N P[i][j]| = {np.max(np.abs(gram - N * p)):.3e}")

print("\n=== converse: vectors -> projection ===")
trace = vectors_to_projection(vs, N)
print(f"completed to m = {trace.w.n} vectors; Gram matrix is a projection: "
      f"{is_projection(trace.P, 1e-8)}")
print(f"delta(P) = {diagonal_delta(trace.P):.6f} <= 1/N = {1 / N}")
print(f"zero-diagonal part: ||A|| = {opnorm(trace.A):.6f} <= 1 + 1/N = {1 + 1 / N}")

print("\n=== paving the test matrix ===")
half = partition(2, np.arange(trace.w.n) % 2)
print(f"alternating 2-paving quality max_j ||Q_j A Q_j|| = "
      f"{paving_quality(trace.A, half):.6f} (vs ||A|| = {opnorm(trace.A):.6f})")
