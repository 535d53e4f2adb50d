"""Tight-frame completions.

Any system with frame bound <= N pads out to an exactly tight one (frame
operator N*I), with a per-vector norm cap; unit-vector systems in C^m pad to
m*N unit vectors via discrete-Fourier phases across the residual eigenbasis.

Run: python3 demos/tight_completion_demo.py
"""

import numpy as np

from framedisc import (
    complete_to_tight,
    frame_bound,
    frame_operator,
    make_rng,
    tight_pad_unit,
    unit_norm_lift,
    vector_system,
)

rng = make_rng(7)

print("=== general completion with a norm cap ===")
g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
vs = vector_system(g / (2 * np.linalg.norm(g, axis=1, keepdims=True)))
print(f"start: {vs.n} vectors in C^{vs.k}, frame bound {frame_bound(vs):.4f}")
for cap in (1.0, 0.3, 0.05):
    out = complete_to_tight(vs, 2.0, cap)
    res = np.linalg.norm(frame_operator(out) - 2.0 * np.eye(3))
    added = out.vectors[vs.n:]
    added_max = np.max(np.sum(np.abs(added) ** 2, axis=1)) if added.size else 0.0
    print(f"  cap {cap:4.2f}: added {added.shape[0]:3d} vectors, "
          f"max added norm^2 = {added_max:.4f}, ||S - 2I||_F = {res:.2e}")

print("\n=== unit-vector padding via DFT phases ===")
q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
unit = vector_system(q.T)
out = tight_pad_unit(unit, 3)
print(f"4 unit vectors in C^4 padded to {out.n} unit vectors, N = 3")
print(f"||S - 3I||_F = {np.linalg.norm(frame_operator(out) - 3 * np.eye(4)):.2e}")
print(f"max | ||u_s||^2 - 1 | = {np.max(np.abs(out.norms_squared() - 1.0)):.2e}")
period = out.vectors[4:8]  # the first of the N - 1 = 2 copies of the u_s
residual = 3 * np.eye(4) - frame_operator(unit)
ident = np.linalg.norm(period.T @ period.conj() - residual / 2)
print(f"one DFT period reproduces B/(N-1): residual {ident:.2e}")

print("\n=== lifting general vectors to unit vectors first ===")
small = vector_system(vs.vectors * 0.6)
lifted = unit_norm_lift(small, 9.0)
print(f"{small.n} vectors in C^{small.k} -> {lifted.n} unit vectors in C^{lifted.k}, "
      f"frame bound {frame_bound(lifted):.4f} <= 9")
