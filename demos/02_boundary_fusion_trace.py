"""
Boundary fusion, traced by hand
===============================

Three chunks with scalar boundaries make every averaging step visible.
Chunk i contributes a left boundary and a right boundary; its backward
context averages the left boundary with every boundary before it, and
its forward context mirrors that over the chunks after it.
"""

import numpy as np

from chunkfuse import contexts, fuse

# (chunks, boundary rows, width): one scalar boundary per side and chunk
lefts = np.array([1.0, 3.0, 5.0]).reshape(3, 1, 1)
rights = np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1)
back, fwd = contexts(lefts, rights)

print("chunk   left  right")
for i in range(3):
    print(f"{i + 1:>5}   {lefts[i][0, 0]:>4}  {rights[i][0, 0]:>5}")

print("\nbackward context (own left averaged with all earlier boundaries):")
print("  chunk 1: just its left boundary ->", back[0, 0, 0])
print("  chunk 2: (3 + 1 + 2) / 3        ->", back[1, 0, 0])
print("  chunk 3: (5 + 1+2+3+4) / 5      ->", back[2, 0, 0])

print("\nforward context (own right averaged with all later boundaries):")
print("  chunk 1: (2 + 3+4+5+6) / 5      ->", fwd[0, 0, 0])
print("  chunk 2: (4 + 5 + 6) / 3        ->", fwd[1, 0, 0])
print("  chunk 3: just its right boundary ->", fwd[2, 0, 0])

# a 50/50 blend of local boundary and directional context
fused_lefts, _ = fuse(lefts, rights, alpha=0.5)
print("\nfused left boundaries at alpha = 0.5:")
for i in range(3):
    print(f"  chunk {i + 1}: 0.5*{lefts[i][0, 0]} + 0.5*ctx ->",
          fused_lefts[i, 0, 0])

print("\nalpha = 1 keeps boundaries local; alpha = 0 uses pure context:")
print("  alpha=1, chunk 2 left:", fuse(lefts, rights, 1.0)[0][1, 0, 0])
print("  alpha=0, chunk 2 left:", fuse(lefts, rights, 0.0)[0][1, 0, 0])
