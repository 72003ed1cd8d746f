"""Tour of the exact linear algebra layer.

Everything happens over Z_{p^e}, where an element is either a unit or
nilpotent.  That split decides which entries can serve as pivots, and
through that, what "rank" means here.
"""

from lcdshare import (
    RMatrix,
    left_null_vector,
    make_ring,
    matrix,
    right_inverse,
    solve_unique,
    unit_rank,
    vector,
)
from lcdshare.errors import NotAUnit, Singular

ring = make_ring(2, 2)
print(f"working in {ring} (label {ring.label}, modulus {ring.m})")

print("\nelement classification:")
for a in range(ring.m):
    if ring.is_unit(a):
        print(f"  {a}: unit, inverse {ring.inverse(a)}")
    else:
        print(f"  {a}: nilpotent ({a}^{ring.e} = {pow(a, ring.e, ring.m)} mod {ring.m})")

try:
    ring.inverse(2)
except NotAUnit as exc:
    print(f"inverting a nilpotent fails: {exc}")

print("\nunit rank only counts pivots that are units:")
traps = matrix(ring, [[2, 0], [0, 2]])
print(f"  {traps.tolist()} has unit rank {unit_rank(traps)} "
      "(it is nonzero, yet no entry can be a pivot)")
mixed = matrix(ring, [[1, 2], [2, 2]])
print(f"  {mixed.tolist()} has unit rank {unit_rank(mixed)}")

print("\na full-row-rank rectangular matrix has a right inverse:")
wide = matrix(ring, [[1, 2, 0], [0, 3, 1]])
inv = right_inverse(wide)
print(f"  M      = {wide.tolist()}")
print(f"  N      = {inv.tolist()}")
print(f"  M @ N  = {(wide @ inv).tolist()}")

print("\nsquare invertible systems solve uniquely:")
a = matrix(ring, [[1, 2], [3, 1]])
x = vector(ring, [3, 2])
b = a @ x
print(f"  A = {a.tolist()}, b = {b.tolist()}")
print(f"  solve_unique(A, b) = {solve_unique(a, b).tolist()} (planted x = {x.tolist()})")

print("\nsingular systems refuse instead of guessing:")
try:
    solve_unique(matrix(ring, [[2, 0], [0, 2]]), vector(ring, [2, 0]))
except Singular as exc:
    print(f"  {exc}")
print("  (two solutions would exist there; a unique solver must not pick one)")

print("\nrank-deficient matrices come with a checkable witness:")
tall = matrix(ring, [[1, 2], [3, 0], [0, 2]])
w = left_null_vector(tall)
print(f"  M = {tall.tolist()}")
print(f"  w = {w.tolist()}, w @ M = {(w @ tall).tolist()}")

print("\nidentity sanity check:", RMatrix.identity(ring, 3).tolist())
