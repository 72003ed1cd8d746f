"""Building linear codes and testing the complementary-dual property.

A code C is LCD when it meets its dual code only in the zero word.
Operationally that is exactly what makes secret recovery work: the
generator rows and the parity rows together must span the whole space.
"""

from lcdshare import (
    dual,
    encode,
    is_codeword,
    is_lcd,
    make_ring,
    matrix,
    parity_check_from_generator,
    random_lcd_code,
    stack_rows,
    unit_rank,
    vector,
)

ring = make_ring(2, 2)

print("derive a parity check from a generator in standard form:")
code = parity_check_from_generator(matrix(ring, [[1, 0, 1, 2], [0, 1, 3, 1]]))
print(f"  G = {code.G.tolist()}")
print(f"  H = {code.H.tolist()}")
print(f"  G @ H^T = {(code.G @ code.H.T).tolist()}")

print("\nencoding is coefficient row times G:")
l = vector(ring, [2, 3])
c = encode(code, l)
print(f"  l = {l.tolist()} -> c = {c.tolist()}, codeword? {is_codeword(code, c)}")
probe = vector(ring, [1, 0, 0, 0])
print(f"  probe {probe.tolist()} codeword? {is_codeword(code, probe)}")

print("\nLCD check = the stacked (G over H) matrix is invertible:")
stacked = stack_rows([code.G, code.H])
print(f"  unit rank of the {stacked.shape} stack: {unit_rank(stacked)} (n = {code.n})")
print(f"  is_lcd: {is_lcd(code)}")

print("\na classic non-LCD code (the binary repetition code):")
f2 = make_ring(2, 1)
rep = parity_check_from_generator(matrix(f2, [[1, 1]]))
print(f"  G = {rep.G.tolist()}, H = {rep.H.tolist()}")
print(f"  is_lcd: {is_lcd(rep)} (the code is its own dual, the worst case)")

print("\nthe dual code just swaps the two roles:")
d = dual(code)
print(f"  dual is an [{d.n}, {d.k}] code with G = {d.G.tolist()}")
print(f"  dual of the dual is the original again: {dual(d) == code}")

print("\nrandom LCD codes are rejection-sampled deterministically:")
for seed in [0, 1, 2]:
    rnd = random_lcd_code(make_ring(3, 2), n=6, k=3, seed=seed)
    print(f"  seed {seed}: G row 0 = {rnd.G.row(0).tolist()}, LCD = {is_lcd(rnd)}")
again = random_lcd_code(make_ring(3, 2), n=6, k=3, seed=0)
first = random_lcd_code(make_ring(3, 2), n=6, k=3, seed=0)
print(f"  seed 0 twice gives identical codes: {again == first}")
