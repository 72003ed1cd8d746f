"""Step-by-step recovery for a fixed binary [8, 5] code.

This shows the paper's stacked system: rebuild the dealer's
coefficient rows through the right inverse of G, truncate them, push
them through H to get dual-code rows, and solve the stacked n x n
system.  For consistent shares recover solves the same system in an
equivalent way, with one row walk and one product; picked y values
that fit no common secret it refuses (see the lcdshare.scheme
docstring).
"""

from lcdshare import (
    LinearCode,
    deal,
    make_ring,
    matrix,
    recover,
    right_inverse,
    select_independent_rows,
    solve_unique,
    stack_rows,
    vector,
)

f2 = make_ring(2, 1)
code = LinearCode(
    ring=f2,
    n=8,
    k=5,
    G=matrix(f2, [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
    ]),
    H=matrix(f2, [
        [0, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 1, 0, 1, 0],
        [0, 0, 1, 0, 1, 0, 0, 1],
    ]),
)
secret = vector(f2, [1, 1, 0, 0, 0, 0, 0, 0])

coefficient_rows = [
    [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1], [1, 1, 0, 0, 0], [1, 0, 1, 0, 0], [1, 0, 0, 1, 0],
    [1, 0, 0, 0, 1], [0, 1, 1, 0, 0],
]
shares, _ = deal(
    code, secret, count=10, seed=0,
    coefficients=[vector(f2, row) for row in coefficient_rows],
)

print(f"[{code.n}, {code.k}] binary code, secret {secret.tolist()}")
available = [shares[i - 1] for i in (1, 3, 4, 6, 9)]
print(f"participants present: {[s.id for s in available]}")

print("\nstep 1: their codewords are independent (k of them suffice)")
c_matrix = stack_rows([s.c for s in available])
picked = select_independent_rows(c_matrix, code.k)
print(f"  picked share ids {[available[i].id for i in picked]}")

print("\nstep 2: rebuild each dealer coefficient row as c @ G^+")
g_inv = right_inverse(code.G)
l_rows = stack_rows([s.c @ g_inv for s in available])
for s, l in zip(available, l_rows.tolist()):
    print(f"  share {s.id}: l = {l}")

print("\nstep 3: keep the first n-k coordinates, map through H")
truncated = l_rows.take_cols(range(code.n - code.k))
dual_picks = select_independent_rows(truncated, code.n - code.k)
print(f"  independent truncated rows come from ids "
      f"{[available[i].id for i in dual_picks]}")
for i in dual_picks:
    print(f"  id {available[i].id}: c'' = {(truncated.row(i) @ code.H).tolist()}")

print("\nstep 4: stack k codeword equations and n-k dual equations")
equations = [available[i].c for i in picked]
values = [available[i].x for i in picked]
for j in dual_picks:
    equations.append(truncated.row(j) @ code.H)
    values.append(available[j].y)
system = stack_rows(equations)
rhs = vector(f2, values)
print(f"  system is {system.shape}, right side {rhs.tolist()}")

print("\nstep 5: one unique solve gives back the whole secret")
print(f"  solved:  {solve_unique(system, rhs).tolist()}")
print(f"  recover: {recover(code, available).tolist()} (the packaged one-call path)")
