"""The Fermat quartic with a three-cycle: a K3 surface in disguise.

Walks through the full pipeline on W = x1^4 + x2^4 + x3^4 + x4^4 with the
group generated by the grading element j = (1/4, 1/4, 1/4, 1/4) and the
cyclic permutation (123): symmetry groups, the non-abelian dual group, both
state spaces, the mirror pairing on the untwisted/narrow corners, and the
Hodge diamond (which comes out as the K3 diamond).

Run:  python3 demos/01_quartic_k3.py
"""

import lgmirror as lg

W = lg.parse_polynomial("x1^4 + x2^4 + x3^4 + x4^4")
print(f"W = {W}")
print(f"weights: {', '.join(str(q) for q in W.weights)}")
print(f"dual polynomial: {W.transpose()}  (self-dual)")
print()

# --- the symmetry group ------------------------------------------------------

j = lg.exponential_grading(W)
cycle = lg.parse_generator("(1 2 3)", W)
G = lg.closure([j, cycle])
print(f"G = <j, (1 2 3)> has order {G.order} and is "
      f"{'abelian' if G.is_abelian else 'non-abelian'}")
print(f"the diagonal symmetries form a group of order "
      f"{lg.diagonal_group(W).order}, with determinant-one part of order "
      f"{sum(g.det_phase() == 0 for g in lg.diagonal_group(W))}")
print()

# --- the dual group ----------------------------------------------------------

parts = lg.decompose_hk(G, W)
print(f"G = H·K with |H| = {parts.h.order} (diagonal) and |K| = {parts.k.order} "
      f"(pure even permutations)")
H_dual = lg.dual_group(parts.h, W)
print(f"H^T has order {H_dual.order} "
      f"(= the determinant-one diagonal symmetries)")
G_star = lg.nonabelian_dual(G, W)
print(f"G* = H^T·K has order {G_star.order} and is "
      f"{'abelian' if G_star.is_abelian else 'non-abelian'}")

a = lg.parse_generator("diag(1/2, 1/4, 1/4, 0)*(1 2 3)", W)
b = lg.parse_generator("diag(1/2, 1/4, 1/4, 0)*(1 3 2)", W)
print(f"witness of non-commutativity inside G*:")
print(f"  {a.label()} · {b.label()} = {(a * b).label()}")
print(f"  {b.label()} · {a.label()} = {(b * a).label()}")
print()

# --- the two state spaces ----------------------------------------------------

A = lg.a_state_space(W, G)
print(f"A-model of (W, G): dimension {A.total_dim}")
for vector in A.basis:
    p, q = vector.bidegree
    print(f"  ({p}, {q})  {lg.vector_label(vector, W)}")
print()

B = lg.b_state_space(W.transpose(), G_star)
print(f"B-model of (W^T, G*): dimension {B.total_dim}")
census = B.census()
print(f"  untwisted broad: {census['untwisted_broad']}, "
      f"twisted broad: {sum(census['twisted_broad'].values())}, "
      f"narrow diagonal classes: {census['narrow_diagonal']}, "
      f"narrow non-diagonal classes: {census['narrow_nondiagonal']}")
sizes = sorted({len(c) for c in G_star.conjugacy_classes()})
print(f"  conjugacy class sizes in G*: {sizes}")
print()

# --- the mirror map ----------------------------------------------------------

report = lg.full_comparison(W, G)
print(f"verdict: {report.verdict.value}  "
      f"(parity condition {'holds' if report.pc_holds else 'fails'})")
print()
print("the untwisted broad A-vectors pair with narrow diagonal B-class sums:")
for va, vb in report.restricted.a0_to_narrow:
    print(f"  {lg.vector_label(va, W)}")
    print(f"    <->  {lg.vector_label(vb, W)}")
print()
print("Hodge diamond (both sides):")
print(lg.HodgeDiamond(A).render())
