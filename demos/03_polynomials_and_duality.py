"""Invertible polynomials and group duality, piece by piece.

Shows the atomic classification (Fermat / chain / loop), exact weights,
transposition, diagonal symmetry groups, ages and fixed loci, and the
dual-group machinery: the dual of <j> is the determinant-one diagonal
group, double duals return the original subgroup, and orders multiply to
det A_W.

Run:  python3 demos/03_polynomials_and_duality.py
"""

from fractions import Fraction

import lgmirror as lg

samples = [
    "x1^4 + x2^4 + x3^4 + x4^4",
    "x1^3*x2 + x2^2*x3 + x3^2",
    "x1^2*x2 + x2^2*x3 + x3^2*x1",
    "x1^4 + x2^3*x3 + x3^3 + x4^2*x5 + x5^2*x4",
]

print("=== classification and weights ===")
for text in samples:
    poly = lg.parse_polynomial(text)
    kinds = ", ".join(
        f"{block.kind}({','.join(str(a) for a in block.exponents)})"
        for block in poly.atoms())
    weights = " ".join(str(q) for q in poly.weights)
    note = "   [weight 1/2 on the boundary]" if poly.has_boundary_weight else ""
    print(f"{text}")
    print(f"    atoms: {kinds}")
    print(f"    weights: {weights}{note}")
    print(f"    transpose: {poly.transpose()}")
    assert poly.transpose().transpose() == poly
print()

print("=== diagonal symmetries and ages ===")
chain = lg.parse_polynomial("x1^3*x2 + x2^2*x3 + x3^2")
diag = lg.diagonal_group(chain)
print(f"{chain}: diagonal group of order {diag.order} "
      f"(= |det A_W|), largest element order "
      f"{max(g.order() for g in diag)}")
for g in list(diag)[:4]:
    locus = g.fixed_locus()
    print(f"    g = {g.label():<22} age {g.age()}  dim Fix(g) = {locus.dim}")
print()

print("=== dual groups on the Fermat quartic ===")
W = lg.parse_polynomial("x1^4 + x2^4 + x3^4 + x4^4")
full = lg.diagonal_group(W)
jw = lg.closure([lg.exponential_grading(W)])
sl = lg.closure([g for g in full if g.det_phase() == 0])  # the SL part
print(f"|G_diag| = {full.order}, |<j>| = {jw.order}, |SL part| = {sl.order}")
print(f"dual of <j> equals the SL part: {lg.dual_group(jw, W) == sl}")
print(f"dual of the trivial group is everything: "
      f"{lg.dual_group(lg.closure([lg.MonomialSymmetry.identity(4)]), W) == full}")
print(f"dual of everything is trivial: {lg.dual_group(full, W).order == 1}")

print("double duals over a few subgroups:")
half = lg.closure([lg.MonomialSymmetry.diagonal([Fraction(1, 2)] * 4)])
squares = lg.closure([lg.exponential_grading(W) ** 2,
                      lg.MonomialSymmetry.diagonal(
                          [Fraction(1, 2), Fraction(1, 2), 0, 0])])
for h in (jw, sl, half, squares):
    h_dual = lg.dual_group(h, W)
    assert lg.dual_group(h_dual, W) == h
    print(f"    |H| = {h.order:3d}  |H^T| = {h_dual.order:3d}  "
          f"product = {h.order * h_dual.order} = det A_W")
