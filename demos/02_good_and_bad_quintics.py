"""Two quintic models: one mirror pair, one bigrading failure.

Same Fermat quintic, two permutation groups.  With K = <(12)(34)> the A- and
B-models match as bigraded spaces.  Enlarging K to the Klein four-group
breaks the parity condition (every subgroup T of K must fix a subspace of
dimension congruent to N mod 2), and exactly then the bigraded histograms
disagree, even though the total dimensions still match and the restricted
mirror map still works.

Run:  python3 demos/02_good_and_bad_quintics.py
"""

import lgmirror as lg

W = lg.parse_polynomial("x1^5 + x2^5 + x3^5 + x4^5 + x5^5")
print(f"W = {W}, weights {W.weights[0]} everywhere\n")


def histogram(space):
    return ", ".join(f"({p},{q}):{d}" for (p, q), d in space.sorted_dims())


for name, gens in (("good", ["j", "(1 2)(3 4)"]),
                   ("bad", ["j", "(1 2)(3 4)", "(1 3)(2 4)"])):
    G = lg.closure([lg.parse_generator(t, W) for t in gens])
    parts = lg.decompose_hk(G, W)
    print(f"--- {name} example: G = <{'; '.join(gens)}>, order {G.order}, "
          f"K of order {parts.k.order} ---")
    holds, witness = lg.parity_condition(parts.k)
    if holds:
        print("parity condition: holds for every subgroup of K")
    else:
        print(f"parity condition: fails; witness subgroup "
              f"{{{', '.join(g.cycle_string() for g in witness)}}}")
    report = lg.full_comparison(W, G)
    print(f"|G*| = {report.dual_group.order}")
    print(f"A-model dimension {report.a_space.total_dim}: "
          f"{histogram(report.a_space)}")
    print(f"B-model dimension {report.b_space.total_dim}: "
          f"{histogram(report.b_space)}")
    print(f"verdict: {report.verdict.value}")
    for bidegree, da, db in report.mismatches:
        print(f"  mismatch at ({bidegree[0]}, {bidegree[1]}): "
              f"A has {da}, B has {db}")
    a0 = report.restricted.a0_to_narrow
    print(f"restricted mirror map: {len(a0)} untwisted-to-narrow pairs, "
          f"{len(report.restricted.narrow_to_b0)} narrow-to-untwisted pairs "
          f"(all bidegree-preserving)")
    print()

# Where exactly the bad example breaks: the narrow sector of (12)(34)·j sits
# at (1,1) on the A side, while its B-side conjugacy class sum sits at (1,2).
G = lg.closure([lg.parse_generator(t, W)
                for t in ("j", "(1 2)(3 4)", "(1 3)(2 4)")])
report = lg.full_comparison(W, G)
sj = lg.parse_generator("(1 2)(3 4)", W) * lg.exponential_grading(W)
a_vec = next(v for v in report.a_space.basis if v.leading[2] == sj)
b_vec = next(v for v in report.b_space.basis if sj in v.sector_elements)
print(f"the sector of {sj.label()}:")
print(f"  A-side bidegree ({a_vec.bidegree[0]}, {a_vec.bidegree[1]}), "
      f"a single narrow sector")
print(f"  B-side bidegree ({b_vec.bidegree[0]}, {b_vec.bidegree[1]}), "
      f"a class sum over {len(b_vec.terms)} conjugate sectors")
