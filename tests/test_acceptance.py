"""Acceptance suite.

Every criterion is exact (rational arithmetic, zero tolerance).  Each test
prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.
"""

import random
from fractions import Fraction as F

import lgmirror as lg
from oracles import (
    QUARTIC_PAIRING_TABLE,
    a_bidegree,
    action_denominator,
    apply_phase,
    b_bidegree,
    class_action,
    determinant,
    element_of_matrix,
    matrix_product,
    phase_matrix,
    projector_rank,
    projector_trace,
    random_action_instance,
    random_mirror_instance,
    subgroup_count_elementary,
    subgroup_count_square,
)


def _check(number, description, fn):
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def perm(cycles, n):
    return lg.MonomialSymmetry.from_cycles(cycles, n)


QUARTIC_DIMS = {(F(1), F(1)): 20, (F(0), F(0)): 1, (F(0), F(2)): 1,
                (F(2), F(0)): 1, (F(2), F(2)): 1}


def test_criterion_1_quartic_a_model(quartic, quartic_group):
    def body():
        space = lg.a_state_space(quartic, quartic_group)
        assert space.total_dim == 24
        assert space.dims == QUARTIC_DIMS
        census = space.census()
        assert census["untwisted_broad"] == 9
        assert census["twisted_broad"] == {"(1 2 3)": 3, "(1 3 2)": 3}
        assert census["narrow_diagonal"] + census["narrow_nondiagonal"] == 9

    _check(1, "quartic A-model: dimension 24, histogram, census 9+3+3+9", body)


def test_criterion_2_quartic_b_model(quartic, quartic_group):
    def body():
        star = lg.nonabelian_dual(quartic_group, quartic)
        assert star.order == 192
        space = lg.b_state_space(quartic.transpose(), star)
        assert space.total_dim == 24
        assert space.dims == QUARTIC_DIMS
        census = space.census()
        assert census["untwisted_broad"] == 3
        assert sum(census["twisted_broad"].values()) == 6
        assert census["narrow_diagonal"] == 9
        assert census["narrow_nondiagonal"] == 6
        # the 72 elements that are neither narrow nor the canonical
        # representative of a contributing broad class contribute dimension 0
        narrow = {g for g in star if g.fixed_locus().dim == 0}
        broad_leaders = {v.leading[2] for v in space.basis} - narrow
        leftover = [g for g in star
                    if g not in narrow and g not in broad_leaders]
        assert len(leftover) == 72
        covered = {g for v in space.basis for g in v.sector_elements}
        for cls in star.conjugacy_classes():
            if set(cls) <= set(leftover):
                assert not set(cls) & covered

    _check(2, "quartic B-model: |G*|=192, dimension 24, census 3+6+9+6, "
              "72 silent elements", body)


def test_criterion_3_duality_identities(quartic, quintic):
    def body():
        for poly in (quartic, quintic):
            jw = lg.closure([lg.exponential_grading(poly)])
            assert lg.dual_group(jw, poly) == \
                lg.sl_subgroup(lg.diagonal_group(poly.transpose()))
        cubic = lg.parse_polynomial("x1^3 + x2^3 + x3^3")
        for poly, expected_count in ((cubic, subgroup_count_elementary(3, 3)),
                                     (quartic, subgroup_count_square(2, 4))):
            full = lg.diagonal_group(poly)
            det = abs(int(determinant(poly.exponents)))
            subgroups = full.subgroups()
            assert len(subgroups) == expected_count
            for h in subgroups:
                h_dual = lg.dual_group(h, poly)
                assert h.order * h_dual.order == det
                assert lg.dual_group(h_dual, poly) == h

    _check(3, "duality: (J_W)^T = SL^diag, double dual and order product "
              "over every diagonal subgroup (cubic: 28, quartic: 1983)", body)


def test_criterion_4_restricted_mirror(quartic, quartic_group,
                                       good_report, bad_report):
    def body():
        pairs = lg.full_comparison(quartic, quartic_group).restricted
        assert len(pairs.a0_to_narrow) == 9
        ends = {}
        for va, vb in pairs.a0_to_narrow:
            assert va.bidegree == vb.bidegree
            key = frozenset(e for _, e, _ in va.terms)
            if key in QUARTIC_PAIRING_TABLE:
                ends[key] = frozenset(tuple(str(p) for p in g.phases)
                                      for g in vb.sector_elements)
        assert ends == QUARTIC_PAIRING_TABLE
        assert len(pairs.narrow_to_b0) == 3
        assert len(good_report.restricted.a0_to_narrow) == 108
        assert len(bad_report.restricted.a0_to_narrow) == 60
        for report in (good_report, bad_report):
            for va, vb in report.restricted.a0_to_narrow + \
                    report.restricted.narrow_to_b0:
                assert va.bidegree == vb.bidegree

    _check(4, "restricted mirror map: bidegree bijections, |A0| = 9 / 108 / 60, "
              "quartic pairing table row for row", body)


def test_criterion_5_good_quintic(good_report, quintic):
    def body():
        report = good_report
        assert report.verdict is lg.Verdict.BIGRADED_ISOMORPHIC
        j = lg.exponential_grading(quintic)
        narrow = {va.leading[2]: (vb.terms[0][1], va.bidegree)
                  for va, vb in report.restricted.narrow_to_b0}
        a0 = {va.terms[0][1]: (frozenset(vb.sector_elements), va.bidegree)
              for va, vb in report.restricted.a0_to_narrow}
        for i in (1, 2, 3, 4):
            exps, bidegree = narrow[j ** i]
            assert exps == (i - 1,) * 5
            assert bidegree == (i - 1, i - 1)
            elements, bidegree = a0[((i - 1,) * 5)]
            assert elements == {j ** i}
            assert bidegree == (i - 1, 4 - i)

    _check(5, "good quintic: BigradedIsomorphic with the eight center "
              "pairings at (0,0),(1,1),(2,2),(3,3),(0,3),(1,2),(2,1),(3,0)", body)


def test_criterion_6_bad_quintic(bad_report, quintic):
    def body():
        report = bad_report
        assert not report.pc_holds
        assert report.pc_witness is not None
        assert report.pc_witness.order == 4  # the full Klein group
        # its fixed space has dimension 2 (orbits {1,2,3,4} and {5}) vs N = 5
        parents = list(range(5))
        for g in report.pc_witness:
            for i, image in enumerate(g.perm):
                ri, rj = _root(parents, i), _root(parents, image)
                if ri != rj:
                    parents[ri] = rj
        assert len({_root(parents, i) for i in range(5)}) == 2
        assert report.a_space.total_dim == report.b_space.total_dim == 88
        assert report.verdict is lg.Verdict.DIMENSIONS_MATCH_BIGRADING_FAILS
        sj = perm([(0, 1), (2, 3)], 5) * lg.exponential_grading(quintic)
        a_vec = next(v for v in report.a_space.basis if v.leading[2] == sj)
        b_vec = next(v for v in report.b_space.basis
                     if sj in v.sector_elements)
        assert a_vec.bidegree == (1, 1) and b_vec.bidegree == (1, 2)
        mismatched = {bd for bd, _, _ in report.mismatches}
        assert (F(1), F(1)) in mismatched and (F(1), F(2)) in mismatched

    _check(6, "bad quintic: PC fails (witness Klein group, fixed dim 2 vs 5), "
              "equal totals, DimensionsMatchBigradingFails, (1,1) vs (1,2) "
              "flagged at the (12)(34)·j sector", body)


def _root(parents, i):
    while parents[i] != i:
        i = parents[i]
    return i


def test_criterion_7a_projector_oracle():
    def body():
        rng = random.Random(2024)
        for k in range(200):
            big = k % 10 == 0
            poly, group, rep = random_action_instance(
                rng, max_order=200 if big else 60,
                max_nodes=100 if big else 60)
            space = lg.GradedSpace("A", poly, group,
                                   lg.invariant_basis(poly, group, "A"))
            cls = set(group.class_of(rep))
            expected = sum(1 for v in space.basis if v.leading[2] in cls)
            nodes, tables = class_action(poly, group, rep)
            m = action_denominator(tables)
            assert projector_rank(tables, m) == expected
            assert projector_trace(tables, m, group.order) == expected

    _check("7a", "orbit-sum dimensions equal dense averaging-projector ranks "
                 "on 200 randomized instances (two primes + exact trace)", body)


def test_criterion_7b_age_identities(quartic_group, good_group, bad_group,
                                     quartic):
    def body():
        rng = random.Random(77)
        groups = [quartic_group, good_group, bad_group,
                  lg.nonabelian_dual(quartic_group, quartic)]
        for _ in range(12):
            _, g, _ = random_action_instance(rng, max_order=60, max_nodes=60)
            groups.append(g)
        for group in groups:
            n = group.n
            elements = group.elements
            for g in elements:
                assert g.age() + g.inverse().age() == n - g.fixed_locus().dim
            for _ in range(60):
                g = rng.choice(elements)
                gamma = rng.choice(elements)
                conj = g.conjugated_by(gamma)
                assert conj.age() == g.age()
                assert conj.fixed_locus().dim == g.fixed_locus().dim

    _check("7b", "age(g) + age(g^-1) = N - N_g on every element of every "
                 "generated group; (age, N_g) conjugation-invariant", body)


def test_criterion_7b_bidegree_invariance():
    def body():
        rng = random.Random(78)
        for _ in range(20):
            poly, group, _ = random_action_instance(rng, max_order=60,
                                                    max_nodes=60)
            for _ in range(25):
                g = rng.choice(group.elements)
                gamma = rng.choice(group.elements)
                sector = lg.build_sector(poly, g)
                sm = lg.sector_map(gamma, sector)
                for b in sector.basis:
                    image, _ = apply_phase(sm, b)
                    for fn in (a_bidegree, b_bidegree):
                        assert fn(sector, sector.degree(b)) == \
                            fn(sm.target, sm.target.degree(image))

    _check("7b", "bidegrees are unchanged along every sector map", body)


def test_criterion_7c_composition_oracle():
    def body():
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 8)
            den = rng.choice([2, 3, 4, 6, 8, 12])
            a_imgs = list(range(n))
            b_imgs = list(range(n))
            rng.shuffle(a_imgs)
            rng.shuffle(b_imgs)
            a = lg.MonomialSymmetry(
                a_imgs, [F(rng.randrange(den), den) for _ in range(n)])
            b = lg.MonomialSymmetry(
                b_imgs, [F(rng.randrange(den), den) for _ in range(n)])
            dense = element_of_matrix(matrix_product(phase_matrix(a),
                                                     phase_matrix(b)))
            assert a * b == dense

    _check("7c", "composition law equals dense matrix multiplication on "
                 "1000 random pairs", body)


def test_criterion_7d_restricted_mirror_never_fails():
    def body():
        rng = random.Random(4242)
        for _ in range(30):
            poly, group = random_mirror_instance(rng)
            assert group.order <= 500
            assert max(poly.fermat_exponents()) <= 5
            assert poly.n_vars <= 6
            pairs = lg.full_comparison(poly, group).restricted  # must not raise
            for va, vb in pairs.a0_to_narrow + pairs.narrow_to_b0:
                assert va.bidegree == vb.bidegree

    _check("7d", "restricted mirror map never raises on randomized "
                 "admissible instances (d ≤ 5, N ≤ 6, |G| ≤ 500)", body)
