import random
from fractions import Fraction as F
from itertools import product

import pytest

import lgmirror as lg
from lgmirror import cli
from lgmirror.errors import (
    CapExceededError,
    NotAdmissibleAError,
    NotAdmissibleBError,
    NotASymmetryError,
    NotFermatError,
)
from oracles import (
    a_bidegree,
    action_denominator,
    apply_phase,
    b_bidegree,
    character_dims,
    class_action,
    class_of,
    element_key,
    element_map,
    fermat,
    form_phase,
    frac_age,
    frac_degree,
    frac_form,
    is_diagonal,
    is_identity,
    is_narrow,
    projector_rank,
    projector_trace,
    random_mirror_instance,
    search_invariant_basis,
    sector_scalars,
    sl_subgroup,
)


def diag(*phases):
    return lg.MonomialSymmetry.diagonal([F(p) for p in phases])


def perm(cycles, n):
    return lg.MonomialSymmetry.from_cycles(cycles, n)


def test_sector_identity(quartic):
    sector = lg.build_sector(quartic, lg.MonomialSymmetry.identity(4))
    assert len(sector.basis) == 81  # (4-1)^4 monomials with 0 ≤ b ≤ 2
    assert sector.degrees == (4, 4, 4, 4)
    assert frac_degree(sector, (0, 0, 0, 0)) == 1  # the bare volume form
    assert frac_degree(sector, (2, 2, 2, 2)) == 3


def test_sector_three_cycle(quartic):
    sector = lg.build_sector(quartic, perm([(0, 1, 2)], 4))
    assert len(sector.basis) == 9
    assert sector.degrees == (4, 4)
    assert sector.locus.cycles == ((0, 1, 2), (3,))


def test_sector_narrow(quartic):
    sector = lg.build_sector(quartic, lg.exponential_grading(quartic))
    assert is_narrow(sector)
    assert sector.basis == ((),)
    assert frac_degree(sector, ()) == 0


def test_sector_rejects_chain():
    chain = lg.parse_polynomial("x1^3*x2 + x2^2*x3 + x3^2")
    with pytest.raises(NotFermatError):
        lg.build_sector(chain, lg.MonomialSymmetry.identity(3))


def test_sector_rejects_non_symmetry(quartic):
    with pytest.raises(NotASymmetryError, match="is not a symmetry of"):
        lg.build_sector(quartic, diag("1/3", 0, 0, 0))


def test_sector_map_grading_on_three_cycle(quartic):
    # j_W acts on the (123)-sector by e(1/4) on each coordinate and flips
    # the volume form: form phase 1/4 + 1/4 = 1/2
    sector = lg.build_sector(quartic, perm([(0, 1, 2)], 4))
    sm, target = element_map(lg.exponential_grading(quartic), sector)
    assert target.element == sector.element  # j_W is central
    assert sector_scalars(sm) == (F(1, 4), F(1, 4))
    assert form_phase(sm) == F(1, 2)
    image, phase = apply_phase(sm, (2, 0))
    assert image == (2, 0) and phase == 0  # y1^2·ω is invariant under j_W


def test_sector_map_cycle_on_own_sector(quartic):
    g = perm([(0, 1, 2)], 4)
    sm, _ = element_map(g, lg.build_sector(quartic, g))
    assert sector_scalars(sm) == (0, 0) and form_phase(sm) == 0
    assert sm.cycle_images == (0, 1)


def test_sector_map_identity(quartic):
    sector = lg.build_sector(quartic, perm([(0, 1, 2)], 4))
    sm, _ = element_map(lg.MonomialSymmetry.identity(4), sector)
    for b in sector.basis:
        assert apply_phase(sm, b) == (b, 0)


def test_sector_map_swap_picks_up_form_sign(quintic):
    # (13)(24) permutes the two 2-cycles of the (12)(34)-sector: odd
    # rearrangement of the three cycle coordinates
    g = perm([(0, 1), (2, 3)], 5)
    sm, _ = element_map(perm([(0, 2), (1, 3)], 5), lg.build_sector(quintic, g))
    assert sm.cycle_images == (1, 0, 2)
    assert sector_scalars(sm) == (0, 0, 0)
    assert form_phase(sm) == F(1, 2)


def test_sector_maps_compose(quartic):
    rng = random.Random(5)
    sl = sl_subgroup(lg.diagonal_group(quartic))
    star = lg.closure(list(sl.generators) + [perm([(0, 1, 2)], 4)])
    elements = star.elements
    for _ in range(60):
        g = rng.choice(elements)
        g1 = rng.choice(elements)
        g2 = rng.choice(elements)
        sector = lg.build_sector(quartic, g)
        sm1, target1 = element_map(g1, sector)
        sm2, target2 = element_map(g2, target1)
        sm12, target12 = element_map(g1 * g2, sector)
        assert target2.element == target12.element
        for b in sector.basis:
            mid, p1 = apply_phase(sm1, b)
            end, p2 = apply_phase(sm2, mid)
            direct, p = apply_phase(sm12, b)
            assert end == direct and (p1 + p2) % 1 == p


def test_untwisted_invariants_quartic(quartic, quartic_group):
    space = lg.a_state_space(quartic, quartic_group)
    untwisted = [v for v in space.basis if is_identity(v.leading[2])]
    monomial_sets = {frozenset(e for _, e, _ in v.terms) for v in untwisted}
    assert monomial_sets == {
        frozenset({(0, 0, 0, 0)}),
        frozenset({(1, 1, 1, 1)}),
        frozenset({(2, 2, 2, 2)}),
        frozenset({(2, 2, 0, 0), (0, 2, 2, 0), (2, 0, 2, 0)}),
        frozenset({(1, 1, 2, 0), (2, 1, 1, 0), (1, 2, 1, 0)}),
        frozenset({(1, 1, 0, 2), (0, 1, 1, 2), (1, 0, 1, 2)}),
        frozenset({(1, 2, 0, 1), (0, 1, 2, 1), (2, 0, 1, 1)}),
        frozenset({(2, 1, 0, 1), (0, 2, 1, 1), (1, 0, 2, 1)}),
        frozenset({(2, 0, 0, 2), (0, 2, 0, 2), (0, 0, 2, 2)}),
    }


def test_bidegrees_quartic_table(quartic, quartic_group):
    space = lg.a_state_space(quartic, quartic_group)
    by_lead = {(v.leading[2], v.leading[1]): v.bidegree for v in space.basis}
    identity = lg.MonomialSymmetry.identity(4)
    j = lg.exponential_grading(quartic)
    assert by_lead[(identity, (0, 0, 0, 0))] == (0, 2)
    assert by_lead[(identity, (1, 1, 1, 1))] == (1, 1)
    assert by_lead[(identity, (2, 2, 2, 2))] == (2, 0)
    assert by_lead[(j, ())] == (0, 0)
    assert by_lead[(j * j, ())] == (1, 1)
    assert by_lead[(j * j * j, ())] == (2, 2)
    assert by_lead[(j * perm([(0, 1, 2)], 4), ())] == (1, 1)
    # twisted broad rows all sit at (1, 1)
    for v in space.basis:
        g = v.leading[2]
        if not is_identity(g) and g.fixed_locus().dim > 0:
            assert v.bidegree == (1, 1)


def test_b_bidegree_examples(quartic):
    j = lg.exponential_grading(quartic)
    assert b_bidegree(lg.build_sector(quartic, j), F(0)) == (0, 2)
    assert b_bidegree(lg.build_sector(quartic, j ** 3), F(0)) == (2, 0)
    identity = lg.MonomialSymmetry.identity(4)
    assert a_bidegree(lg.build_sector(quartic, identity), F(2)) == (1, 1)


def test_bidegree_preserved_by_sector_maps(quartic):
    # pullback by any group element leaves both bidegrees unchanged
    rng = random.Random(23)
    sl = sl_subgroup(lg.diagonal_group(quartic))
    star = lg.closure(list(sl.generators) + [perm([(0, 1, 2)], 4)])
    for _ in range(80):
        g = rng.choice(star.elements)
        gamma = rng.choice(star.elements)
        sector = lg.build_sector(quartic, g)
        sm, target = element_map(gamma, sector)
        for b in sector.basis:
            image, _ = apply_phase(sm, b)
            for fn in (a_bidegree, b_bidegree):
                before = fn(sector, frac_degree(sector, b))
                after = fn(target, frac_degree(target, image))
                assert before == after


def test_unprojected_dimension_count(quartic, quartic_group):
    total = sum(len(lg.build_sector(quartic, g).basis) for g in quartic_group)
    assert total == 108  # 81 + 9 + 9 + 9·1


def test_a_state_space_quartic(quartic, quartic_group):
    space = lg.a_state_space(quartic, quartic_group)
    assert space.total_dim == 24
    assert space.dims == {(F(1), F(1)): 20, (F(0), F(0)): 1, (F(0), F(2)): 1,
                          (F(2), F(0)): 1, (F(2), F(2)): 1}
    census = space.census()
    assert census["untwisted_broad"] == 9
    assert census["twisted_broad"] == {"(1 2 3)": 3, "(1 3 2)": 3}
    assert census["narrow_diagonal"] + census["narrow_nondiagonal"] == 9


def test_a_state_space_requires_grading_element(quartic):
    group = lg.closure([perm([(0, 1, 2)], 4)])
    with pytest.raises(NotAdmissibleAError):
        lg.a_state_space(quartic, group)


def test_b_state_space_requires_determinant_one(quartic):
    group = lg.closure([diag("1/4", 0, 0, 0)])
    with pytest.raises(NotAdmissibleBError) as info:
        lg.b_state_space(quartic, group)
    # e(t) already means exp(2πi·t)
    assert str(info.value) == "(1/4, 0, 0, 0) has determinant e(1/4) ≠ 1"


def test_b_state_space_names_first_non_sl_element(quartic):
    # the generators decide, and the error names the first element outside
    # SL in canonical order, (1/4, 0, 0, 0).  closure keeps no given
    # generator: the group's generator is its greedy pick, (1/4, 0, 0, 0),
    # not the (3/4, 0, 0, 0) it was closed from
    group = lg.closure([diag("3/4", 0, 0, 0)])
    assert group.generators == (diag("1/4", 0, 0, 0),)
    with pytest.raises(NotAdmissibleBError) as info:
        lg.b_state_space(quartic, group)
    assert str(info.value) == "(1/4, 0, 0, 0) has determinant e(1/4) ≠ 1"


def test_the_named_non_sl_element_is_the_first_in_the_listing():
    # the element the error names is read off N's Hermite rows and the
    # lifts; on seeded random groups, diagonal and not, it is the first
    # element outside SL in the group's listing, from N or from a lift
    rng = random.Random(69)
    named = {True: 0, False: 0}  # by whether the named element is diagonal
    for _ in range(200):
        n, balanced = rng.randint(2, 5), rng.random() < 0.5
        gens = []
        for _ in range(rng.randint(1, 3)):
            perm = list(range(n))
            if rng.random() < 0.5:
                rng.shuffle(perm)
            den = rng.choice([1, 2, 3, 4, 6])
            phases = [F(rng.randrange(den), den) for _ in perm]
            if balanced:  # phases summing to 0 keep N in SL: only a lift can leave it
                phases[-1] -= sum(phases)
            gens.append(lg.MonomialSymmetry(perm, phases))
        try:
            group = lg.closure(gens, cap=3000)
        except CapExceededError:
            continue
        first = next((g for g in group if g.det_num()), None)
        if first is None:
            continue
        named[is_diagonal(first)] += 1
        with pytest.raises(NotAdmissibleBError) as info:
            lg.b_state_space(fermat([3] * n), group)
        assert str(info.value) == f"{first.label()} has determinant e({first.det_phase()}) ≠ 1"
    assert min(named.values()) >= 20, named


def test_a_million_element_group_outside_sl_is_not_listed():
    # G* of G = ⟨diag(1/100, 0, 0, 0)⟩ on four 100th powers has 10⁶
    # elements; the one the error names is found without listing them
    poly = lg.parse_polynomial("x1^100 + x2^100 + x3^100 + x4^100")
    star = lg.nonabelian_dual(lg.closure([diag("1/100", 0, 0, 0)]), poly)
    assert star.order == 10 ** 6
    with pytest.raises(NotAdmissibleBError) as info:
        lg.b_state_space(poly.transpose(), star)
    assert str(info.value) == "(0, 0, 0, 1/100) has determinant e(1/100) ≠ 1"
    assert "_forms" not in star.__dict__ and "elements" not in star.__dict__


def test_age_identity_and_bidegree_offsets(quartic, quartic_group, quintic,
                                           good_group, bad_group):
    # age g⁻¹ = n − dim Fix(g) − age g on every element of the paper's G and
    # G*, ages taken by the Fraction oracle; every basis vector's bidegree
    # is the textbook formula at its leading term
    for poly, group in ((quartic, quartic_group), (quintic, good_group),
                        (quintic, bad_group)):
        star = lg.nonabelian_dual(group, poly)
        for g in list(group) + list(star):
            age, dim = frac_age(frac_form(g)), g.fixed_locus().dim
            assert g.age() == age
            assert frac_age(frac_form(g.inverse())) == g.n - dim - age
        for space, bidegree in ((lg.a_state_space(poly, group), a_bidegree),
                                (lg.b_state_space(poly.transpose(), star), b_bidegree)):
            for v in space.basis:
                _, exps, g = v.leading
                sector = lg.build_sector(space.poly, g)
                assert v.bidegree == bidegree(sector, frac_degree(sector, exps))


def test_b_state_space_quartic(quartic, quartic_group):
    star = lg.nonabelian_dual(quartic_group, quartic)
    space = lg.b_state_space(quartic.transpose(), star)
    assert space.total_dim == 24
    assert space.dims == {(F(1), F(1)): 20, (F(0), F(0)): 1, (F(0), F(2)): 1,
                          (F(2), F(0)): 1, (F(2), F(2)): 1}
    census = space.census()
    assert census["untwisted_broad"] == 3
    assert census["twisted_broad"] == {"(1 2 3)": 3, "(1 3 2)": 3}
    assert census["narrow_diagonal"] == 9
    assert census["narrow_nondiagonal"] == 6
    # untwisted broad survivors are the fully symmetric powers
    untwisted = [v for v in space.basis if is_identity(v.leading[2])]
    assert {v.terms[0][1] for v in untwisted} == {(0, 0, 0, 0), (1, 1, 1, 1),
                                                  (2, 2, 2, 2)}


def test_basis_vectors_are_normalized(quartic, quartic_group):
    star = lg.nonabelian_dual(quartic_group, quartic)
    space = lg.b_state_space(quartic.transpose(), star)
    for v in space.basis:
        assert v.terms[0][0] == 0  # leading coefficient phase
        keys = [(element_key(g), e) for _, e, g in v.terms]
        assert keys == sorted(keys)
        # all term sectors lie in one conjugacy class
        assert set(v.sector_elements) <= set(class_of(star, v.leading[2]))


def test_orbit_dimensions_match_projector_oracle(quartic, quartic_group):
    star = lg.nonabelian_dual(quartic_group, quartic)
    dual = quartic.transpose()
    space = lg.b_state_space(dual, star)
    for rep in (perm([(0, 1, 2)], 4),
                diag("1/4", "1/2", "1/2", "3/4"),
                diag("1/2", "1/4", "1/4", 0)):
        cls = set(class_of(star, rep))
        expected = sum(1 for v in space.basis if v.leading[2] in cls)
        nodes, tables = class_action(dual, star, rep)
        m = action_denominator(tables)
        assert projector_rank(tables, m) == expected
        assert projector_trace(tables, m, star.order) == expected


def test_total_dimension_matches_projector_over_all_classes(quartic,
                                                            quartic_group):
    # the headline 24 recomputed class by class through the exact trace
    star = lg.nonabelian_dual(quartic_group, quartic)
    dual = quartic.transpose()
    space = lg.b_state_space(dual, star)
    total = 0
    for cls in star.conjugacy_classes():
        _, tables = class_action(dual, star, cls[0])
        total += projector_trace(tables, action_denominator(tables),
                                 star.order)
    assert total == space.total_dim == 24


def test_diagonal_group_gives_per_sector_sum(quartic):
    # for diagonal abelian G every basis vector lives in a single sector,
    # so the space is the direct sum of per-sector invariants
    group = lg.closure([lg.exponential_grading(quartic),
                        diag("1/2", "1/2", 0, 0)])
    assert group.is_diagonal and group.is_abelian
    space = lg.a_state_space(quartic, group)
    for v in space.basis:
        assert len(set(v.sector_elements)) == 1
        assert all(phase == 0 for phase, _, _ in v.terms)


def test_narrow_classes_contribute_exactly_once(quartic, quartic_group):
    star = lg.nonabelian_dual(quartic_group, quartic)
    space = lg.b_state_space(quartic.transpose(), star)
    narrow_classes = [cls for cls in star.conjugacy_classes()
                      if cls[0].fixed_locus().dim == 0]
    narrow_vectors = [v for v in space.basis
                      if v.leading[2].fixed_locus().dim == 0]
    assert len(narrow_vectors) == len(narrow_classes)
    leaders = {v.leading[2] for v in narrow_vectors}
    assert leaders == {cls[0] for cls in narrow_classes}


def test_hodge_diamond_quartic(quartic, quartic_group):
    space = lg.a_state_space(quartic, quartic_group)
    diamond = lg.HodgeDiamond(space)
    assert diamond.integral
    assert diamond.rows() == [[1], [1, 20, 1], [1]]
    assert diamond.render().splitlines() == ["  1", "1 20 1", "  1"]


def test_hodge_diamond_fractional_gradings(quartic):
    # the full diagonal group produces narrow sectors with fractional ages
    space = lg.a_state_space(quartic, lg.diagonal_group(quartic))
    diamond = lg.HodgeDiamond(space)
    assert not diamond.integral
    with pytest.raises(ValueError):
        diamond.grid()
    assert "(1/4, 1/4)" in diamond.render()


def test_vector_labels(quartic, quartic_group):
    space = lg.a_state_space(quartic, quartic_group)
    labels = [lg.vector_label(v, quartic) for v in space.basis]
    assert "[1, (0, 0, 0, 0)]" in labels
    assert "[x1*x2*x3*x4, (0, 0, 0, 0)]" in labels
    assert "[x4^2, (1 2 3)]" in labels
    assert any(lbl.startswith("[(x1 + x2 + x3)^2, (1 2 3)]") for lbl in labels)


def _models(quartic, quartic_group, quintic, good_group, bad_group):
    """(W, G) of the paper's models and of 30 random admissible ones."""
    rng = random.Random(1618)
    return ([(quartic, quartic_group), (quintic, good_group), (quintic, bad_group)] +
            [random_mirror_instance(rng) for _ in range(30)])


def test_term_count_bounds_the_terms(monkeypatch, quartic, quartic_group, quintic,
                                     good_group, bad_group):
    # Σ over classes of |kept(r)|·|class| is checked against TERM_CAP before
    # any term is listed: with the cap one below the terms it must refuse.
    # In a diagonal group every kept monomial is an orbit and the count is
    # exact; lifts may drop orbits, even in an abelian group
    spaces = []
    for poly, group in _models(quartic, quartic_group, quintic, good_group, bad_group):
        star = lg.duality.star_group(lg.decompose_hk(group, poly), poly)
        spaces += [lg.a_state_space(poly, group), lg.b_state_space(poly.transpose(), star)]
    for space in spaces:
        terms = sum(len(v.terms) for v in space.basis)
        monkeypatch.setattr(lg.state_space, "TERM_CAP", terms - 1)
        with pytest.raises(CapExceededError, match=f"exceeds {terms - 1} terms"):
            lg.invariant_basis(space.poly, space.group, space.side)
        if space.group.is_diagonal:
            monkeypatch.setattr(lg.state_space, "TERM_CAP", terms)
            assert lg.invariant_basis(space.poly, space.group, space.side) == space.basis
    assert sum(space.group.is_diagonal for space in spaces) >= 20


def test_kept_monomials_match_a_filter_and_are_counted_first():
    # the invariant monomials of each class representative's sector under
    # N^σ: with the limit at their number the halves meet in order, one
    # below it the count per sum of each half refuses before any listing
    rng = random.Random(1729)
    sectors = 0
    for _ in range(20):
        poly, group = random_mirror_instance(rng)
        mod = group.modulus
        for cosets in group.class_transversals:
            g = lg.MonomialSymmetry.from_numerators(*cosets[0][0], mod)
            sector = lg.build_sector(poly, g)
            gens = group._part(g.perm).generators
            firsts = [cycle[0] for cycle in sector.locus.cycles]
            expected = [b for b in product(*(range(d - 1) for d in sector.degrees))
                        if all(sum((e + 1) * c[i] for e, i in zip(b, firsts)) % mod == 0
                               for _, c in gens)]
            args = sector.locus.cycles, sector.degrees, gens, mod
            assert lg.state_space._kept(*args, len(expected)) == expected
            if expected:
                sectors += 1
                with pytest.raises(CapExceededError):
                    lg.state_space._kept(*args, len(expected) - 1)
    assert sectors >= 100


def test_a_diagonal_group_builds_no_sector(quartic, monkeypatch):
    # G = ⟨j, diag(1/2, 1/2, 0, 0)⟩ and G* are diagonal: no lift moves a
    # monomial and every class is one element, so the search reads fixed
    # cycles and exponents only and needs no pullback map or fixed locus
    group = lg.closure([lg.parse_generator(t, quartic) for t in ("j", "diag(1/2, 1/2, 0, 0)")])
    expected = lg.full_comparison(quartic, group)
    assert group.is_diagonal and expected.dual_group.is_diagonal

    def build(*args):
        pytest.fail("a pullback map or a fixed locus was built")
    monkeypatch.setattr(lg.state_space, "sector_map", build)
    monkeypatch.setattr(lg.state_space, "form_locus", build)
    report = lg.full_comparison(quartic, group)
    assert (report.a_space.basis, report.b_space.basis) == \
        (expected.a_space.basis, expected.b_space.basis)
    assert report.verdict is lg.Verdict.BIGRADED_ISOMORPHIC


def test_the_search_makes_no_element_and_checks_each_generator_once(
        quartic, quartic_group, quintic, good_group, bad_star, monkeypatch):
    # a class's fixed cycles and age, its members and the pullback maps are
    # all read off integer forms, and the nodes hold forms, so once the
    # generators are read no element is made, diagonal group or not; and
    # the generators are the one symmetry check, as every element is a
    # product of them
    cubic = fermat([3] * 6)
    inputs = [(quartic, lg.closure([lg.exponential_grading(quartic)]), "A"),
              (quartic, lg.dual_group(lg.closure([lg.exponential_grading(quartic)]), quartic),
               "B"),
              (quartic, quartic_group, "A"),
              (quintic.transpose(), lg.nonabelian_dual(good_group, quintic), "B"),
              (quintic.transpose(), bad_star, "B"),
              (cubic.transpose(), lg.nonabelian_dual(lg.closure(
                  lg.parse_generator(t, cubic) for t in "j; (1 2 3); (4 5 6)".split(";")),
                  cubic), "B")]
    assert [group.is_diagonal for _, group, _ in inputs] == [True, True] + [False] * 4
    made, checked = [], []
    make, check = lg.MonomialSymmetry.from_numerators.__func__, lg.symmetry.is_symmetry

    def counting(cls, *args):
        made.append(args)
        return make(cls, *args)

    def checking(g, w):
        checked.append(g)
        return check(g, w)
    for poly, group, side in inputs:
        expected = lg.invariant_basis(poly, group, side)
        group = lg.SymmetryGroup(group.modulus, group.basis, group.lifts)
        assert group.generators
        made.clear()
        checked.clear()
        monkeypatch.setattr(lg.MonomialSymmetry, "from_numerators", classmethod(counting))
        monkeypatch.setattr(lg.symmetry, "is_symmetry", checking)  # the shared check's
        monkeypatch.setattr(lg.state_space, "is_symmetry", checking)
        basis = lg.invariant_basis(poly, group, side)
        monkeypatch.undo()
        assert made == [] and basis == expected and len(basis) > 0
        assert checked == list(group.generators)


def test_a_narrow_class_builds_no_centralizer_locus_or_map(
        quartic, quartic_group, quintic, good_group, bad_group, quartic_report, good_report,
        bad_report, monkeypatch):
    # a narrow sector (no fixed cycle) has one state, which every conjugation
    # fixes, so its class keeps the class sum with no centralizer lifts, fixed
    # locus, pullback map or orbit search; and a term with no exponent is
    # labelled "1" with no fixed locus.  The counts (lifts, loci, maps) are
    # over one full_comparison of each paper model, both sides
    cubic = fermat([3] * 6)
    cubic_group = lg.closure(lg.parse_generator(t, cubic) for t in "j; (1 2 3); (4 5 6)".split(";"))
    cases = [(quartic, quartic_group, quartic_report, (6, 6, 6)),
             (quintic, good_group, good_report, (4, 4, 4)),
             (quintic, bad_group, bad_report, (8, 8, 16)),
             (cubic, cubic_group, lg.full_comparison(cubic, cubic_group), None)]
    lifts, loci, maps = [], [], []
    centralizer_lifts, locus, pullback = (lg.SymmetryGroup._centralizer_lifts,
                                          lg.state_space.form_locus, lg.state_space.sector_map)

    def lifting(group, sigma, a):
        lifts.append(len(lg.symmetry.form_cycles(sigma, a, group.modulus)))
        return centralizer_lifts(group, sigma, a)

    def reading(perm, nums, mod):
        fixed = locus(perm, nums, mod)
        loci.append(((perm, nums), fixed.dim))
        return fixed

    def mapping(gamma, mod, source, target):
        maps.append(source.dim)
        return pullback(gamma, mod, source, target)
    for poly, group, expected, counts in cases:
        del lifts[:], loci[:], maps[:]
        monkeypatch.setattr(lg.SymmetryGroup, "_centralizer_lifts", lifting)
        monkeypatch.setattr(lg.state_space, "form_locus", reading)
        monkeypatch.setattr(lg.state_space, "sector_map", mapping)
        report = lg.full_comparison(poly, group)
        monkeypatch.undo()
        assert (report.a_space.basis, report.b_space.basis) == \
            (expected.a_space.basis, expected.b_space.basis)
        assert 0 not in lifts and 0 not in maps and all(dim for _, dim in loci)
        if counts is not None:
            assert (len(lifts), len(loci), len(maps)) == counts
        for space in (report.a_space, report.b_space):
            assert any(v.leading[2].fixed_locus().dim == 0 for v in space.basis)
            loci.clear()
            monkeypatch.setattr(lg.state_space, "form_locus", reading)
            labels = [lg.vector_label(v, space.poly) for v in space.basis]
            monkeypatch.undo()
            assert [form for form, _ in loci] == \
                [form for v in space.basis for form, exps, _ in v.nodes if any(exps)]
            assert "[1, " in "".join(labels)


def test_character_dims_match_every_bigraded_dimension(quartic_report, good_report,
                                                       bad_report):
    # each dimension from graded characters averaged over centralizers, with
    # no basis, on both sides of the paper models, 30 random models and two
    # cubics: an abelian G* of order 729 and a non-abelian one of 2,187
    reports = [quartic_report, good_report, bad_report]
    rng = random.Random(2718)
    reports += [lg.full_comparison(*random_mirror_instance(rng)) for _ in range(30)]
    spaces = [space for report in reports for space in (report.a_space, report.b_space)]
    for degrees, text in (([3] * 7, "j"), ([3] * 6, "j; (1 2 3); (4 5 6)")):
        poly = fermat(degrees)
        group = lg.closure(lg.parse_generator(t, poly) for t in text.split(";"))
        spaces += [lg.a_state_space(poly, group),
                   lg.b_state_space(poly.transpose(), lg.nonabelian_dual(group, poly))]
    assert sum(not space.group.is_abelian for space in spaces) >= 10
    for space in spaces:
        assert character_dims(space.poly, space.group, space.side) == space.dims


def test_the_comparison_lists_no_node_outside_the_corners(quartic, quartic_group, monkeypatch,
                                                          tmp_path, capsys):
    # a vector keeps its lead, its orbit and its class, and lists its nodes
    # only when they are read: full_comparison and text mirror-check read
    # none and list no class's carriers; mirror-check --json reads the
    # corner vectors' alone, for the pairings' labels, so the carriers are
    # listed only for classes that have a corner vector
    cubic = fermat([3] * 6)
    cubic_text = "j; (1 2 3); (4 5 6)"
    models = [(quartic, quartic_group, "j; (1 2 3)"),
              (cubic, lg.closure(lg.parse_generator(t, cubic) for t in cubic_text.split(";")),
               cubic_text)]
    nodes, carries = lg.GradedBasisVector.nodes, lg.state_space._carries
    read, carried = [], []

    def reading(vector):
        read.append(vector)
        return nodes.fget(vector)

    def carrying(group, cosets, fixed, mod):
        carried.append(cosets[0][0])
        return carries(group, cosets, fixed, mod)
    for poly, group, text in models:
        expected = lg.full_comparison(poly, group)
        corners = {v for space in (expected.a_space, expected.b_space)
                   for corner in lg.mirror._corners(space) for _, v in corner}
        assert not group.is_diagonal and not expected.dual_group.is_diagonal
        spec = tmp_path / "model.lg"
        spec.write_text(f"W = {poly}\nG = {text}\n")
        runs = [lambda: lg.full_comparison(poly, group),
                lambda: cli.main(["mirror-check", str(spec)]),
                lambda: cli.main(["mirror-check", str(spec), "--json"])]
        for k, run in enumerate(runs):
            del read[:], carried[:]
            monkeypatch.setattr(lg.GradedBasisVector, "nodes", property(reading))
            monkeypatch.setattr(lg.state_space, "_carries", carrying)
            result = run()
            monkeypatch.undo()
            capsys.readouterr()
            if k == 0:
                assert (result.a_space.basis, result.b_space.basis) == \
                    (expected.a_space.basis, expected.b_space.basis)
            if k < 2:
                assert read == [] and carried == []
            else:
                assert read and set(read) <= corners
                assert carried and set(carried) <= {v.lead for v in corners}


def test_a_diagonal_group_is_searched_form_by_form(quartic, monkeypatch):
    # in a diagonal group a class is one form r and C(r) = N: the search
    # reads r's fixed set and age off its numerators, lists no class and no
    # carrier, and each vector is its one node (r, b, 0), the per-element
    # search's, on G = ⟨j⟩ of the quartic and a seeded random diagonal
    # model, with their G*
    rng = random.Random(3031)
    model = next(m for m in iter(lambda: random_mirror_instance(rng), None) if m[1].is_diagonal)
    sides = []
    for poly, group in [(quartic, lg.closure([lg.exponential_grading(quartic)])), model]:
        star = lg.nonabelian_dual(group, poly)
        sides += [(poly, group, "A"), (poly.transpose(), star, "B")]

    def refuse(*args):
        pytest.fail("a class list or a carrier was read")
    for poly, group, side in sides:
        fresh = lg.SymmetryGroup(group.modulus, group.basis, group.lifts)
        assert fresh.is_diagonal
        monkeypatch.setattr(lg.SymmetryGroup, "class_transversals", property(refuse))
        monkeypatch.setattr(lg.state_space, "_carries", refuse)
        basis = lg.invariant_basis(poly, fresh, side)
        monkeypatch.undo()
        assert basis and all(v.orbit is None and v.nodes == ((v.lead, v.exps, 0),)
                             for v in basis)
        assert [(v.terms, v.bidegree) for v in basis] == \
            [(v.terms, v.bidegree) for v in search_invariant_basis(poly, group, side)]
