"""Classes from H⋊K and the class-representative invariant search.

``invariant_basis`` filters the monomials of one sector per conjugacy class
by the characters of N^σ, searches them under the centralizer's lifts and
carries each kept orbit to the conjugates; ``oracles.search_invariant_basis``
searches every element's sector under the group's generators, conjugating
each element with ``element_map(γ, sector)``.  Both must give the same basis
term for term: phases, exponents, elements, order and bidegrees, as the
library's vectors show them through their ``terms`` and ``bidegree``.  The
classes and transversals found from cosets of N are checked against orbits
under ``oracles.conjugation_table``.
"""

import random
from math import lcm

import pytest

import lgmirror as lg
from lgmirror.linalg import hermite
from oracles import (
    class_heads_by_first_reach,
    class_members,
    class_walk_by_cosets,
    class_walk_by_elements,
    conjugated_by,
    conjugation_table,
    element_map,
    fermat,
    frac_conjugacy_classes,
    frac_form,
    identity_of,
    is_diagonal,
    part_by_elimination,
    preimages_by_scan,
    random_mirror_instance,
    random_monomial_group,
    search_invariant_basis,
    table_classes,
)

NAMES = ["quartic G", "quartic G*", "good quintic G*", "bad quintic G*"]

# quartic A-side groups with non-abelian or non-split H·K structure
QUARTIC_GROUPS = ["j; diag(1/2,1/2,0,0)*(1 2)", "j; (1 2); (1 2 3 4)",
                  "j; diag(1/4,3/4,0,0)*(1 2)(3 4); (1 3)(2 4)"]


@pytest.fixture(scope="module")
def cases(quartic, quartic_group, quintic, good_group, bad_star):
    return {
        "quartic G": (quartic, quartic_group, "A"),
        "quartic G*": (quartic.transpose(),
                       lg.nonabelian_dual(quartic_group, quartic), "B"),
        "good quintic G*": (quintic.transpose(),
                            lg.nonabelian_dual(good_group, quintic), "B"),
        "bad quintic G*": (quintic.transpose(), bad_star, "B"),
    }


def assert_table_rows(group):
    """The classes are the orbits under the oracle's conjugation table,
    every transversal element conjugates the representative to its member,
    the walk over cosets, its cosets listed member by member, gives the walk
    over element positions exactly: members, words and preimages, in order;
    and each class's size is its number of members, the sizes summing to
    the order."""
    table = conjugation_table(group)
    assert len(table) == len(group.generators)
    for gamma, row in zip(group.generators, table):
        assert [group.elements[j] for j in row] == \
            [conjugated_by(g, gamma) for g in group.elements]
    members = class_members(group)
    assert members == class_walk_by_elements(group)
    sizes = [group.class_size(cosets) for cosets in group.class_transversals]
    assert sizes == [len(m) for m in members] and sum(sizes) == group.order
    assert [tuple(sorted(x for x, _, _ in m)) for m in members] == \
        [tuple(group._forms[i] for i in cls) for cls in table_classes(group)]
    make, ident = lg.MonomialSymmetry.from_numerators, identity_of(group).perm
    for m in members:
        rep = make(*m[0][0], group.modulus)
        for x, w, c in m:
            t = make(*w, group.modulus) * make(ident, c, group.modulus)
            assert t in group and conjugated_by(rep, t) == make(*x, group.modulus)


def assert_same_basis(basis, expected):
    """Equal (side, terms, bidegree) for every vector, in order."""
    assert [(v.side, v.terms, v.bidegree) for v in basis] == \
        [(v.side, v.terms, v.bidegree) for v in expected]


def spread_narrow_classes(group) -> int:
    """Classes with no fixed cycle, σ ≠ id, several cosets of im φ_σ and
    several members per coset: where a narrow class's sum is listed from
    ``_carries`` with no lifts, locus or map."""
    ident, mod = group.lifts[0][0], group.modulus
    return sum(1 for cosets in group.class_transversals
               if cosets[0][0][0] != ident and not lg.symmetry.form_cycles(*cosets[0][0], mod)
               and len(cosets) > 1 and len(group._part(cosets[0][0][0]).preimages) > 1)


# the least number of such classes each oracle comparison below reaches
SPREAD_NARROW = {"bad quintic G*": 12, "random models": 4, QUARTIC_GROUPS[2]: 2,
                 "6 cubics, G = j; (1 2 3); (4 5 6)": 16}


@pytest.mark.parametrize("name", NAMES)
def test_invariant_basis_matches_per_element_search(cases, name):
    poly, group, side = cases[name]
    basis = lg.invariant_basis(poly, group, side)
    assert_same_basis(basis, search_invariant_basis(poly, group, side))
    assert len(basis) > 0
    assert spread_narrow_classes(group) >= SPREAD_NARROW.get(name, 0)


@pytest.mark.parametrize("name", NAMES)
def test_conjugation_table_and_classes(cases, name):
    _, group, _ = cases[name]
    assert_table_rows(group)
    classes = [tuple(frac_form(g) for g in cls) for cls in group.conjugacy_classes()]
    assert classes == frac_conjugacy_classes(
        [frac_form(g) for g in group.elements],
        [frac_form(g) for g in group.generators])


def test_invariant_basis_matches_on_random_models():
    rng, spread = random.Random(3), 0
    for _ in range(30):
        poly, group = random_mirror_instance(rng)
        star = lg.nonabelian_dual(group, poly)
        for w, g, side in ((poly, group, "A"), (poly.transpose(), star, "B")):
            assert_table_rows(g)
            assert_same_basis(lg.invariant_basis(w, g, side),
                              search_invariant_basis(w, g, side))
            spread += spread_narrow_classes(g)
    assert spread >= SPREAD_NARROW["random models"]


def assert_fixed_generators(group):
    """For each σ of a class representative, N^σ's generators are found
    once, kept with N^σ, and generate N^σ: the diagonal elements c with
    c∘σ = c, filtered from the group's elements."""
    make, mod = lg.MonomialSymmetry.from_numerators, group.modulus
    for cosets in group.class_transversals:
        sigma = cosets[0][0][0]
        gens = group._part(sigma).generators
        assert group._part(sigma).generators is gens
        fixed = tuple(g for g in group.elements if is_diagonal(g) and all(
            g.nums[s] == x for s, x in zip(sigma, g.nums)))
        made = lg.closure(make(*form, mod) for form in gens).elements if gens \
            else (identity_of(group),)
        assert made == fixed


def assert_parts_match_scan(group):
    """For every σ ∈ P, σ's record against a scan of N: the same values of
    φ_σ, 0 first with preimage 0, each kept c in N with φ_σ(c) the value
    it is kept for, and the same Hermite basis of N^σ."""
    make, mod, (ident, zero) = lg.MonomialSymmetry.from_numerators, group.modulus, group.lifts[0]
    for sigma, _ in group.lifts:
        part = group._part(sigma)
        preimages, kernel = preimages_by_scan(group, sigma)
        assert set(part.preimages) == set(preimages)
        assert next(iter(part.preimages.items())) == (zero, zero)
        for v, c in part.preimages.items():
            assert make(ident, c, mod) in group
            assert tuple([(c[s] - x) % mod for s, x in zip(sigma, c)]) == v
        assert part.basis == kernel


def test_fixed_generators_are_kept_and_generate(cases, quintic, good_group, bad_group):
    for group in [cases[name][1] for name in NAMES] + [good_group, bad_group]:
        assert_fixed_generators(group)
    rng = random.Random(11)
    for _ in range(30):
        poly, group = random_mirror_instance(rng)
        for g in (group, lg.nonabelian_dual(group, poly)):
            assert_fixed_generators(g)
            assert_parts_match_scan(g)


def test_permutation_parts_match_a_scan_of_n(cases, good_group, bad_group, cubic_sides):
    # the paper's groups and G*s, the quartic and the cubics; the random
    # models are checked with their fixed generators above
    for group in [cases[name][1] for name in NAMES] + [good_group, bad_group] + \
            [group for _, group, _ in cubic_sides]:
        assert_parts_match_scan(group)


def test_class_transversals_eliminate_once_per_permutation_part(cases, monkeypatch):
    # the class walk reads N^σ and the preimages of φ_σ from one record per
    # σ, made by one Hermite form over 2n columns, and meets every σ ∈ P;
    # the record of σ = id is written down, with no elimination
    calls = []

    def counted(rows, mod):
        calls.append(len(rows[0]))
        return hermite(rows, mod)
    for name in NAMES:
        group = cases[name][1]
        expected = group.class_transversals
        fresh = lg.SymmetryGroup(group.modulus, group.basis, group.lifts)
        calls.clear()
        monkeypatch.setattr(lg.symmetry, "hermite", counted)
        assert fresh.class_transversals == expected
        monkeypatch.undo()
        assert not fresh.is_diagonal and calls == [2 * fresh.n] * (len(fresh.lifts) - 1)


def test_the_identity_record_is_the_elimination_written_down():
    # N^id = N and im φ_id = 0, so σ = id's record is written down; it must
    # be the value the 2n-column elimination gives, field by field, the
    # preimages in their order
    rng, kinds = random.Random(28), set()
    for _ in range(240):
        group = random_monomial_group(rng, cap=10 ** 6)
        kinds.add(group.is_diagonal)
        ident = group.lifts[0][0]
        part, expected = group._part(ident), part_by_elimination(group, ident)
        assert list(part[:3]) == list(expected[:3])
        assert list(part.preimages.items()) == list(expected[3].items())
    assert kinds == {True, False}


def test_the_identity_record_and_a_diagonal_group_run_no_elimination(monkeypatch, quartic,
                                                                     quartic_group, bad_star):
    # no Hermite form for σ = id on any group, nor for a diagonal group's
    # classes, their sizes and its invariant search
    groups = [quartic_group, bad_star, lg.closure([lg.exponential_grading(quartic)])]
    assert [g.is_diagonal for g in groups] == [False, False, True]
    fresh = [lg.SymmetryGroup(g.modulus, g.basis, g.lifts) for g in groups]

    def refuse(*args):
        raise AssertionError("no elimination expected")
    monkeypatch.setattr(lg.symmetry, "hermite", refuse)
    for group in fresh:
        assert group._part(group.lifts[0][0]).preimages == {group.lifts[0][1]: group.lifts[0][1]}
    diagonal = fresh[-1]
    sizes = [diagonal.class_size(cosets) for cosets in diagonal.class_transversals]
    assert sizes == [1] * diagonal.order
    assert len(lg.invariant_basis(quartic, diagonal, "A")) > 0


def test_class_walk_matches_the_element_walk_on_random_groups():
    # non-diagonal groups of order at most 200 on 1–5 variables, with
    # nonzero lifts, A4 on 4 variables (|P| = 12) and |P| up to 120: the
    # coset walk, words and preimages included, against the walk over
    # element positions
    rng, seen, parts, phased = random.Random(2828), 0, set(), False
    while seen < 110:
        group = random_monomial_group(rng, cap=200)
        if group.is_diagonal:
            continue
        seen += 1
        parts.add(len(group.lifts))
        phased |= any(any(a) for _, a in group.lifts)
        assert class_members(group) == class_walk_by_elements(group)
    assert 12 in parts and max(parts) > 12 and phased


def cubic_cycles(k):
    """K = C3^k on 3k cubics, G = (1 2 3); (4 5 6); …: |P| = 3^k and N = {0}."""
    poly = fermat([3] * (3 * k))
    return lg.closure(lg.parse_generator(f"({i} {i + 1} {i + 2})", poly)
                      for i in range(1, 3 * k, 3))


def test_class_walk_matches_the_walk_over_cosets():
    # every class read off P's one walk against the breadth-first walk over
    # cosets it replaced, heads, words and order included: on 300 seeded
    # random groups of order at most 200, on the G* of the 6-cubic, the
    # 5-quintic and the A6 cubic (|P| = 9, 60 and 360) and on C3^5 (|P| =
    # 243, one coset per class), each group fresh
    rng = random.Random(3131)
    groups = [random_monomial_group(rng, cap=200) for _ in range(300)]
    for degrees, text in (([3] * 6, "j; (1 2 3); (4 5 6)"), ([5] * 5, "j; (1 2 3); (3 4 5)"),
                          ([3] * 6, "(1 2 3); (2 3 4 5 6)")):
        poly = fermat(degrees)
        groups.append(lg.nonabelian_dual(
            lg.closure(lg.parse_generator(t, poly) for t in text.split(";")), poly))
    groups.append(cubic_cycles(5))
    assert [len(group.lifts) for group in groups[-4:]] == [9, 60, 360, 243]
    assert sum(not group.is_diagonal for group in groups) > 100
    for group in groups:
        assert group.class_transversals == class_walk_by_cosets(group)


def star_of(degrees, text):
    """G* for W = Σ x_i^d_i and the G its ';'-separated generators generate."""
    poly = fermat(degrees)
    return lg.nonabelian_dual(
        lg.closure(lg.parse_generator(t, poly) for t in text.split(";")), poly)


A6_CUBIC, SEXTIC = ([3] * 6, "(1 2 3); (2 3 4 5 6)"), ([6] * 7, "j; (1 2 3); (4 5 6)")


def test_each_coset_keeps_the_word_of_the_first_tau_to_reach_it():
    # the class walk tries every lift generator from each coset's first τ
    # and keeps P's walk's word for τ∘γ, which is exact because a coset is
    # first met along the edge by which P's walk first reached that word's
    # τ: each coset's word is the first in P's reach order that carries the
    # class's leader r into it, and its head is exactly w⁻¹·r·w, against a
    # walk of P by element products.  On the random groups of the walk over
    # cosets above, the G* of the A6 cubic with j (|P| = 360) and of the
    # 6-cubic (|P| = 9), and C3^5 (|P| = 243), each group fresh
    rng = random.Random(3131)
    groups = [random_monomial_group(rng, cap=200) for _ in range(300)]
    groups += [star_of([3] * 6, "j; (1 2 3); (2 3 4 5 6)"),
               star_of([3] * 6, "j; (1 2 3); (4 5 6)"), cubic_cycles(5)]
    assert [len(group.lifts) for group in groups[-3:]] == [360, 9, 243]
    for group in groups:
        assert group.class_transversals == class_heads_by_first_reach(group)


def test_the_class_walk_inverts_each_lift_generator_once(monkeypatch):
    # the class walk tries every lift generator from each coset and inverts
    # each once, on fresh groups: C3^5, the A6 cubic's G* and the
    # non-abelian sextic's G*, with 5, 4 and 2 lift generators, where a
    # replay of P that inverted one generator per edge of P's walk made
    # 242, 359 and 8 inversions
    invert, calls = lg.symmetry._invert, []

    def counted(form, mod):
        calls.append(mod)
        return invert(form, mod)
    for group, gens in ((cubic_cycles(5), 5), (star_of(*A6_CUBIC), 4), (star_of(*SEXTIC), 2)):
        fresh = lg.SymmetryGroup(group.modulus, group.basis, group.lifts)
        calls.clear()
        monkeypatch.setattr(lg.symmetry, "_invert", counted)
        assert fresh.class_transversals
        monkeypatch.undo()
        assert len(fresh._lift_gens) == gens and len(calls) <= gens


def test_a_class_walk_costs_its_cosets(monkeypatch):
    # C3^5 has |P| = 243, five lift generators and 242 classes with σ ≠ id,
    # one coset each: its walk reduces at most one head per coset and lift
    # generator (1,210 in all), where a step per coset τ∘⟨σ⟩ of P for each
    # class made 19,360
    group = cubic_cycles(5)
    fresh = lg.SymmetryGroup(group.modulus, group.basis, group.lifts)
    calls, reduce_by = [], lg.symmetry.reduce_by

    def counted(*args):
        calls.append(len(args[0]))
        return reduce_by(*args)
    monkeypatch.setattr(lg.symmetry, "reduce_by", counted)
    classes = fresh.class_transversals
    monkeypatch.undo()
    moved = [cosets for cosets in classes if cosets[0][0][0] != fresh.lifts[0][0]]
    assert (len(fresh.lifts), len(fresh._lift_gens), len(moved)) == (243, 5, 242)
    assert len(calls) <= sum(map(len, moved)) * len(fresh._lift_gens) == 1210


def test_a_trivial_diagonal_part_writes_each_record_down(monkeypatch, quintic, bad_group):
    # N = {0} over modulus 1, so for every σ N^σ = N, im φ_σ = 0 and the one
    # preimage is 0: each record is written down, the value the 2n-column
    # elimination gives, and the class walk runs no elimination on C3^4, on
    # K = A6 on 6 cubics and on the bad quintic's K
    poly = fermat([3] * 6)
    groups = [cubic_cycles(4), lg.closure(lg.parse_generator(t, poly)
                                          for t in "(1 2 3); (2 3 4 5 6)".split(";")),
              lg.decompose_hk(bad_group, quintic).k]
    assert [(group.modulus, len(group.lifts)) for group in groups] == [(1, 81), (1, 360), (1, 4)]
    fresh = [lg.SymmetryGroup(group.modulus, group.basis, group.lifts) for group in groups]

    def refuse(*args):
        raise AssertionError("no elimination expected")
    monkeypatch.setattr(lg.symmetry, "hermite", refuse)
    for group in fresh:
        assert group.class_transversals
    monkeypatch.undo()
    for group in fresh:
        for sigma, _ in group.lifts:
            part, expected = group._part(sigma), part_by_elimination(group, sigma)
            assert list(part[:3]) == list(expected[:3])
            assert list(part.preimages.items()) == list(expected[3].items())


def test_class_walk_over_cosets_matches_the_element_walk(quartic, good_group, bad_group):
    # the paper's G, the cubics and the random models are checked in
    # assert_table_rows, with their class sizes; the third quartic group
    # has a lift with nonzero phases, so its class leaders are listed from
    # a_σ ≠ 0
    quartics = [lg.closure(lg.parse_generator(t, quartic) for t in text.split(";"))
                for text in QUARTIC_GROUPS]
    assert any(any(a) for _, a in quartics[2].lifts)
    for group in [good_group, bad_group] + quartics:
        members = class_members(group)
        assert members == class_walk_by_elements(group)
        sizes = [group.class_size(cosets) for cosets in group.class_transversals]
        assert sizes == [len(m) for m in members] and sum(sizes) == group.order


def test_the_class_walk_lists_no_form(cases, bad_star):
    # the walk lists the least member of each coset of im φ_σ, not G, and
    # no form index is kept; a class holds one (head, w) per coset and none
    # per member: the cubic G* of K = ⟨(1 2 3), (4 5 6)⟩ has 2,187 elements
    # in 107 classes, held as 387 pairs
    poly = fermat([3] * 6)
    cubic = lg.nonabelian_dual(
        lg.closure(lg.parse_generator(t, poly) for t in "j; (1 2 3); (4 5 6)".split(";")), poly)
    for group in (cases["quartic G*"][1], bad_star, cubic):
        fresh = lg.SymmetryGroup(group.modulus, group.basis, group.lifts)
        assert not fresh.is_diagonal and fresh.class_transversals
        assert "_forms" not in fresh.__dict__
    assert not hasattr(lg.SymmetryGroup, "_index")
    classes = cubic.class_transversals
    assert (cubic.order, len(classes)) == (2187, 107)
    assert sum(len(cosets) for cosets in classes) == 387
    assert {len(entry) for cosets in classes for entry in cosets} == {2}


@pytest.mark.parametrize("text", QUARTIC_GROUPS)
def test_invariant_basis_matches_on_quartic_groups(quartic, text):
    group = lg.closure(lg.parse_generator(t, quartic) for t in text.split(";"))
    basis = lg.invariant_basis(quartic, group, "A")
    assert_same_basis(basis, search_invariant_basis(quartic, group, "A"))
    assert len(basis) > 0
    assert spread_narrow_classes(group) >= SPREAD_NARROW.get(text, 0)


@pytest.mark.parametrize("name", NAMES[1:] + QUARTIC_GROUPS)
def test_coset_map_and_character_give_each_transversal_map(cases, quartic, name):
    """Each member x = (w·c)⁻¹·r·(w·c) is reached by the map of its coset
    head's w and then c's character on the head's fixed cycles; on every
    monomial of r's sector that must equal the map of w·c itself."""
    if name in cases:
        poly, group, _ = cases[name]
    else:
        poly = quartic
        group = lg.closure(lg.parse_generator(t, quartic) for t in name.split(";"))
    mod = lcm(2, group.modulus)
    make, ident = lg.MonomialSymmetry.from_numerators, identity_of(group).perm
    for cosets, members in zip(group.class_transversals, class_members(group)):
        sector = lg.build_sector(poly, make(*cosets[0][0], group.modulus))
        carries = lg.state_space._carries(group, cosets, sector.locus.cycles, mod)
        reached = [(x, sm, c, form) for sm, coset in carries for x, c, form in coset]
        assert [x for x, _, _, _ in reached] == [x for x, _, _ in members]
        for (x, w, c), (_, sm, at, form) in zip(members, reached):
            t = make(*w, group.modulus) * make(ident, c, group.modulus)
            full, target = element_map(t, sector)
            assert target.element == make(*x, group.modulus)
            for b in sector.basis:
                image, delta = (b, 0) if sm is None else sm.apply(b, mod)
                delta += form + sum(e * k for e, k in zip(image, at))
                assert (image, delta % mod) == full.apply(b, mod)


def test_bad_quintic_builds_fewer_sectors_than_elements(cases, monkeypatch):
    # a fixed locus is read off a form only for the pullback maps: one per
    # class with lifts and one per coset head, not one per element
    poly, group, side = cases["bad quintic G*"]
    assert group.order == 2500
    loci, locus = [], lg.state_space.form_locus

    def counting(*args):
        loci.append(args)
        return locus(*args)
    monkeypatch.setattr(lg.state_space, "form_locus", counting)
    basis = lg.invariant_basis(poly, group, side)
    assert len(basis) == 88
    assert len(loci) < 300


# an abelian G* whose 729 elements share 121 fixed loci, and a non-abelian
# one of order 2,187 whose K = ⟨(1 2 3), (4 5 6)⟩ moves the fixed cycles
CUBICS = {"7 cubics, G = j": ([3] * 7, "j", 729),
          "6 cubics, G = j; (1 2 3); (4 5 6)": ([3] * 6, "j; (1 2 3); (4 5 6)", 2187)}


@pytest.fixture(scope="module", params=list(CUBICS))
def cubic_sides(request):
    degrees, text, star_order = CUBICS[request.param]
    poly = fermat(degrees)
    group = lg.closure(lg.parse_generator(t, poly) for t in text.split(";"))
    star = lg.nonabelian_dual(group, poly)
    assert star.order == star_order
    return (poly, group, "A"), (poly.transpose(), star, "B")


def test_invariant_basis_matches_on_cubics(cubic_sides, request):
    spread = 0
    for poly, group, side in cubic_sides:
        basis = lg.invariant_basis(poly, group, side)
        assert_same_basis(basis, search_invariant_basis(poly, group, side))
        assert len(basis) > 0
        spread += spread_narrow_classes(group)
    assert spread >= SPREAD_NARROW.get(request.node.callspec.params["cubic_sides"], 0)


def test_cubic_classes_match_table(cubic_sides):
    for _, group, _ in cubic_sides:
        assert_table_rows(group)


def test_abelian_b_side_builds_no_sector_map(monkeypatch):
    poly = fermat([3] * 7)
    star = lg.nonabelian_dual(lg.closure([lg.exponential_grading(poly)]), poly)
    assert star.order == 729 and star.is_diagonal

    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal group needs no sector map")
    monkeypatch.setattr(lg.state_space, "sector_map", refuse)
    assert len(lg.invariant_basis(poly.transpose(), star, "B")) > 0


def test_the_walk_of_n_composes_one_word_per_permutation(bad_star, monkeypatch):
    # P is walked once, one product per τ and lift generator and one word
    # kept per τ, and every class is read off that walk, its cosets keeping
    # the walk's words: no word is composed past it.  Besides, ⟨σ⟩ is walked
    # once for each σ that leads a class, one product per power.  Counted on
    # fresh groups, the lift generators included: the bad quintic's G*
    # (|P| = 4, 18 for P and 6 for the three σ of order 2) and the 6-cubic's
    # (|P| = 9, 39 for P and 24 for the eight σ of order 3), where a walk
    # over cosets composing one word per coset took 48 and 119, and walking
    # each coset of N from its own word 490 and 301
    poly = fermat([3] * 6)
    cubic = lg.nonabelian_dual(
        lg.closure(lg.parse_generator(t, poly) for t in "j; (1 2 3); (4 5 6)".split(";")), poly)
    compose, calls = lg.symmetry._compose, []

    def counting(a, b, mod):
        calls.append(mod)
        return compose(a, b, mod)
    for group, count in ((bad_star, 24), (cubic, 63)):
        fresh = lg.SymmetryGroup(group.modulus, group.basis, group.lifts)
        calls.clear()
        monkeypatch.setattr(lg.symmetry, "_compose", counting)
        classes = fresh.class_transversals
        monkeypatch.undo()
        assert len(calls) == count and classes == group.class_transversals
        assert sum(len(cosets) for cosets in classes if cosets[0][0][0] == group.lifts[0][0]) \
            == group.order // len(group.lifts)
