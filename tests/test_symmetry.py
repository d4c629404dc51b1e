import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import lgmirror as lg
from lgmirror import symmetry
from lgmirror.errors import (
    CapExceededError,
    DimensionMismatchError,
    NotAGroupError,
    NotAMemberError,
    NotAPermutationError,
    NotASymmetryError,
    ParseError,
)
from oracles import (
    apply_to_vector,
    brute_force_centralizer,
    brute_force_diagonal,
    canonical_vectors,
    class_members,
    class_of,
    conjugated_by,
    determinant,
    element_of_matrix,
    frac_cycles,
    frac_fixed_locus,
    frac_form,
    group_of_forms,
    identity_of,
    index_of,
    is_identity,
    matrix_product,
    outcome,
    phase_matrix,
    random_mirror_instance,
    reference_parse_cycles,
    sl_subgroup,
    sorted_subgroups,
    two_generated_subgroups,
)


def diag(*phases):
    return lg.MonomialSymmetry.diagonal([F(p) for p in phases])


def perm(cycles, n):
    return lg.MonomialSymmetry.from_cycles(cycles, n)


def test_composition_of_mixed_elements():
    # the two displayed products of (1/2,1/4,1/4,0)(123) and (1/2,1/4,1/4,0)(132)
    a = diag("1/2", "1/4", "1/4", 0) * perm([(0, 1, 2)], 4)
    b = diag("1/2", "1/4", "1/4", 0) * perm([(0, 2, 1)], 4)
    assert (a * b) == diag("3/4", "1/2", "3/4", 0)
    assert (b * a) == diag("3/4", "3/4", "1/2", 0)


def test_inverse_and_identity():
    g = diag("1/2", "1/4", "1/4", 0) * perm([(0, 1, 2)], 4)
    assert is_identity(g * g.inverse())
    assert is_identity(g.inverse() * g)
    assert g ** 0 == lg.MonomialSymmetry.identity(4)
    assert g ** -1 == g.inverse()


def _random_element(rng, n, denominator=12):
    images = list(range(n))
    rng.shuffle(images)
    phases = [F(rng.randrange(denominator), denominator) for _ in range(n)]
    return lg.MonomialSymmetry(images, phases)


def test_composition_matches_dense_matrix_product():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 8)
        a = _random_element(rng, n)
        b = _random_element(rng, n)
        dense = element_of_matrix(matrix_product(phase_matrix(a),
                                                 phase_matrix(b)))
        assert a * b == dense


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10 ** 9))
def test_composition_is_associative(n, seed):
    rng = random.Random(seed)
    a, b, c = (_random_element(rng, n) for _ in range(3))
    assert (a * b) * c == a * (b * c)


def test_is_symmetry_on_quartic(quartic):
    assert lg.is_symmetry(lg.exponential_grading(quartic), quartic)
    assert lg.is_symmetry(perm([(0, 1, 2)], 4), quartic)
    assert not lg.is_symmetry(diag("1/3", 0, 0, 0), quartic)
    with pytest.raises(DimensionMismatchError):
        lg.is_symmetry(diag("1/4", "1/4"), quartic)


def test_is_symmetry_respects_weights():
    poly = lg.parse_polynomial("x1^3 + x2^4 + x3^4")
    # x2, x3 share a weight; x1 does not
    assert lg.is_symmetry(perm([(1, 2)], 3), poly)
    assert not lg.is_symmetry(perm([(0, 1)], 3), poly)


def test_a_group_keeps_each_polynomial_it_passed_for(quartic, monkeypatch):
    # check_symmetries checks a group's generators once per W it passes for:
    # a failure is never kept, so a bad group raises on every call, and a
    # group kept for W is checked afresh for any other polynomial
    checked, check = [], symmetry.is_symmetry

    def checking(g, w):
        checked.append((g, w))
        return check(g, w)
    monkeypatch.setattr(symmetry, "is_symmetry", checking)
    bad = lg.closure([diag("1/3", 0, 0, 0)])
    for calls in (1, 2):
        with pytest.raises(NotASymmetryError, match=r"^\(1/3, 0, 0, 0\) is not a symmetry of "):
            symmetry.check_symmetries(bad, quartic)
        assert len(checked) == calls
    group = lg.closure([lg.exponential_grading(quartic), perm([(0, 1, 2)], 4)])
    checked.clear()
    for _ in range(3):
        symmetry.check_symmetries(group, quartic)
    assert checked == [(g, quartic) for g in group.generators]
    octic_x4 = lg.parse_polynomial("x1^4 + x2^4 + x3^4 + x4^8")  # j_W of the quartic fixes it
    quintic_x4 = lg.parse_polynomial("x1^4 + x2^4 + x3^4 + x4^5")  # and not this one
    checked.clear()
    symmetry.check_symmetries(group, octic_x4)
    assert checked == [(g, octic_x4) for g in group.generators]
    for _ in range(2):
        with pytest.raises(NotASymmetryError):
            symmetry.check_symmetries(group, quintic_x4)
    symmetry.check_symmetries(group, quartic)
    assert len(checked) == len(group.generators) + 2


def test_diagonal_group_fermat_quartic(quartic):
    group = lg.diagonal_group(quartic)
    assert group.order == 256
    assert {g.phases for g in group} == brute_force_diagonal(quartic)


def test_diagonal_group_chain_is_cyclic_of_order_12():
    poly = lg.parse_polynomial("x1^3*x2 + x2^2*x3 + x3^2")
    group = lg.diagonal_group(poly)
    assert group.order == 12
    assert {g.phases for g in group} == brute_force_diagonal(poly)
    assert max(g.order() for g in group) == 12  # cyclic


def test_diagonal_group_order_equals_determinant():
    rng = random.Random(3)
    samples = [
        "x1^2 + x2^3",
        "x1^3*x2 + x2^2",
        "x1^2*x2 + x2^2*x3 + x3^2*x1",
        "x1^5 + x2^2*x3 + x3^3",
    ]
    for text in samples:
        poly = lg.parse_polynomial(text)
        group = lg.diagonal_group(poly)
        assert group.order == abs(int(determinant(poly.exponents)))
        assert {g.phases for g in group} == brute_force_diagonal(poly)


def test_exponential_grading(quartic):
    j = lg.exponential_grading(quartic)
    assert j == diag("1/4", "1/4", "1/4", "1/4")
    assert j in lg.diagonal_group(quartic)
    quintic = lg.parse_polynomial("x1^5 + x2^5 + x3^5 + x4^5 + x5^5")
    assert lg.exponential_grading(quintic).phases == (F(1, 5),) * 5
    loop = lg.parse_polynomial("x1^2*x2 + x2^2*x3 + x3^2*x1")
    assert lg.exponential_grading(loop).phases == (F(1, 3),) * 3


def test_closure_orders(quartic, quartic_group):
    assert quartic_group.order == 12
    assert lg.closure([lg.MonomialSymmetry.identity(3)]).order == 1
    sl = sl_subgroup(lg.diagonal_group(quartic))
    star = lg.closure(list(sl.generators) + [perm([(0, 1, 2)], 4)])
    assert star.order == 192


def test_closure_cap():
    with pytest.raises(CapExceededError):
        lg.closure([diag("1/4", "1/4", "1/4", "1/4")], cap=3)
    assert lg.closure([diag("1/4", "1/4", "1/4", "1/4")], cap=4).order == 4


def test_element_needs_a_permutation():
    with pytest.raises(NotAPermutationError):
        lg.MonomialSymmetry((0, 0, 2), (0, 0, 0))


def test_group_needs_elements_and_identity():
    for lifts in ([], [((1, 0), (0, 0))]):
        with pytest.raises(NotAGroupError, match="identity missing"):
            lg.SymmetryGroup(1, [(1, 0), (0, 1)], lifts)
    # the list form refuses the same lists
    with pytest.raises(NotAGroupError, match="at least the identity"):
        group_of_forms([], 1)
    with pytest.raises(NotAGroupError, match="identity missing"):
        group_of_forms([((0, 1), (1, 1))], 2)


def test_closure_needs_a_generator():
    with pytest.raises(NotAGroupError):
        lg.closure([])


def test_sl_subgroup(quartic):
    sl = sl_subgroup(lg.diagonal_group(quartic))
    assert sl.order == 64
    gens = [diag("1/4", "1/4", "1/4", "1/4"), diag("1/2", "1/4", "1/4", 0),
            diag("1/4", "1/2", "1/4", 0)]
    assert lg.closure(gens) == sl
    assert perm([(0, 1, 2)], 4).det_phase() == 0
    assert perm([(0, 1)], 4).det_phase() == F(1, 2)


def test_conjugacy_classes_abelian_are_singletons(quartic_group):
    classes = quartic_group.conjugacy_classes()
    assert len(classes) == quartic_group.order
    assert all(len(c) == 1 for c in classes)


def test_conjugacy_classes_and_centralizers_nonabelian(quartic):
    sl = sl_subgroup(lg.diagonal_group(quartic))
    star = lg.closure(list(sl.generators) + [perm([(0, 1, 2)], 4)])
    for cls in star.conjugacy_classes():
        assert len(cls) * star.centralizer(cls[0]).order == star.order
    assert sum(len(c) for c in star.conjugacy_classes()) == star.order
    assert len(class_of(star, diag("1/4", "1/2", "1/2", "3/4"))) == 3
    jperm = diag("1/4", "1/4", "1/4", "1/4") * perm([(0, 1, 2)], 4)
    assert len(class_of(star, jperm)) == 16
    with pytest.raises(NotAMemberError):
        star.centralizer(diag("1/3", 0, 0, 0))


# split and non-split, abelian and non-abelian groups on the quartic
QUARTIC_GROUPS = ["j; (1 2 3)", "j; diag(1/2,1/2,0,0)*(1 2)",
                  "j; (1 2); (1 2 3 4)",
                  "j; diag(1/4,3/4,0,0)*(1 2)(3 4); (1 3)(2 4)"]


@pytest.mark.parametrize("text", QUARTIC_GROUPS)
def test_centralizers_match_filter(quartic, text):
    group = lg.closure(lg.parse_generator(t, quartic) for t in text.split(";"))
    for g in group.elements:  # representatives and every other member
        cent = group.centralizer(g)
        assert list(cent.elements) == brute_force_centralizer(group, g)
        assert lg.closure(cent.generators).elements == cent.elements
        assert len(class_of(group, g)) * cent.order == group.order


def test_centralizers_of_quartic_dual_match_filter(quartic, quartic_group):
    star = lg.nonabelian_dual(quartic_group, quartic)
    for cls in star.conjugacy_classes():
        for g in (cls[0], cls[-1]):
            cent = star.centralizer(g)
            assert list(cent.elements) == brute_force_centralizer(star, g)
            assert lg.closure(cent.generators).elements == cent.elements


def test_centralizer_makes_its_generators_from_forms(bad_star):
    # C(g) needs its generators, not a list of every element of G
    fresh = lg.SymmetryGroup(bad_star.modulus, bad_star.basis, bad_star.lifts)
    for g in (bad_star.generators[0], bad_star.generators[-1]):
        cent = fresh.centralizer(g)
        assert lg.closure(cent.generators).elements == cent.elements
    assert "elements" not in fresh.__dict__


def test_derived_structure_is_computed_once(monkeypatch, quartic_group, bad_group, bad_star):
    calls = []
    pick = symmetry._lift_generators
    monkeypatch.setattr(symmetry, "_lift_generators", lambda *args: calls.append(1) or pick(*args))
    for group in (quartic_group, bad_group, bad_star):
        fresh = lg.SymmetryGroup(group.modulus, group.basis, group.lifts)  # generators not given
        first = fresh.generators, fresh.class_transversals, fresh.conjugacy_classes()
        made = len(calls)
        assert made > 0
        again = fresh.generators, fresh.class_transversals, fresh.conjugacy_classes()
        assert len(calls) == made
        assert all(a is b for a, b in zip(first, again))


def test_class_transversals_conjugate_the_representative(quartic):
    text = "j; diag(1/4,3/4,0,0)*(1 2)(3 4); (1 3)(2 4)"
    group = lg.closure(lg.parse_generator(t, quartic) for t in text.split(";"))
    members = class_members(group)
    make, ident = lg.MonomialSymmetry.from_numerators, identity_of(group).perm
    assert [tuple(make(*x, group.modulus) for x in sorted(x for x, _, _ in m))
            for m in members] == list(group.conjugacy_classes())
    for m in members:
        rep = make(*m[0][0], group.modulus)
        assert m[0][0] == min(x for x, _, _ in m)
        for x, w, c in m:
            t = make(*w, group.modulus) * make(ident, c, group.modulus)
            assert t in group and conjugated_by(rep, t) == make(*x, group.modulus)


def test_age_values(quartic):
    j = lg.exponential_grading(quartic)
    assert j.age() == 1
    assert perm([(0, 1, 2)], 4).age() == 1
    assert perm([(0, 2, 1)], 4).age() == 1
    assert (j * perm([(0, 1, 2)], 4)).age() == 2
    g = diag("1/4", "1/2", "3/4", 0)
    assert g.age() == sum(g.phases)  # diagonal: plain phase sum
    assert lg.MonomialSymmetry.identity(4).age() == 0


def test_age_inverse_identity_random():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 8)
        g = _random_element(rng, n)
        assert g.age() + g.inverse().age() == n - g.fixed_locus().dim


def test_age_and_locus_conjugation_invariant():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 7)
        g = _random_element(rng, n)
        gamma = _random_element(rng, n)
        conj = conjugated_by(g, gamma)
        assert conj.age() == g.age()
        assert conj.fixed_locus().dim == g.fixed_locus().dim


def test_fixed_locus_examples(quartic):
    locus = perm([(0, 1, 2)], 4).fixed_locus()
    assert locus.dim == 2
    assert locus.cycles == ((0, 1, 2), (3,))
    assert canonical_vectors(locus) == ((F(0), F(0), F(0), None),
                                        (None, None, None, F(0)))
    assert lg.exponential_grading(quartic).fixed_locus().dim == 0
    assert lg.MonomialSymmetry.identity(4).fixed_locus().dim == 4


def test_fixed_cycles_are_the_fixed_locus_cycles(quartic, quintic, quartic_group,
                                                 good_group, bad_group):
    # one predicate: the cycles whose phases sum to an integer, as the
    # Fraction oracle finds them, on every element of G and G*
    models = [(quartic, quartic_group), (quintic, good_group), (quintic, bad_group)]
    rng = random.Random(4217)
    models += [random_mirror_instance(rng) for _ in range(30)]
    for poly, group in models:
        for g in list(group) + list(lg.nonabelian_dual(group, poly)):
            assert g.fixed_cycles() == g.fixed_locus().cycles == frac_fixed_locus(frac_form(g))[0]


def test_fixed_vectors_are_fixed_random():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 7)
        g = _random_element(rng, n)
        for vec in canonical_vectors(g.fixed_locus()):
            assert apply_to_vector(g, vec) == vec


def test_conjugation_moves_fixed_vectors():
    # x in Fix(g)  <=>  γ⁻¹·x in Fix(γ⁻¹gγ)
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 6)
        g = _random_element(rng, n)
        gamma = _random_element(rng, n)
        conj = conjugated_by(g, gamma)
        for vec in canonical_vectors(g.fixed_locus()):
            moved = apply_to_vector(gamma.inverse(), vec)
            assert apply_to_vector(conj, moved) == moved


def test_subgroup_enumeration_small():
    klein = lg.closure([perm([(0, 1), (2, 3)], 5), perm([(0, 2), (1, 3)], 5)])
    assert len(klein.subgroups()) == 5
    three = lg.closure([perm([(0, 1, 2)], 4)])
    assert len(three.subgroups()) == 2
    s3 = lg.closure([perm([(0, 1)], 3), perm([(0, 1, 2)], 3)])
    assert s3.order == 6 and not s3.is_abelian
    assert len(s3.subgroups()) == 6


@pytest.mark.parametrize("n,generators,count", [
    (4, [[(0, 1)], [(0, 1, 2, 3)]], 30),  # S4
    (5, [[(0, 1, 2)], [(0, 1, 2, 3, 4)]], 59),  # A5
], ids=["S4", "A5"])
def test_subgroups_match_two_generated_oracle(n, generators, count):
    # every subgroup of S4 and of A5 is generated by two elements
    group = lg.closure(perm(cycles, n) for cycles in generators)
    subgroups = group.subgroups()
    assert len(subgroups) == count
    assert [[frac_form(g) for g in sub] for sub in subgroups] == \
        two_generated_subgroups(group)
    assert [[index_of(group, g) for g in sub] for sub in subgroups] == sorted_subgroups(group)


def test_subgroup_walk_matches_sorted_enumeration(quartic):
    # the heap walk yields, in order, what collecting all 1,983 subgroups of
    # the quartic's diagonal group and sorting them gives
    group = lg.diagonal_group(quartic)
    assert [[index_of(group, g) for g in sub] for sub in group.subgroups()] == \
        sorted_subgroups(group)


def test_parse_generator(quartic):
    assert lg.parse_generator("j", quartic) == lg.exponential_grading(quartic)
    g = lg.parse_generator("diag(1/2, 1/4, 1/4, 0)*(1 2 3)", quartic)
    assert g == diag("1/2", "1/4", "1/4", 0) * perm([(0, 1, 2)], 4)
    assert lg.parse_generator("(1 2)(3 4)", quartic) == perm([(0, 1), (2, 3)], 4)
    assert lg.parse_generator("diag(3/4, 0, 0, 1/4)", quartic) == \
        diag("3/4", 0, 0, "1/4")
    for bad in ("diag(1/2, 1/4)", "(1 2", "(1 5)", "(1 1 2)", "diag(1/2,0,0,0)(1 2)"):
        with pytest.raises(ParseError):
            lg.parse_generator(bad, quartic)


# pieces of cycle text; a blank before a bad cycle checks that its error
# points at the cycle's '(' and not at the blank
_CYCLE_PIECES = ["(", ")", " ", "  ", "\t", "1", "2", "3", "5", "0", "12", "x",
                 "(1 2)", "(3 3)", "(2 5)", "(1 3 4)", "(0)"]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_CYCLE_PIECES), max_size=8).map("".join),
       st.integers(1, 4))
@example("(1 2) (3 3)", 4)
@example("(1 2)  x", 4)
def test_cycles_parse_as_the_reference_scan(text, n):
    assert outcome(symmetry._parse_cycles, text, n) == \
        outcome(reference_parse_cycles, text, n)


def test_cycles_match_a_plain_walk():
    # every permutation of S5, then seeded random ones up to rank 8
    perms = list(itertools.permutations(range(5)))
    rng = random.Random(4021)
    for _ in range(300):
        images = list(range(rng.randint(1, 8)))
        rng.shuffle(images)
        perms.append(tuple(images))
    for images in perms:
        g = lg.MonomialSymmetry(images, [0] * len(images))
        cycles = frac_cycles(images)
        assert g.cycles() == cycles
        assert g.perm_parity == sum(len(c) - 1 for c in cycles) % 2
        assert g.cycle_string() == "".join(
            "(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles if len(c) > 1) or "()"


def test_element_labels():
    assert diag("1/4", "1/4", "1/4", "1/4").label() == "(1/4, 1/4, 1/4, 1/4)"
    assert perm([(0, 1, 2)], 4).label() == "(1 2 3)"
    mixed = diag("1/2", 0, 0, 0) * perm([(0, 1)], 4)
    assert mixed.label() == "(1/2, 0, 0, 0)(1 2)"
    assert lg.MonomialSymmetry.identity(2).label() == "(0, 0)"
