import random
from fractions import Fraction as F

import pytest

import lgmirror as lg
from lgmirror import symmetry
from lgmirror.errors import (
    CapExceededError,
    LGError,
    NotASymmetryError,
    NotDiagonalError,
    NotHKProductError,
    NotPurePermutationsError,
    OddPermutationError,
)
from oracles import (brute_force_diagonal, factor_each_element, random_mirror_instance,
                     sl_subgroup)


def diag(*phases):
    return lg.MonomialSymmetry.diagonal([F(p) for p in phases])


def perm(cycles, n):
    return lg.MonomialSymmetry.from_cycles(cycles, n)


def test_decompose_quartic(quartic, quartic_group):
    parts = lg.decompose_hk(quartic_group, quartic)
    assert parts.h.order == 4
    assert parts.h == lg.closure([lg.exponential_grading(quartic)])
    assert parts.k.order == 3
    assert perm([(0, 1, 2)], 4) in parts.k


def test_decompose_bad_quintic(quintic, bad_group):
    parts = lg.decompose_hk(bad_group, quintic)
    assert parts.h.order == 5
    assert parts.k.order == 4


def test_decompose_trivial(quartic):
    trivial = lg.closure([lg.MonomialSymmetry.identity(4)])
    parts = lg.decompose_hk(trivial, quartic)
    assert parts.h.order == 1 and parts.k.order == 1


def test_decompose_rejects_odd_permutation(quartic):
    group = lg.closure([perm([(0, 1)], 4)])
    with pytest.raises(OddPermutationError):
        lg.decompose_hk(group, quartic)


def test_decompose_rejects_non_symmetry(quartic):
    group = lg.closure([diag("1/3", 0, 0, 0)])
    with pytest.raises(NotASymmetryError, match="is not a symmetry of"):
        lg.decompose_hk(group, quartic)


def test_decompose_rejects_unsplittable_group(quartic):
    # order-two group whose only nontrivial element mixes a diagonal part
    # and a permutation part, neither of which lies in the group
    g = diag("1/4", "3/4", 0, 0) * perm([(0, 1)], 4)
    group = lg.closure([g])
    assert group.order == 2
    with pytest.raises(NotHKProductError):
        lg.decompose_hk(group, quartic)


def _split_outcome(split, group, poly):
    """(H, K) as element lists, or the error's type and message."""
    try:
        h, k = split(group, poly)
    except LGError as exc:
        return type(exc), str(exc)
    return list(h), list(k)


def _by_orders(group, poly):
    parts = lg.decompose_hk(group, poly)
    return parts.h, parts.k


@pytest.mark.parametrize("text", [
    "diag(1/4,3/4,0,0)*(1 2)", "j; (1 2 3)", "j; diag(1/2,1/2,0,0)*(1 2)",
    "j; (1 2); (1 2 3 4)", "j; diag(1/4,3/4,0,0)*(1 2)(3 4); (1 3)(2 4)"])
def test_split_by_orders_matches_element_factors_on_quartic(quartic, text):
    group = lg.closure(lg.parse_generator(t, quartic) for t in text.split(";"))
    assert _split_outcome(_by_orders, group, quartic) == \
        _split_outcome(factor_each_element, group, quartic)


def test_split_by_orders_matches_element_factors_on_random_groups():
    rng = random.Random(7070)
    for _ in range(30):
        poly, group = random_mirror_instance(rng)
        assert _split_outcome(_by_orders, group, poly) == \
            _split_outcome(factor_each_element, group, poly)


def test_dual_of_grading_group_is_sl(quartic, quintic):
    for poly in (quartic, quintic):
        jw = lg.closure([lg.exponential_grading(poly)])
        dual = lg.dual_group(jw, poly)
        assert dual == sl_subgroup(lg.diagonal_group(poly.transpose()))


def test_dual_of_trivial_and_full():
    # the dual of the trivial group is the whole diagonal group of Wᵀ, found
    # by brute force; a chain and a loop are not their own transposes
    for text in ("x1^3*x2 + x2^2*x3 + x3^2", "x1^2*x2 + x2^3*x3 + x3^4*x1"):
        poly = lg.parse_polynomial(text)
        assert poly.transpose().exponents != poly.exponents
        trivial = lg.closure([lg.MonomialSymmetry.identity(3)])
        assert {g.phases for g in lg.dual_group(trivial, poly)} == \
            brute_force_diagonal(poly.transpose())
        full = lg.diagonal_group(poly)
        assert lg.dual_group(full, poly).order == 1


def test_dual_is_inclusion_reversing(quartic):
    j = lg.exponential_grading(quartic)
    small = lg.closure([j * j])
    big = lg.closure([j, diag("1/2", "1/2", 0, 0)])
    assert all(g in big for g in small)
    dual_small = lg.dual_group(small, quartic)
    dual_big = lg.dual_group(big, quartic)
    assert all(g in dual_small for g in dual_big)


def test_dual_inclusion_reversing_over_cubic_lattice():
    # every nested pair of diagonal subgroups reverses under duality
    cubic = lg.parse_polynomial("x1^3 + x2^3 + x3^3")
    subgroups = lg.diagonal_group(cubic).subgroups()
    duals = [lg.dual_group(h, cubic) for h in subgroups]
    for i, h1 in enumerate(subgroups):
        inside1 = set(h1.elements)
        for k, h2 in enumerate(subgroups):
            if inside1 <= set(h2.elements):
                assert set(duals[k].elements) <= set(duals[i].elements)


def test_dual_requires_diagonal(quartic, quartic_group):
    with pytest.raises(NotDiagonalError):
        lg.dual_group(quartic_group, quartic)


def test_dual_requires_symmetries():
    # H = ⟨(1/3, 0)⟩ fixes no monomial of x1^4 + x2^4, so it has no dual:
    # it is refused before |det A_W| // |H| = 16 // 3 = 5 meets the cap
    poly = lg.parse_polynomial("x1^4 + x2^4")
    h = lg.closure([diag("1/3", 0)])
    for kwargs in ({}, {"cap": 10}):
        with pytest.raises(NotASymmetryError, match=r"^\(1/3, 0\) is not a symmetry of "):
            lg.dual_group(h, poly, **kwargs)


def test_star_group_checks_that_k_normalizes_the_dual(quartic):
    # no G = H·K splits so, but star_group trusts its split: the rows of
    # Hᵀ = {(0, b, c, d)/4}, permuted by (1 2 3), leave it, and by (2 3 4) not
    h = lg.closure([diag("1/4", 0, 0, 0)])
    split = lg.duality.HKDecomposition(None, h, lg.closure([perm([(0, 1, 2)], 4)]))
    with pytest.raises(lg.errors.InternalError, match="^K does not normalize Hᵀ$"):
        lg.duality.star_group(split, quartic)
    split = split._replace(k=lg.closure([perm([(1, 2, 3)], 4)]))
    assert lg.duality.star_group(split, quartic).order == 4 ** 3 * 3


def test_nonabelian_dual_quartic(quartic, quartic_group):
    star = lg.nonabelian_dual(quartic_group, quartic)
    assert star.order == 192
    assert not star.is_abelian
    sl = sl_subgroup(lg.diagonal_group(quartic))
    assert all(g in star for g in sl)
    assert perm([(0, 1, 2)], 4) in star
    # witness pair of non-commuting elements
    a = diag("1/2", "1/4", "1/4", 0) * perm([(0, 1, 2)], 4)
    b = diag("1/2", "1/4", "1/4", 0) * perm([(0, 2, 1)], 4)
    assert a in star and b in star and a * b != b * a


def test_nonabelian_dual_elements_are_dual_symmetries(quartic, quartic_group):
    star = lg.nonabelian_dual(quartic_group, quartic)
    dual = quartic.transpose()
    assert all(lg.is_symmetry(g, dual) for g in star)


def test_nonabelian_dual_good_quintic(quintic, good_group):
    star = lg.nonabelian_dual(good_group, quintic)
    assert star.order == 1250
    assert perm([(0, 1), (2, 3)], 5) in star
    sl = sl_subgroup(lg.diagonal_group(quintic))
    assert all(g in star for g in sl.generators)


def test_nonabelian_dual_of_diagonal_group_is_plain_dual(quartic):
    j_group = lg.closure([lg.exponential_grading(quartic)])
    assert lg.nonabelian_dual(j_group, quartic) == lg.dual_group(j_group, quartic)


def test_parity_condition_single_swap_pair():
    k = lg.closure([perm([(0, 1), (2, 3)], 5)])
    holds, witness = lg.parity_condition(k)
    assert holds and witness is None


def test_parity_condition_klein_fails():
    k = lg.closure([perm([(0, 1), (2, 3)], 5), perm([(0, 2), (1, 3)], 5)])
    holds, witness = lg.parity_condition(k)
    assert not holds
    assert witness is not None and witness.order == 4
    assert witness == k  # the full Klein group is the first failing subgroup


def test_parity_condition_stops_at_its_witness(monkeypatch):
    # A6 has 501 subgroups; the first failing one, in subgroup order, is
    # the 87th, of order 4, and it is the one group built
    k = lg.closure([perm([(0, 1, 2)], 6), perm([(1, 2, 3, 4, 5)], 6)])
    assert k.order == 360
    built = []
    init = lg.SymmetryGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def refuse(*args):
        pytest.fail("a walked subgroup was closed")
    monkeypatch.setattr(lg.SymmetryGroup, "__init__", counting_init)
    monkeypatch.setattr(symmetry, "closure", refuse)
    holds, witness = lg.parity_condition(k)
    assert not holds and built == [witness]
    assert [g.cycle_string() for g in witness] == \
        ["()", "(3 4)(5 6)", "(3 5)(4 6)", "(3 6)(4 5)"]


def test_parity_condition_makes_no_element(quintic, bad_group):
    # K holds pure permutations, one element per lift: each subgroup's
    # orbits are read off its lifts, and the witness lists nothing
    k = lg.decompose_hk(bad_group, quintic).k
    holds, witness = lg.parity_condition(k)
    assert not holds and witness.order == 4
    assert "elements" not in witness.__dict__ and "_forms" not in witness.__dict__


def test_parity_condition_builds_only_its_witness(monkeypatch):
    # each subgroup's orbits are read off K's lifts at its element indices:
    # no walked subgroup goes through closure, and only a witness is built
    groups = [lg.closure([perm([(0, 1), (2, 3)], 5), perm([(0, 2), (1, 3)], 5)]),  # V4
              lg.closure([perm([(0, 1), (2, 3)], 5)]),
              lg.closure([perm([(0, 1, 2)], 4), perm([(0, 1), (2, 3)], 4)]),  # A4
              lg.closure([perm([(0, 1, 2)], 5), perm([(0, 1), (3, 4)], 5)])]  # S3
    built = []
    init = lg.SymmetryGroup.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def refuse(*args):
        pytest.fail("a walked subgroup was closed")
    monkeypatch.setattr(lg.SymmetryGroup, "__init__", counting_init)
    monkeypatch.setattr(symmetry, "closure", refuse)
    monkeypatch.setattr(lg.duality, "closure", refuse)
    verdicts = []
    for k in groups:
        del built[:]
        holds, witness = lg.parity_condition(k)
        verdicts.append((holds, witness and witness.order))
        assert built == ([] if holds else [witness])
    assert verdicts == [(False, 4), (True, None), (False, 4), (False, 6)]


def test_nonabelian_dual_picks_no_generators_of_k(monkeypatch, quintic, bad_group, good_group):
    # G* checks that K normalizes Hᵀ on K's lifts, its elements, so no
    # greedy generators of K are picked
    given, splits = [], []
    lift_generators, decompose = symmetry._lift_generators, lg.duality.decompose_hk

    def picking(lifts):
        given.append(lifts)
        return lift_generators(lifts)

    def splitting(*args):
        splits.append(decompose(*args))
        return splits[-1]
    monkeypatch.setattr(symmetry, "_lift_generators", picking)
    monkeypatch.setattr(lg.duality, "decompose_hk", splitting)
    stars = [lg.nonabelian_dual(group, quintic) for group in (good_group, bad_group)]
    assert [star.order for star in stars] == [1250, 2500]
    assert [len(parts.k.lifts) for parts in splits] == [2, 4]
    assert not [lifts for lifts in given for parts in splits if lifts is parts.k.lifts]


def test_parity_condition_quartic_cycle():
    k = lg.closure([perm([(0, 1, 2)], 4)])
    holds, witness = lg.parity_condition(k)
    assert holds and witness is None


def test_parity_condition_trivial():
    k = lg.closure([lg.MonomialSymmetry.identity(6)])
    holds, witness = lg.parity_condition(k)
    assert holds and witness is None


def test_parity_condition_rejects_phases():
    k = lg.closure([diag("1/2", "1/2")])
    with pytest.raises(NotPurePermutationsError):
        lg.parity_condition(k)


def _passes(sub, n):
    """n − #orbits is even: the orbit test of the parity condition."""
    orbits = {frozenset(g.perm[i] for g in sub) for i in range(n)}
    return (n - len(orbits)) % 2 == 0


def _random_even_group(rng):
    """The closure of one or two random even permutations of 3–6 points, of
    order at most 60 so that every subgroup is walked quickly."""
    while True:
        n = rng.randint(3, 6)
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(n))
            rng.shuffle(images)
            g = lg.MonomialSymmetry(images, (0,) * n)
            if g.perm_parity:  # times a transposition, to make it even
                g = g * perm([(0, 1)], n)
            gens.append(g)
        k = lg.closure(gens)
        if k.order <= 60:
            return k, n


def test_odd_subgroups_pass_the_orbit_test():
    # the lemma behind the odd-|K| shortcut: the orbits of an odd T have odd
    # sizes, so n − #orbits = Σ(|O| − 1) is even.  Even subgroups do fail,
    # and the parity condition's witness is the first of them
    rng = random.Random(20261019)
    groups = [(lg.closure([perm([(0, 1, 2)], 4), perm([(0, 1), (2, 3)], 4)]), 4),
              (lg.closure([perm([(0, 1, 2)], 5), perm([(0, 1, 2, 3, 4)], 5)]), 5)]
    assert [k.order for k, _ in groups] == [12, 60]
    groups += [_random_even_group(rng) for _ in range(60)]
    odd = failing = 0
    for k, n in groups:
        first = None  # the first subgroup whose orbits, read off its lifts, fail
        for sub in k.subgroups():
            if sub.order % 2:
                odd += 1
                assert _passes(sub, n), [g.cycle_string() for g in sub]
            else:
                failing += not _passes(sub, n)
            orbits = {frozenset(perm[i] for perm, _ in sub.lifts) for i in range(n)}
            if first is None and (n - len(orbits)) % 2:
                first = sub
        # parity_condition reads the same walk without building its subgroups
        holds, witness = lg.parity_condition(k)
        assert (holds, witness) == (first is None, first)
        assert witness is None or witness.lifts == first.lifts
    assert odd > 150 and failing > 0


def test_parity_witness_need_not_hold_a_failing_2_subgroup():
    # S3 = <(1 2 3), (1 2)(4 5)> on five points has the orbits {1, 2, 3} and
    # {4, 5}, so it fails, while each proper subgroup, its 2-subgroups
    # included, passes: restricting the walk to 2-subgroups misses it
    k = lg.closure([perm([(0, 1, 2)], 5), perm([(0, 1), (3, 4)], 5)])
    holds, witness = lg.parity_condition(k)
    assert not holds and witness == k and witness.order == 6
    proper = [sub for sub in k.subgroups() if sub != k]
    assert len(proper) == 5 and all(_passes(sub, 5) for sub in proper)


def test_parity_condition_holds_at_once_for_odd_k(monkeypatch):
    # six disjoint 3-cycles on 18 points: |K| = 729 and no subgroup is walked
    k = lg.closure([perm([(i, i + 1, i + 2)], 18) for i in range(0, 18, 3)])
    assert k.order == 729

    def walk(self):
        pytest.fail("an odd K was walked")
    monkeypatch.setattr(lg.SymmetryGroup, "_subgroup_walk", walk)
    assert lg.parity_condition(k) == (True, None)


def test_subgroup_walk_refuses_a_table_past_the_cap(monkeypatch):
    # K = A7 has 2,520 elements: its table would hold 6,350,400 entries
    k = lg.closure([perm([(0, 1, 2)], 7), perm([(2, 3, 4, 5, 6)], 7)])
    assert k.order == 2520

    def compose(*args):
        pytest.fail("the table was built")
    monkeypatch.setattr(symmetry, "_compose", compose)
    message = "subgroup walk of order 2520 exceeds 1000000 table entries"
    with pytest.raises(CapExceededError, match=message):
        lg.parity_condition(k)
    with pytest.raises(CapExceededError, match=message):
        k.subgroups()
