"""Differential tests of the integer phase kernel against the Fraction oracle.

Elements are drawn with a fixed seed from the quartic G = ⟨j, (123)⟩, its
dual G* (order 192) and the bad quintic's G* (order 2,500); every kernel
operation must agree with the slow ``Fraction`` arithmetic in ``oracles``.
"""

import random
from fractions import Fraction as F

import pytest

import lgmirror as lg
from oracles import (
    frac_age,
    frac_closure,
    frac_compose,
    frac_conjugacy_classes,
    frac_det_phase,
    frac_fixed_locus,
    frac_form,
    frac_greedy_generators,
    frac_inverse,
    frac_order,
)


@pytest.fixture(scope="module")
def groups(quartic, quartic_group, quintic, bad_group):
    return {
        "quartic G": quartic_group,
        "quartic G*": lg.nonabelian_dual(quartic_group, quartic),
        "bad quintic G*": lg.nonabelian_dual(bad_group, quintic),
    }


def test_group_orders(groups):
    assert [g.order for g in groups.values()] == [12, 192, 2500]


@pytest.mark.parametrize("name", ["quartic G", "quartic G*", "bad quintic G*"])
def test_kernel_matches_fraction_oracle(groups, name):
    group = groups[name]
    rng = random.Random(20260)
    for _ in range(400):
        a, b = rng.choice(group.elements), rng.choice(group.elements)
        fa, fb = frac_form(a), frac_form(b)
        assert frac_form(a * b) == frac_compose(fa, fb)
        assert frac_form(a.inverse()) == frac_inverse(fa)
        assert frac_form(a.conjugated_by(b)) == \
            frac_compose(frac_compose(frac_inverse(fb), fa), fb)
        assert a.order() == frac_order(fa)
        assert a.age() == frac_age(fa)
        assert a.det_phase() == frac_det_phase(fa)
        locus = a.fixed_locus()
        vectors = tuple(tuple(v[i] for i in c)
                        for c, v in zip(locus.cycles, locus.canonical_vectors()))
        assert (locus.cycles, vectors) == frac_fixed_locus(fa)


@pytest.mark.parametrize("name", ["quartic G", "quartic G*", "bad quintic G*"])
def test_elements_are_canonical_however_built(groups, name):
    group = groups[name]
    assert list(group.elements) == sorted(group.elements, key=lambda g: g.key)
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.choice(group.elements), rng.choice(group.elements)
        product = a * b
        rebuilt = lg.MonomialSymmetry(product.perm, product.phases)
        assert rebuilt == product and hash(rebuilt) == hash(product)
        assert (rebuilt.nums, rebuilt.mod) == (product.nums, product.mod)
        assert product in group
        assert group.elements[group.index(product)] == product


def test_phases_view_is_reduced_rationals():
    g = lg.MonomialSymmetry([1, 0, 2], [F(6, 4), F(-1, 3), 2])
    assert g.phases == (F(1, 2), F(2, 3), F(0))
    assert (g.nums, g.mod) == ((3, 4, 0), 6)
    assert lg.MonomialSymmetry.from_numerators((1, 0, 2), (3, 4, 0), 6) == g
    assert lg.MonomialSymmetry.from_numerators((0, 1), (0, 0), 6).mod == 1
    assert lg.MonomialSymmetry.from_numerators((0, 1), (2, 4), 6) == \
        lg.MonomialSymmetry.diagonal([F(1, 3), F(2, 3)])


@pytest.mark.parametrize("name", ["quartic G*", "bad quintic G*"])
def test_lazy_generators_match_greedy_oracle(groups, name):
    group = groups[name]
    fresh = lg.SymmetryGroup(group.elements)
    pairs = [frac_form(g) for g in group.elements]
    assert [frac_form(g) for g in fresh.generators] == frac_greedy_generators(pairs)
    assert frac_closure([frac_form(g) for g in group.generators]) == set(pairs)


def test_conjugacy_classes_match_oracle(groups):
    group = groups["quartic G*"]
    classes = [tuple(frac_form(g) for g in cls) for cls in group.conjugacy_classes()]
    oracle = frac_conjugacy_classes([frac_form(g) for g in group.elements],
                                    [frac_form(g) for g in group.generators])
    assert classes == oracle


@pytest.mark.parametrize("text", ["(1 2); (1 2 3 4)", "j; (1 2); (1 2 3 4)",
                                  "j; diag(1/4,3/4,0,0)*(1 2)(3 4); (1 3)(2 4)"])
def test_greedy_generators_of_nonabelian_groups(quartic, text):
    # the scan grows by right cosets of subgroups that need not be normal
    group = lg.closure(lg.parse_generator(t, quartic) for t in text.split(";"))
    fresh = lg.SymmetryGroup(group.elements)
    pairs = [frac_form(g) for g in group.elements]
    assert [frac_form(g) for g in fresh.generators] == frac_greedy_generators(pairs)
