"""Differential tests of the lattice dual group and the product-set G*.

``dual_group`` builds Hᵀ from H's generators through an integer lattice; the
oracle lists every diagonal symmetry of Wᵀ by brute force and keeps those
whose pairing with every element of H is integral.  Both the elements and
the greedy generators must agree.  Chain and loop polynomials have
non-symmetric exponent matrices, so a dropped transpose would show there.
``star_group`` builds G* as the set Hᵀ·K; it must equal the closure of
Hᵀ's and K's generators.
"""

import random
import sys

import pytest

import lgmirror as lg
from lgmirror import duality, symmetry
from lgmirror.errors import CapExceededError
from oracles import (
    brute_force_diagonal,
    frac_form,
    frac_greedy_generators,
    random_chain_or_loop,
    random_mirror_instance,
    scan_dual_group,
)


def assert_matches_scan(h, poly, candidates):
    dual = lg.dual_group(h, poly)
    expected = scan_dual_group(h, poly, candidates)
    assert {g.phases for g in dual} == expected
    identity = tuple(range(poly.n_vars))
    assert [frac_form(g) for g in dual.generators] == \
        frac_greedy_generators([(identity, phases) for phases in expected])


def test_dual_matches_scan_on_every_cubic_subgroup():
    cubic = lg.parse_polynomial("x1^3 + x2^3 + x3^3")
    candidates = brute_force_diagonal(cubic.transpose())
    subgroups = lg.diagonal_group(cubic).subgroups()
    assert len(subgroups) == 28
    for h in subgroups:
        assert_matches_scan(h, cubic, candidates)


def test_dual_matches_scan_on_paper_groups(quartic, quartic_group, quintic,
                                           good_group, bad_group):
    for poly, group in ((quartic, quartic_group), (quintic, good_group),
                        (quintic, bad_group)):
        h = lg.decompose_hk(group, poly).h
        assert_matches_scan(h, poly, brute_force_diagonal(poly.transpose()))


def test_dual_matches_scan_on_chains_and_loops():
    rng = random.Random(4242)
    asymmetric = 0
    for _ in range(8):
        poly = random_chain_or_loop(rng)
        asymmetric += poly.exponents != poly.transpose().exponents
        candidates = brute_force_diagonal(poly.transpose())
        for h in lg.diagonal_group(poly).subgroups():
            assert_matches_scan(h, poly, candidates)
    assert asymmetric == 8


def assert_star_is_closure(poly, group):
    parts = lg.decompose_hk(group, poly)
    star = duality.star_group(parts, poly)
    h_dual = lg.dual_group(parts.h, poly)
    gens = list(h_dual.generators) + list(parts.k.generators)
    closed = lg.closure(gens or [group.identity])
    assert star.elements == closed.elements
    assert star.generators == closed.generators
    assert star.order == h_dual.order * parts.k.order


def test_star_group_is_the_closure(quartic, quartic_group, quintic,
                                   good_group, bad_group):
    for poly, group in ((quartic, quartic_group), (quintic, good_group),
                        (quintic, bad_group)):
        assert_star_is_closure(poly, group)
    rng = random.Random(777)
    for _ in range(30):
        assert_star_is_closure(*random_mirror_instance(rng))


def test_cap_is_checked_before_any_dual_is_enumerated(monkeypatch):
    sextic = lg.parse_polynomial(" + ".join(f"x{i}^6" for i in range(1, 8)))
    group = lg.closure([lg.exponential_grading(sextic)])

    def enumerate_group(*args, **kwargs):
        pytest.fail("a group was enumerated before the cap was checked")

    # every group is generated by symmetry._generate; replace it under each
    # name a library module binds it to, so no path can reach the original
    generate = symmetry._generate
    bound = [module for name, module in list(sys.modules.items())
             if name.split(".")[0] == "lgmirror"
             and getattr(module, "_generate", None) is generate]
    assert {symmetry, duality} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "_generate", enumerate_group)
    with pytest.raises(CapExceededError, match="exceeds cap of 100 elements"):
        lg.dual_group(group, sextic, cap=100)
    monkeypatch.setattr(duality, "dual_group", enumerate_group)
    with pytest.raises(CapExceededError, match="exceeds cap of 100 elements"):
        lg.nonabelian_dual(group, sextic, cap=100)
    with pytest.raises(CapExceededError, match="exceeds cap of 100 elements"):
        lg.full_comparison(sextic, group, cap=100)


def test_default_cap_binds_the_diagonal_group(monkeypatch):
    # |det A_W| = 1,001,000: one past the default cap of 10^6
    poly = lg.parse_polynomial("x1^1001 + x2^1000")

    def enumerate_group(*args, **kwargs):
        pytest.fail("a group was enumerated before the cap was checked")

    monkeypatch.setattr(duality, "_generate", enumerate_group)
    with pytest.raises(CapExceededError, match="exceeds cap of 1000000 elements"):
        lg.diagonal_group(poly)
    trivial = lg.SymmetryGroup([((0, 1), (0, 0))], 1)
    with pytest.raises(CapExceededError, match="exceeds cap of 1000000 elements"):
        lg.dual_group(trivial, poly.transpose())
