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

import pytest

import lgmirror as lg
from lgmirror import duality, symmetry
from lgmirror.errors import CapExceededError
from oracles import (
    brute_force_diagonal,
    frac_form,
    frac_greedy_generators,
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


def random_chain_or_loop(rng):
    """A chain or loop atom on 2–3 variables, plus at times a Fermat x^2."""
    n = rng.randint(2, 3)
    exps = [rng.randint(2, 3) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    loop = rng.random() < 0.5
    for i, a in enumerate(exps):
        rows[i][i] = a
        if i + 1 < n or loop:
            rows[i][(i + 1) % n] = 1
    if rng.random() < 0.3:
        rows = [row + [0] for row in rows] + [[0] * n + [2]]
    return lg.InvertiblePolynomial.from_exponents(rows)


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
    h_dual, star = duality.star_group(parts, poly)
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

    monkeypatch.setattr(duality, "dual_group", enumerate_group)
    monkeypatch.setattr(symmetry, "_closure_set", enumerate_group)
    with pytest.raises(CapExceededError, match="exceeds cap of 100 elements"):
        lg.nonabelian_dual(group, sextic, cap=100)
    with pytest.raises(CapExceededError, match="exceeds cap of 100 elements"):
        lg.full_comparison(sextic, group, cap=100)
