"""Differential tests of the group structure against Dimino.

A diagonal group is a lattice of numerator vectors over its modulus, and a
group with permutations is a union of cosets of its diagonal part N, one
per permutation image.  ``linalg.hermite`` gives N's fully reduced Hermite
form, ``symmetry._lattice_forms`` lists a coset of it in canonical order,
``symmetry._lattice_generators`` reads its greedy generators off the basis,
and ``closure`` finds N and the lifts by one walk over the permutation
images (Schreier's lemma).  ``oracles._generate`` (Dimino, then a sort), a
brute-force sort of each coset and ``oracles.frac_greedy_generators``
(closures of rational pairs) are the references: the listing, the picks,
the order, the modulus and membership must all agree.
"""

import random
from math import lcm, prod

import pytest

import lgmirror as lg
from lgmirror import symmetry
from lgmirror.errors import CapExceededError, NotAGroupError
from lgmirror.linalg import hermite, reduce_by
from oracles import (
    _generate,
    frac_form,
    frac_greedy_generators,
    group_of_forms,
    random_chain_or_loop,
)

MODULI = (4, 8, 9, 12, 16, 27, 36)


def assert_lattice_matches_dimino(rows, mod, start):
    n = len(rows[0])
    ident = tuple(range(n))
    forms = [(ident, tuple(row)) for row in rows]
    have, _ = _generate(forms, mod, 10 ** 6)
    expected = sorted(have)
    basis = hermite(rows, mod)
    for i, row in enumerate(basis):  # fully reduced: one basis per lattice
        assert not any(row[:i]) and mod % row[i] == 0
        assert all(0 <= row[j] < basis[j][j] for j in range(i + 1, n))
    assert prod(mod // row[i] for i, row in enumerate(basis)) == len(expected)
    listed = symmetry._lattice_forms(basis, mod, (0,) * n)
    assert [(ident, nums) for nums in listed] == expected
    # a coset start + Λ, listed from any start, against a brute-force sort
    coset = sorted({tuple([(s + x) % mod for s, x in zip(start, nums)]) for _, nums in expected})
    assert symmetry._lattice_forms(basis, mod, start) == coset
    assert symmetry._lattice_forms(basis, mod, coset[-1]) == coset
    picks = symmetry._lattice_generators(basis, mod)
    assert [(ident, row) for row in picks] == [expected[i] for i in _generate(expected, mod, len(expected))[1]]
    group = lg.SymmetryGroup(mod, basis, [(ident, (0,) * n)])
    assert [frac_form(g) for g in group.generators] == \
        frac_greedy_generators([frac_form(g) for g in group.elements])
    assert group.modulus == lcm(*(g.mod for g in group.elements))
    gens = [lg.MonomialSymmetry.from_numerators(*form, mod) for form in forms]
    assert lg.closure(gens) == group


def test_lattice_routines_match_dimino_on_random_diagonal_groups():
    rng = random.Random(20261019)
    starts = random.Random(1019)  # its own stream, so the groups drawn stay the same
    done = 0
    while done < 320:
        n, mod = rng.randint(1, 5), rng.choice(MODULI)
        rows = [[rng.choice((0, rng.randrange(mod), rng.randrange(mod) * rng.randint(2, 3) % mod))
                 for _ in range(n)] for _ in range(rng.randint(1, 3))]
        try:  # small enough for the rational oracle
            _generate([(tuple(range(n)), tuple(r)) for r in rows], mod, 600)
        except CapExceededError:
            continue
        assert_lattice_matches_dimino(rows, mod, [starts.randrange(mod) for _ in range(n)])
        done += 1


def test_lattice_routines_match_dimino_on_chain_and_loop_duals():
    rng, starts = random.Random(4243), random.Random(4244)
    for _ in range(8):
        poly = random_chain_or_loop(rng)
        for h in lg.diagonal_group(poly).subgroups():
            dual = lg.dual_group(h, poly)
            start = [starts.randrange(dual.modulus) for _ in range(poly.n_vars)]
            assert_lattice_matches_dimino([nums for _, nums in dual._forms], dual.modulus, start)
            forms = [dual._forms[0]] + [g.over(dual.modulus) for g in dual.generators]
            assert dual._forms == tuple(sorted(_generate(forms, dual.modulus, dual.order)[0]))


def test_listing_within_a_sublattice_gives_each_coset_its_least_member():
    # Λ random, I ⊂ Λ the Hermite span of a few random members of Λ, the
    # zero sublattice M·ℤⁿ (the whole coset) or Λ itself (one member), from
    # random starts: one least member per coset of I, in canonical order
    rng = random.Random(20261020)
    done = 0
    while done < 300:
        n, mod = rng.randint(1, 5), rng.choice(MODULI)
        basis = hermite([[rng.choice((0, rng.randrange(mod))) for _ in range(n)]
                         for _ in range(rng.randint(1, 3))], mod)
        order = prod(mod // row[i] for i, row in enumerate(basis))
        if order > 2000:
            continue
        members = symmetry._lattice_forms(basis, mod, (0,) * n)
        start = tuple(rng.randrange(mod) for _ in range(n))
        full = symmetry._lattice_forms(basis, mod, start)
        assert len(full) == order and full == symmetry._lattice_forms(basis, mod, start, None)
        for within in (hermite(rng.choices(members, k=rng.randint(1, 3)), mod),
                       hermite([(0,) * n], mod), basis):
            listed = symmetry._lattice_forms(basis, mod, start, within)
            assert listed == sorted({reduce_by(x, within, mod) for x in full})
            assert len(listed) == order // prod(mod // row[i] for i, row in enumerate(within))
        done += 1


def random_mixed_generators(rng):
    """One to three random forms of rank 2–5 over a modulus 2–8, at least
    one with a permutation that moves an index; phases are often 0."""
    n, mod = rng.randint(2, 5), rng.randint(2, 8)
    forms = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(n))
        if rng.random() < 0.7:
            rng.shuffle(images)
        forms.append((tuple(images), tuple(rng.choice((0, rng.randrange(mod))) for _ in range(n))))
    if all(perm == tuple(range(n)) for perm, _ in forms):
        forms[0] = (tuple(range(1, n)) + (0,), forms[0][1])
    return forms, mod


def test_closure_matches_dimino_on_random_mixed_groups():
    rng = random.Random(31337)
    done = 0
    while done < 300:
        forms, mod = random_mixed_generators(rng)
        try:  # small, so the oracle and the membership scan stay quick
            have = _generate(forms, mod, 300)[0]
        except CapExceededError:
            continue
        expected = sorted(have)
        gens = [lg.MonomialSymmetry.from_numerators(*form, mod) for form in forms]
        group = lg.closure(gens)
        m = group.modulus
        assert m == lcm(*(g.mod for g in gens))
        assert group.order == len(expected) and not group.is_diagonal
        assert [g.over(mod) for g in group.elements] == expected
        fresh = lg.SymmetryGroup(m, group.basis, group.lifts)  # greedy generators
        assert [g.over(mod) for g in fresh.generators] == \
            [expected[i] for i in _generate(expected, mod, len(expected))[1]]
        assert all(g in group for g in group.elements)
        n = len(forms[0][0])
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            other = rng.choice((m, 2 * m, rng.randint(2, 9)))
            g = lg.MonomialSymmetry.from_numerators(
                tuple(perm), [rng.randrange(other) for _ in range(n)], other)
            assert (g in group) == (mod % g.mod == 0 and g.over(mod) in have)
        done += 1


def test_n_id_is_the_diagonal_block(quintic, good_group):
    # N^id is the diagonal block itself, and im φ_id is 0, with the single
    # preimage 0
    star = lg.nonabelian_dual(good_group, quintic)
    ident = star._forms[0][0]
    fixed = [form for form in star._forms if form[0] == ident]
    part = star._part(ident)
    assert [(ident, nums) for nums in symmetry._lattice_forms(part.basis, star.modulus, (0,) * 5)] == fixed
    assert part.image == [tuple(star.modulus * (i == j) for j in range(5)) for i in range(5)]
    assert part.preimages == {star._forms[0][1]: star._forms[0][1]}
    assert part.generators == [fixed[k] for k in _generate(fixed, star.modulus, len(fixed))[1]]


def test_forms_that_are_not_closed_error_before_any_loop():
    # the closure of each list is larger than the list: the list form
    # refuses it, as Dimino's scan errors at the list's size
    for forms, mod in (([((0,), (0,)), ((0,), (1,))], 4),
                       ([((0,), (0,)), ((0,), (1,)), ((0,), (2,))], 4),
                       ([((0, 1), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (1, 0))], 2),
                       ([((0, 1, 2), (0, 0, 0)), ((1, 2, 0), (0, 0, 0))], 1)):
        with pytest.raises(NotAGroupError, match="not closed"):
            group_of_forms(forms, mod)
        with pytest.raises(CapExceededError, match=f"exceeds cap of {len(forms)} elements"):
            _generate(forms, mod, len(forms))
