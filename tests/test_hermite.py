"""Differential tests of the Hermite-form lattice routines against Dimino.

A diagonal group is a lattice of numerator vectors over its modulus.
``symmetry._lattice_forms`` lists it from ``linalg.hermite`` in canonical
order, and ``symmetry._lattice_generators`` picks its greedy generators by
lattice membership.  ``symmetry._generate`` (Dimino, then a sort) and
``oracles.frac_greedy_generators`` (closures of rational pairs) are the
references: the listing, the picks and the modulus must all agree.
"""

import random
from math import lcm, prod

import pytest

import lgmirror as lg
from lgmirror import symmetry
from lgmirror.errors import CapExceededError
from lgmirror.linalg import hermite
from oracles import frac_form, frac_greedy_generators, random_chain_or_loop

MODULI = (4, 8, 9, 12, 16, 27, 36)


def assert_lattice_matches_dimino(rows, mod):
    n = len(rows[0])
    forms = [(tuple(range(n)), tuple(row)) for row in rows]
    have, _ = symmetry._generate(forms, mod, 10 ** 6)
    expected = sorted(have)
    basis = hermite(rows, mod)
    for i, row in enumerate(basis):
        assert not any(row[:i]) and mod % row[i] == 0
    assert prod(mod // row[i] for i, row in enumerate(basis)) == len(expected)
    listed = symmetry._lattice_forms(basis, mod)
    assert listed == expected
    picks = symmetry._lattice_generators(listed, mod)
    assert picks == symmetry._generate(listed, mod, len(listed))[1]
    group = symmetry.SymmetryGroup(listed, mod)
    assert [frac_form(g) for g in group.generators] == \
        frac_greedy_generators([frac_form(g) for g in group.elements])
    assert group.modulus == lcm(*(g.mod for g in group.elements))
    gens = [lg.MonomialSymmetry.from_numerators(*form, mod) for form in forms]
    assert lg.closure(gens) == lg.SymmetryGroup(expected, mod)


def test_lattice_routines_match_dimino_on_random_diagonal_groups():
    rng = random.Random(20261019)
    done = 0
    while done < 320:
        n, mod = rng.randint(1, 5), rng.choice(MODULI)
        rows = [[rng.choice((0, rng.randrange(mod), rng.randrange(mod) * rng.randint(2, 3) % mod))
                 for _ in range(n)] for _ in range(rng.randint(1, 3))]
        try:  # small enough for the rational oracle
            symmetry._generate([(tuple(range(n)), tuple(r)) for r in rows], mod, 600)
        except CapExceededError:
            continue
        assert_lattice_matches_dimino(rows, mod)
        done += 1


def test_lattice_routines_match_dimino_on_chain_and_loop_duals():
    rng = random.Random(4243)
    for _ in range(8):
        poly = random_chain_or_loop(rng)
        for h in lg.diagonal_group(poly).subgroups():
            dual = lg.dual_group(h, poly)
            assert_lattice_matches_dimino([nums for _, nums in dual._forms], dual.modulus)
            forms = [dual._forms[0]] + [g.over(dual.modulus) for g in dual.generators]
            assert dual._forms == tuple(sorted(symmetry._generate(forms, dual.modulus,
                                                                  dual.order)[0]))


def test_n_id_is_the_diagonal_block(quintic, good_group):
    # N^id is the diagonal block itself, with the single preimage 0
    star = lg.nonabelian_dual(good_group, quintic)
    ident = star._forms[0][0]
    fixed, preimage = star._fixed_diagonals(ident)[:2]
    assert list(fixed) == [form for form in star._forms if form[0] == ident]
    assert preimage == {star._forms[0][1]: star._forms[0][1]}
    assert star._fixed_generators(ident) == [
        fixed[k] for k in symmetry._generate(fixed, star.modulus, len(fixed))[1]]


def test_forms_that_are_not_closed_error_before_any_loop():
    # the closure of each list is larger than the list, so generators, like
    # _generate's scan, error at the list's size instead of picking forever
    for forms, mod in (([((0,), (0,)), ((0,), (1,))], 4),
                       ([((0,), (0,)), ((0,), (1,)), ((0,), (2,))], 4),
                       ([((0, 1), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (1, 0))], 2)):
        group = lg.SymmetryGroup(forms, mod)
        with pytest.raises(CapExceededError, match=f"exceeds cap of {len(forms)} elements"):
            group.generators
        with pytest.raises(CapExceededError):
            symmetry._generate(list(group._forms), group.modulus, group.order)
