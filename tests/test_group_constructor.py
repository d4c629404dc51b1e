"""Every group the library builds goes through one constructor, from
integer forms: each must be the closure of its elements, in canonical
order, over the lcm of its elements' moduli."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

import lgmirror as lg
from lgmirror import duality
from lgmirror.errors import DimensionMismatchError, OddPermutationError
from oracles import factor_each_element, random_mirror_instance


def assert_built_once(group):
    assert group == lg.closure(group.elements)
    assert group.modulus == lcm(*(g.mod for g in group))


def assert_model_groups(poly, group):
    parts = lg.decompose_hk(group, poly)
    h_dual = lg.dual_group(parts.h, poly)
    star = duality.star_group(parts, poly)
    built = [group, parts.h, parts.k, h_dual, star, lg.sl_subgroup(group),
             lg.sl_subgroup(star), *parts.k.subgroups()]
    for side in (group, star):
        reps = [cls[0] for cls in side.conjugacy_classes()]
        if side.is_diagonal:  # every centralizer is the whole group
            reps = reps[-1:]
        elif side.order > 500:  # the last class of each permutation part
            reps = list({r.perm: r for r in reps}.values())
        built += [side.centralizer(r) for r in reps]
    for sub in {sub.elements: sub for sub in built}.values():
        assert_built_once(sub)
    diag = lg.diagonal_group(poly)
    assert_built_once(diag)
    assert lg.dual_group(diag, poly).modulus == 1


def test_paper_models(quartic, quartic_group, quintic, good_group, bad_group):
    for poly, group in ((quartic, quartic_group), (quintic, good_group),
                        (quintic, bad_group)):
        assert_model_groups(poly, group)


def test_random_models():
    rng = random.Random(1201)
    for _ in range(30):
        assert_model_groups(*random_mirror_instance(rng))


def test_odd_permutation_is_reported_before_a_missing_factor(quartic):
    # (1/4, 0, 0, 0)(1 2) does not factor in G, since (1 2) is not in G,
    # and (3 4) is an odd pure permutation: the odd permutation is named
    swap = lg.MonomialSymmetry.diagonal([F(1, 4), 0, 0, 0]) * \
        lg.MonomialSymmetry.from_cycles([(0, 1)], 4)
    group = lg.closure([swap, lg.MonomialSymmetry.from_cycles([(2, 3)], 4)])
    for split in (lg.decompose_hk, factor_each_element):
        with pytest.raises(OddPermutationError, match=r"\(3 4\) is odd"):
            split(group, quartic)


def test_forms_of_mixed_ranks_are_rejected():
    with pytest.raises(DimensionMismatchError, match="mixed ranks"):
        lg.SymmetryGroup([((0,), (0,)), ((1, 0), (0, 0))], 1)

