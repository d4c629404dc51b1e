"""Every group the library builds goes through one constructor,
``SymmetryGroup(mod, basis, lifts)``: the Hermite basis of its diagonal
part N and one lift per permutation part, from which its generators are
read.  Each must be the
closure of its elements, in canonical order, over the lcm of its elements'
moduli; its list form (``oracles.group_of_forms``) must give it back; and
the paths that need only its structure must list none of its forms."""

import random
from fractions import Fraction as F
from math import lcm, prod

import pytest

import lgmirror as lg
from lgmirror import duality, symmetry
from lgmirror.errors import DimensionMismatchError, OddPermutationError
from oracles import (factor_each_element, group_of_forms, is_diagonal, random_mirror_instance,
                     sl_subgroup)


def assert_built_once(group):
    assert group == lg.closure(group.elements)
    assert group.modulus == lcm(*(g.mod for g in group))
    assert group_of_forms(group._forms, group.modulus) == group


def assert_model_groups(poly, group):
    parts = lg.decompose_hk(group, poly)
    h_dual = lg.dual_group(parts.h, poly)
    star = duality.star_group(parts, poly)
    built = [group, parts.h, parts.k, h_dual, star, sl_subgroup(group),
             sl_subgroup(star), *parts.k.subgroups()]
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
        lg.SymmetryGroup(1, [(1,)], [((0,), (0,)), ((1, 0), (0, 0))])
    with pytest.raises(DimensionMismatchError, match="mixed ranks"):
        group_of_forms([((0,), (0,)), ((1, 0), (0, 0))], 1)


SEXTIC = " + ".join(f"x{i}^6" for i in range(1, 8))


@pytest.mark.parametrize("text, k_order", [("j", 1), ("j; (1 2 3); (4 5 6)", 9)])
def test_structure_paths_list_no_form(text, k_order):
    poly = lg.parse_polynomial(SEXTIC)
    group = lg.closure(lg.parse_generator(t, poly) for t in text.split(";"))
    parts = lg.decompose_hk(group, poly)
    star = lg.nonabelian_dual(group, poly)
    groups = (group, parts.h, parts.k, star)
    # j is central, so only G* = Hᵀ·K can fail to be abelian
    assert [(g.order, g.is_abelian) for g in groups] == [
        (6 * k_order, True), (6, True), (k_order, True), (6 ** 6 * k_order, k_order == 1)]
    assert [len(g.generators) for g in groups] == [
        len(group.generators), 1, len(parts.k.generators), 6 + len(parts.k.generators)]
    for g in groups:
        assert "_forms" not in g.__dict__ and "elements" not in g.__dict__


@pytest.mark.parametrize("text", ["j", "j; (1 2 3); (4 5 6)"])
def test_hashing_and_comparing_groups_lists_no_form(text):
    # a basis vector holds its group, so hashing one hashes the group
    poly = lg.parse_polynomial(SEXTIC)
    group = lg.closure(lg.parse_generator(t, poly) for t in text.split(";"))
    star = lg.nonabelian_dual(group, poly)
    again = lg.nonabelian_dual(group, poly)
    assert hash(star) == hash(again) and star == again
    other = "j; (1 2 3)" if text == "j" else "j"
    assert star != lg.nonabelian_dual(
        lg.closure(lg.parse_generator(t, poly) for t in other.split(";")), poly)
    assert "_forms" not in star.__dict__ and "_forms" not in again.__dict__


def test_a_centralizer_lists_only_the_diagonal_part(monkeypatch):
    # C(g) for the last generator of the non-abelian sextic's G* (|G*| =
    # 419,904) looks its lifts' preimages up in the record of g's
    # permutation part, which lists im φ_σ alone, and lists no coset of N
    # (46,656 forms) and none of G*'s forms
    listed, listing = [], symmetry._lattice_forms

    def spy(*args):
        forms = listing(*args)
        listed.append(len(forms))
        return forms
    poly = lg.parse_polynomial(SEXTIC)
    group = lg.closure(lg.parse_generator(t, poly) for t in "j; (1 2 3); (4 5 6)".split(";"))
    star = lg.nonabelian_dual(group, poly)
    monkeypatch.setattr(symmetry, "_lattice_forms", spy)
    g = star.generators[-1]
    cent = star.centralizer(g)
    assert star.order == 419_904 and star.order // len(star.lifts) == 46_656
    assert not is_diagonal(g) and g in cent
    assert all(h * g == g * h for h in cent.generators)
    assert "_forms" not in star.__dict__ and "_forms" not in cent.__dict__
    assert listed and max(listed) < 46_656, listed
    # on the G = j; (1 2 3) sextic's G* (|N| = 46,656), each σ's record
    # lists |im φ_σ| = |N|/|N^σ| values, not N, and σ = id's lists nothing
    group = lg.closure(lg.parse_generator(t, poly) for t in "j; (1 2 3)".split(";"))
    star = lg.nonabelian_dual(group, poly)
    order_n = star.order // len(star.lifts)
    assert order_n == 46_656 and len(star.lifts) == 3
    sizes, listed[:] = [], []
    for sigma, _ in star.lifts:
        part = star._part(sigma)
        fixed = prod(star.modulus // row[i] for i, row in enumerate(part.basis))
        assert len(part.preimages) == order_n // fixed
        sizes.append(len(part.preimages))
    assert sizes == [1, 36, 36] and listed == sizes[1:]
