import random
from fractions import Fraction as F

import pytest

import lgmirror as lg
from lgmirror import mirror
from lgmirror.errors import (
    DimensionMismatchError,
    NotDiagonalError,
    TheoremViolationError,
)
from oracles import (ExponentOutOfRangeError, NotDiagonalSectorError, corner_pairs,
                     fermat, narrow_diagonal_set, random_mirror_instance,
                     unprojected_mirror)


def diag(*phases):
    return lg.MonomialSymmetry.diagonal([F(p) for p in phases])


def perm(cycles, n):
    return lg.MonomialSymmetry.from_cycles(cycles, n)


def test_narrow_diagonal_set(quartic):
    jw = lg.closure([lg.exponential_grading(quartic)])
    assert len(narrow_diagonal_set(jw)) == 3
    sl = lg.sl_subgroup(lg.diagonal_group(quartic))
    narrow = narrow_diagonal_set(sl)
    assert len(narrow) == 21
    numerators = {tuple(sorted(int(p * 4) for p in g.phases)) for g in narrow}
    assert numerators == {(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3),
                          (1, 1, 3, 3), (1, 2, 2, 3)}
    trivial = lg.closure([lg.MonomialSymmetry.identity(4)])
    assert narrow_diagonal_set(trivial) == ()
    with pytest.raises(NotDiagonalError):
        narrow_diagonal_set(lg.closure([perm([(0, 1, 2)], 4)]))


def test_unprojected_mirror_untwisted_terms(quartic):
    identity = lg.MonomialSymmetry.identity(4)
    exps, g = unprojected_mirror(quartic, (1, 1, 1, 1), identity)
    assert exps == () and g == diag("1/2", "1/2", "1/2", "1/2")
    exps, g = unprojected_mirror(quartic, (0, 0, 0, 0), identity)
    assert exps == () and g == lg.exponential_grading(quartic)


def test_unprojected_mirror_narrow_to_untwisted(quartic):
    j = lg.exponential_grading(quartic)
    for i in (1, 2, 3):
        exps, g = unprojected_mirror(quartic, (), j ** i)
        assert g.is_identity
        assert exps == (i - 1,) * 4


def test_unprojected_mirror_is_involutive():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 5)
        ds = [rng.choice([2, 3, 4, 5]) for _ in range(n)]
        poly = fermat(ds)
        g = lg.MonomialSymmetry.diagonal(
            [F(rng.randrange(d), d) for d in ds])
        fixed = [i for i in range(n) if g.phases[i] == 0]
        exps = tuple(rng.randrange(ds[i] - 1) for i in fixed)
        image_exps, image_g = unprojected_mirror(poly, exps, g)
        back_exps, back_g = unprojected_mirror(poly, image_exps, image_g)
        assert back_exps == exps and back_g == g


def test_unprojected_mirror_degree_age_identity():
    # deg(∧ x^b dx) equals the age of the image narrow element, and
    # N − deg equals the age of its inverse
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 5)
        ds = [rng.choice([2, 3, 4, 5]) for _ in range(n)]
        poly = fermat(ds)
        identity = lg.MonomialSymmetry.identity(n)
        exps = tuple(rng.randrange(d - 1) for d in ds)
        degree = sum(F(b + 1, d) for b, d in zip(exps, ds))
        _, image = unprojected_mirror(poly, exps, identity)
        assert image.age() == degree
        assert image.inverse().age() == n - degree


def test_unprojected_mirror_rejects_nondiagonal(quartic):
    with pytest.raises(NotDiagonalSectorError):
        unprojected_mirror(quartic, (0, 0), perm([(0, 1, 2)], 4))


def test_unprojected_mirror_needs_one_exponent_per_fixed_coordinate(quartic):
    identity = lg.MonomialSymmetry.identity(4)
    with pytest.raises(DimensionMismatchError):
        unprojected_mirror(quartic, (0, 0), identity)


def test_unprojected_mirror_rejects_exponents_outside_milnor_range(quartic):
    identity = lg.MonomialSymmetry.identity(4)
    with pytest.raises(ExponentOutOfRangeError, match="exponent 3 outside"):
        unprojected_mirror(quartic, (0, 3, 0, 0), identity)


def test_restricted_mirror_quartic(quartic, quartic_group):
    pairs = lg.full_comparison(quartic, quartic_group).restricted
    assert len(pairs.a0_to_narrow) == 9
    assert len(pairs.narrow_to_b0) == 3
    for va, vb in pairs.a0_to_narrow + pairs.narrow_to_b0:
        assert va.bidegree == vb.bidegree


def test_restricted_mirror_quartic_permutation_rows(quartic, quartic_group):
    # the six orbit sums pair with the narrow class sums whose phase
    # numerators exceed the monomial exponents by exactly one
    from oracles import QUARTIC_PAIRING_TABLE as table
    pairs = lg.full_comparison(quartic, quartic_group).restricted
    seen = {}
    for va, vb in pairs.a0_to_narrow:
        key = frozenset(e for _, e, _ in va.terms)
        if key in table:
            seen[key] = frozenset(tuple(str(p) for p in g.phases)
                                  for g in vb.sector_elements)
            assert va.bidegree == (1, 1)
    assert seen == table


def test_restricted_mirror_quartic_center_rows(quartic, quartic_group):
    pairs = lg.full_comparison(quartic, quartic_group).restricted
    j = lg.exponential_grading(quartic)
    # ⌊1, j^i⌉ on the A side pairs with the monomial with all exponents i−1
    narrow_pairs = {va.leading[2]: vb.terms[0][1]
                    for va, vb in pairs.narrow_to_b0}
    assert narrow_pairs == {j: (0, 0, 0, 0), j ** 2: (1, 1, 1, 1),
                            j ** 3: (2, 2, 2, 2)}


def test_full_comparison_quartic(quartic_report):
    report = quartic_report
    assert report.verdict is lg.Verdict.BIGRADED_ISOMORPHIC
    assert report.pc_holds and report.pc_witness is None
    assert report.a_space.total_dim == report.b_space.total_dim == 24
    assert report.mismatches == ()
    assert report.dual_group.order == 192
    diamond = lg.HodgeDiamond(report.a_space)
    assert diamond.rows() == [[1], [1, 20, 1], [1]]
    assert lg.HodgeDiamond(report.b_space).rows() == diamond.rows()


def test_full_comparison_good_quintic(good_report):
    report = good_report
    assert report.verdict is lg.Verdict.BIGRADED_ISOMORPHIC
    assert report.pc_holds
    assert report.a_space.total_dim == report.b_space.total_dim == 128
    expected = {(F(0), F(0)): 1, (F(0), F(3)): 1, (F(1), F(1)): 3,
                (F(1), F(2)): 59, (F(2), F(1)): 59, (F(2), F(2)): 3,
                (F(3), F(0)): 1, (F(3), F(3)): 1}
    assert report.a_space.dims == expected
    assert report.b_space.dims == expected
    assert len(report.restricted.a0_to_narrow) == 108
    assert len(report.restricted.narrow_to_b0) == 4


def test_good_quintic_center_pairings(good_report, quintic):
    report = good_report
    j = lg.exponential_grading(quintic)
    # narrow ⌊1, j^i⌉ ↔ untwisted x1^{i−1}…x5^{i−1}, bidegrees (i−1, i−1)
    narrow = {va.leading[2]: (vb.terms[0][1], va.bidegree)
              for va, vb in report.restricted.narrow_to_b0}
    for i in (1, 2, 3, 4):
        exps, bidegree = narrow[j ** i]
        assert exps == (i - 1,) * 5
        assert bidegree == (i - 1, i - 1)
    # untwisted x^{i−1} ↔ narrow ⌊1, j^i⌉, bidegrees (i−1, 4−i)
    a0 = {va.terms[0][1]: (frozenset(vb.sector_elements), va.bidegree)
          for va, vb in report.restricted.a0_to_narrow}
    for i in (1, 2, 3, 4):
        elements, bidegree = a0[((i - 1,) * 5)]
        assert elements == {j ** i}
        assert bidegree == (i - 1, 4 - i)


def test_good_quintic_twisted_structure(good_report, quintic):
    # fine structure of the (12)(34) sectors on both sides
    report = good_report
    sigma = perm([(0, 1), (2, 3)], 5)
    j = lg.exponential_grading(quintic)
    # A side: narrow σ·j^a at (1,1)/(2,2)/(1,1)/(2,2)
    a_lead = {v.leading[2]: v.bidegree for v in report.a_space.basis}
    assert a_lead[sigma * j] == (1, 1)
    assert a_lead[sigma * j ** 2] == (2, 2)
    assert a_lead[sigma * j ** 3] == (1, 1)
    assert a_lead[sigma * j ** 4] == (2, 2)
    # A side: the twisted broad sector keeps all six exponent tuples of
    # total degree 2 in the three cycle coordinates (no sign obstruction
    # with K generated by σ alone)
    broad = [v for v in report.a_space.basis
             if v.leading[2] == sigma and v.bidegree == (1, 2)]
    assert {v.leading[1] for v in broad} == \
        {(2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 2), (1, 0, 1), (0, 1, 1)}
    # B side: class of σ·j has 25 members and sits at (1, 2)
    b_class = next(v for v in report.b_space.basis
                   if sigma * j in v.sector_elements)
    assert len(b_class.terms) == 25 and b_class.bidegree == (1, 2)
    # B side: the class of the pure swap contributes two vectors at (1,1)
    # and two at (2,2), from the centralizer-invariant monomials
    swap_vectors = [v for v in report.b_space.basis
                    if v.leading[2] == sigma]
    assert sorted(v.bidegree for v in swap_vectors) == \
        [(1, 1), (1, 1), (2, 2), (2, 2)]
    assert {v.leading[1] for v in swap_vectors} == \
        {(1, 1, 0), (0, 0, 2), (3, 3, 1), (2, 2, 3)}


def test_bad_quintic_twisted_structure(bad_report):
    # with the Klein group the swap of the two 2-cycles flips the volume
    # form, so only the sign-twisted combinations survive on the A side
    report = bad_report
    sigma = perm([(0, 1), (2, 3)], 5)
    broad = [v for v in report.a_space.basis if v.leading[2] == sigma]
    assert len(broad) == 4
    twelve = next(v for v in broad if v.leading[1] == (0, 1, 1))
    assert twelve.bidegree == (1, 2)
    # y2·y3 - y1·y3: two terms, relative coefficient phase 1/2
    assert [(e, str(ph)) for ph, e, _ in twelve.terms] == \
        [((0, 1, 1), "0"), ((1, 0, 1), "1/2")]
    # the symmetric monomials y1·y2 and y3^2 are killed by the sign
    dead = {(1, 1, 0), (0, 0, 2), (3, 3, 1), (2, 2, 3)}
    assert not ({v.leading[1] for v in broad} & dead)
    # and on the B side the pure-swap class contributes nothing at all
    assert not any(v.leading[2] == sigma for v in report.b_space.basis)


def test_full_comparison_bad_quintic(bad_report):
    report = bad_report
    assert report.verdict is lg.Verdict.DIMENSIONS_MATCH_BIGRADING_FAILS
    assert not report.pc_holds
    assert report.pc_witness is not None and report.pc_witness.order == 4
    assert report.a_space.total_dim == report.b_space.total_dim == 88
    assert report.a_space.dims == {
        (F(0), F(0)): 1, (F(1), F(1)): 7, (F(2), F(2)): 7, (F(3), F(3)): 1,
        (F(0), F(3)): 1, (F(1), F(2)): 35, (F(2), F(1)): 35, (F(3), F(0)): 1}
    assert report.b_space.dims == {
        (F(0), F(0)): 1, (F(1), F(1)): 1, (F(2), F(2)): 1, (F(3), F(3)): 1,
        (F(0), F(3)): 1, (F(1), F(2)): 41, (F(2), F(1)): 41, (F(3), F(0)): 1}
    assert [bd for bd, _, _ in report.mismatches] == \
        [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_bad_quintic_flagged_sector(bad_report, quintic):
    # A-side ⌊1, (12)(34)·j⌉ sits at (1,1); the B-side class sum through the
    # same element sits at (1,2)
    report = bad_report
    sj = perm([(0, 1), (2, 3)], 5) * lg.exponential_grading(quintic)
    a_vec = next(v for v in report.a_space.basis if v.leading[2] == sj)
    assert a_vec.bidegree == (1, 1)
    b_vec = next(v for v in report.b_space.basis if sj in v.sector_elements)
    assert b_vec.bidegree == (1, 2)
    assert len(b_vec.terms) == 25


def test_bad_quintic_restricted_still_works(bad_report):
    report = bad_report
    pairs = report.restricted.a0_to_narrow
    assert len(pairs) == 60
    by_bidegree = {}
    for va, _ in pairs:
        by_bidegree[va.bidegree] = by_bidegree.get(va.bidegree, 0) + 1
    assert by_bidegree == {(0, 3): 1, (1, 2): 29, (2, 1): 29, (3, 0): 1}
    # a merged two-term row: x1*x2*x5^3 + x3*x4*x5^3 pairs with the two-element
    # class {(2/5,2/5,1/5,1/5,4/5), (1/5,1/5,2/5,2/5,4/5)}
    target = frozenset({(1, 1, 0, 0, 3), (0, 0, 1, 1, 3)})
    row = next((va, vb) for va, vb in pairs
               if frozenset(e for _, e, _ in va.terms) == target)
    phases = {tuple(str(p) for p in g.phases) for g in row[1].sector_elements}
    assert phases == {("2/5", "2/5", "1/5", "1/5", "4/5"),
                      ("1/5", "1/5", "2/5", "2/5", "4/5")}
    # a four-term row following the permutation structure
    target = frozenset({(3, 2, 0, 0, 0), (2, 3, 0, 0, 0),
                        (0, 0, 3, 2, 0), (0, 0, 2, 3, 0)})
    row = next((va, vb) for va, vb in pairs
               if frozenset(e for _, e, _ in va.terms) == target)
    assert len(row[1].terms) == 4
    assert row[0].bidegree == (1, 2)


def test_restricted_mirror_randomized_never_fails():
    rng = random.Random(101)
    for _ in range(12):
        poly, group = random_mirror_instance(rng)
        pairs = lg.full_comparison(poly, group).restricted
        for va, vb in pairs.a0_to_narrow + pairs.narrow_to_b0:
            assert va.bidegree == vb.bidegree


# --- the corner check's negative path ----------------------------------------
# Each test corrupts one corner of the quartic's spaces and expects the check
# to raise with its message.

def is_corner(vector, kind):
    g = vector.leading[2]
    return g.is_identity if kind == "untwisted" else g.is_diagonal and all(g.nums)


def corrupted(space, kind, change):
    """``space`` with ``change`` applied to its first ``kind`` corner vector:
    the list of vectors it is replaced by."""
    basis = list(space.basis)
    k = next(k for k, v in enumerate(basis) if is_corner(v, kind))
    basis[k:k + 1] = change(basis[k])
    return lg.GradedSpace(space.side, space.poly, space.group, tuple(basis))


MAPS_TO_NO = {"untwisted": "untwisted vector maps to no narrow class sum",
              "narrow": "narrow class sum maps to no untwisted vector"}
NOT_HIT = {"untwisted": "1 narrow class sums are not hit by the untwisted vectors",
           "narrow": "1 untwisted vectors are not hit by the narrow class sums"}
OTHER = {"untwisted": "narrow", "narrow": "untwisted"}


@pytest.mark.parametrize("kind", ["untwisted", "narrow"])
def test_corner_check_rejects_a_changed_b_bidegree(quartic_report, kind):
    r = quartic_report

    def shift(v):
        p, q = v.bidegree
        return [v._replace(bidegree=(p + 1, q))]
    b_space = corrupted(r.b_space, OTHER[kind], shift)
    with pytest.raises(TheoremViolationError, match="bidegree not preserved"):
        mirror._corner_pairs(r.a_space, b_space)


@pytest.mark.parametrize("kind", ["untwisted", "narrow"])
def test_corner_check_rejects_a_dropped_b_vector(quartic_report, kind):
    r = quartic_report
    b_space = corrupted(r.b_space, OTHER[kind], lambda v: [])
    with pytest.raises(TheoremViolationError, match=MAPS_TO_NO[kind]):
        mirror._corner_pairs(r.a_space, b_space)


@pytest.mark.parametrize("kind", ["untwisted", "narrow"])
def test_corner_check_rejects_a_dropped_a_vector(quartic_report, kind):
    r = quartic_report
    a_space = corrupted(r.a_space, kind, lambda v: [])
    with pytest.raises(TheoremViolationError, match=NOT_HIT[kind]):
        mirror._corner_pairs(a_space, r.b_space)


@pytest.mark.parametrize("kind", ["untwisted", "narrow"])
def test_corner_check_rejects_a_repeated_a_vector(quartic_report, kind):
    r = quartic_report
    a_space = corrupted(r.a_space, kind, lambda v: [v, v])
    with pytest.raises(TheoremViolationError, match=MAPS_TO_NO[kind]):
        mirror._corner_pairs(a_space, r.b_space)


# --- the corner check against the element-wise oracle -------------------------

def assert_corners_match_oracle(report):
    h = report.hk.h
    expected = corner_pairs(report.poly, report.a_space, report.b_space, h,
                            lg.dual_group(h, report.poly))
    assert mirror._corner_pairs(report.a_space, report.b_space) == expected
    assert report.restricted == expected


def test_corner_check_matches_oracle(quartic_report, good_report, bad_report):
    for report in (quartic_report, good_report, bad_report):
        assert_corners_match_oracle(report)
    rng = random.Random(1103)
    for _ in range(30):
        assert_corners_match_oracle(lg.full_comparison(*random_mirror_instance(rng)))


def test_corners_and_labels_build_no_element_or_sector(bad_report, monkeypatch):
    report = bad_report

    def build(*args, **kwargs):
        pytest.fail("a group element was built")
    lg.build_sector.cache_clear()
    monkeypatch.setattr(lg.MonomialSymmetry, "__init__", build)
    monkeypatch.setattr(lg.MonomialSymmetry, "from_numerators", classmethod(build))
    pairs = mirror._corner_pairs(report.a_space, report.b_space)
    for space in (report.a_space, report.b_space):
        labels = [lg.vector_label(v, space.poly) for v in space.basis]
        assert len(labels) == 88
    assert len(pairs.a0_to_narrow) == 60 and len(pairs.narrow_to_b0) == 4
    assert lg.build_sector.cache_info().misses == 0


def test_corners_and_dims_compare_bidegrees_by_identity(quartic_report, good_report,
                                                        bad_report, monkeypatch):
    # every space shares one Fraction pair per bidegree value, so neither the
    # corner check nor the histogram comparison runs Fraction.__eq__
    calls = []
    eq = F.__eq__

    def counted(a, b):
        calls.append((a, b))
        return eq(a, b)
    monkeypatch.setattr(F, "__eq__", counted)
    equal = []
    for report in (quartic_report, good_report, bad_report):
        mirror._corner_pairs(report.a_space, report.b_space)
        equal.append(report.a_space.dims == report.b_space.dims)
    assert calls == []
    assert equal == [True, True, False]


def test_abelian_mirror_theorem_on_random_models():
    # Krawitz (arXiv:0906.0796): with K trivial, G = H is diagonal and the
    # A-model of (W, G) is bigraded isomorphic to the B-model of (Wᵀ, Gᵀ).
    # With K non-trivial the parity condition is a hypothesis, not a
    # verdict: where it fails a mismatch is allowed, so nothing is asserted
    rng = random.Random(20261018)
    abelian = 0
    for _ in range(300):
        poly, group = random_mirror_instance(rng)
        if lg.decompose_hk(group, poly).k.order == 1:
            abelian += 1
            report = lg.full_comparison(poly, group)
            assert report.verdict is lg.Verdict.BIGRADED_ISOMORPHIC, (poly, group)
    assert abelian >= 150
