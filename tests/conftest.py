import pytest

import lgmirror as lg


@pytest.fixture(scope="session")
def quartic():
    return lg.parse_polynomial("x1^4 + x2^4 + x3^4 + x4^4")


@pytest.fixture(scope="session")
def quartic_group(quartic):
    j = lg.exponential_grading(quartic)
    s123 = lg.MonomialSymmetry.from_cycles([(0, 1, 2)], 4)
    return lg.closure([j, s123])


@pytest.fixture(scope="session")
def quintic():
    return lg.parse_polynomial("x1^5 + x2^5 + x3^5 + x4^5 + x5^5")


@pytest.fixture(scope="session")
def good_group(quintic):
    j = lg.exponential_grading(quintic)
    swap = lg.MonomialSymmetry.from_cycles([(0, 1), (2, 3)], 5)
    return lg.closure([j, swap])


@pytest.fixture(scope="session")
def bad_group(quintic):
    j = lg.exponential_grading(quintic)
    s1 = lg.MonomialSymmetry.from_cycles([(0, 1), (2, 3)], 5)
    s2 = lg.MonomialSymmetry.from_cycles([(0, 2), (1, 3)], 5)
    return lg.closure([j, s1, s2])


@pytest.fixture(scope="session")
def bad_star(quintic, bad_group):
    """The bad quintic's G* = Hᵀ·K, of order 2,500, built once per session."""
    return lg.nonabelian_dual(bad_group, quintic)


@pytest.fixture(scope="session")
def quartic_report(quartic, quartic_group):
    return lg.full_comparison(quartic, quartic_group)


@pytest.fixture(scope="session")
def good_report(quintic, good_group):
    return lg.full_comparison(quintic, good_group)


@pytest.fixture(scope="session")
def bad_report(quintic, bad_group):
    return lg.full_comparison(quintic, bad_group)
