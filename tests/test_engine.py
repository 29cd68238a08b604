import random
from fractions import Fraction

import pytest

from helpers import mult_by_partials, random_point
from waldschmidt import engine
from waldschmidt.engine import (Engine, FormalDivisor,
                                InsufficientMultiplicityError, sweep, verify_upper)
from waldschmidt.fatpoints import AlphaResult, AlphaSearchError, FatPointScheme, alpha
from waldschmidt.fixtures import STANDARD_CONIC, fixture, fixture_names
from waldschmidt.geometry import (PlaneCurve, ProjPoint, cubic_with_double_point,
                                  line_through, monomial_count, mult_at)

F = Fraction


def test_verify_upper_l4q3d():
    fx = fixture("L4Q3-D")
    qs = fx.points[4:]
    sides = [line_through(qs[1], qs[2]), line_through(qs[0], qs[2]),
             line_through(qs[0], qs[1])]
    carrier = line_through(fx.points[0], fx.points[1])
    dv = FormalDivisor([(sides[0], 1), (sides[1], 1), (sides[2], 1), (carrier, 2)], 2)
    assert verify_upper(dv, FatPointScheme.uniform(fx.points, 2)) == F(5, 2)


def test_verify_upper_cubic_plus_conic():
    fx = fixture("CONIC6+Q")
    cubic = cubic_with_double_point(fx.points[:6], fx.points[6])
    dv = FormalDivisor([(cubic, 1), (STANDARD_CONIC, 1)], 2)
    assert verify_upper(dv, FatPointScheme.uniform(fx.points, 2)) == F(5, 2)


def test_verify_upper_all_collinear():
    pts = [ProjPoint(1, a, 0) for a in range(5)]
    dv = FormalDivisor([(line_through(pts[0], pts[1]), 1)], 1)
    assert verify_upper(dv, FatPointScheme.uniform(pts, 1)) == 1


def test_verify_upper_rejects_and_names_point():
    fx = fixture("L4Q3-D")
    carrier = line_through(fx.points[0], fx.points[1])
    dv = FormalDivisor([(carrier, 2)], 2)
    with pytest.raises(InsufficientMultiplicityError) as err:
        verify_upper(dv, FatPointScheme.uniform(fx.points, 2))
    assert "(0:0:1)" in str(err.value)


def test_verify_upper_rejects_a_non_uniform_scheme():
    fx = fixture("L4Q3-D")
    carrier = line_through(fx.points[0], fx.points[1])
    dv = FormalDivisor([(carrier, 1)], 1)
    scheme = FatPointScheme(fx.points, [1] * (len(fx.points) - 1) + [2])
    with pytest.raises(ValueError, match="uniform scheme"):
        verify_upper(dv, scheme)


def test_verify_upper_matches_expanded_product():
    fx = fixture("CONIC6+Q")
    cubic = cubic_with_double_point(fx.points[:6], fx.points[6])
    dv = FormalDivisor([(cubic, 1), (STANDARD_CONIC, 1)], 2)
    product = cubic.multiply(STANDARD_CONIC)
    for p in fx.points:
        total = sum(c * mult_at(curve, p) for curve, c in dv.terms)
        assert mult_at(product, p) == total
        assert total >= 2


def test_sweep_single_point():
    trace = sweep([ProjPoint(1, 2, 3)], 3)
    assert [(e.m, e.alpha, e.ratio) for e in trace] == [
        (1, 1, F(1)), (2, 2, F(1)), (3, 3, F(1))]


def test_sweep_with_hint_matches_plain_sweep():
    pts = fixture("L4Q3-D").points
    plain = sweep(pts, 2)
    hinted = sweep(pts, 2, lower_hint=F(5, 2))
    assert [(e.m, e.alpha) for e in plain] == [(e.m, e.alpha) for e in hinted]
    assert hinted[1].alpha == 5


def searched_alphas(points, m_max):
    return [alpha(FatPointScheme.uniform(points, m)).alpha for m in range(1, m_max + 1)]


def assert_witnesses_hold(points, entries):
    for e in entries:
        assert e.witness.degree == e.alpha
        assert all(mult_by_partials(e.witness, p) >= e.m for p in points)


@pytest.mark.parametrize("name", fixture_names())
def test_sweep_equals_search_on_fixtures(name):
    pts = fixture(name).points
    entries = sweep(pts, 4)
    assert [e.alpha for e in entries] == searched_alphas(pts, 4)
    assert [e.m for e in entries] == [1, 2, 3, 4]
    assert_witnesses_hold(pts, entries)


# the alphas were measured by searching every alpha(mX) from d = m; each
# product is the one of least degree, so alpha(3X) on CONIC7+Q-SUB3 is the
# only entry past m = 1 that no product attains
@pytest.mark.parametrize("name, alphas, provenance", [
    ("NINE-54", [3, 6, 9, 12, 15, 18, 21, 24],
     ["search"] + ["product 1+%d" % b for b in range(1, 8)]),
    ("CONIC7+Q-SUB3", [3, 6, 8, 11, 14, 16, 19, 22],
     ["search", "product 1+1", "search", "product 1+3", "product 1+4",
      "product 3+3", "product 1+6", "product 1+7"]),
])
def test_sweep_to_eight_matches_searched_alphas(name, alphas, provenance):
    pts = fixture(name).points
    entries = sweep(pts, 8)
    assert [e.alpha for e in entries] == alphas
    assert [e.provenance for e in entries] == provenance
    assert_witnesses_hold(pts, entries)


def random_configuration(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 8)
    pts = []
    while len(pts) < n:
        p = random_point(rng, bound=3)
        if p not in pts:
            pts.append(p)
    return pts


def test_sweep_equals_search_on_random_configurations():
    provenances = set()
    for seed in range(12):
        pts = random_configuration(seed)
        entries = sweep(pts, 3)
        assert [e.alpha for e in entries] == searched_alphas(pts, 3), seed
        assert_witnesses_hold(pts, entries)
        provenances.update(e.provenance.split()[0] for e in entries[1:])
    # the seeds reach both ways of certifying an entry with m >= 2
    assert provenances == {"product", "search"}


def test_sweep_searches_when_the_product_is_not_attained():
    entries = sweep(fixture("CONIC7+Q-SUB3").points, 3)
    assert entries[0].alpha + entries[1].alpha == 9
    assert (entries[2].alpha, entries[2].provenance) == (8, "search")
    assert entries[1].provenance == "product 1+1"


def test_sweep_rejects_a_product_whose_factor_misses_a_point(monkeypatch):
    # alpha(1X) answers with x^3, which misses every point off x = 0; at
    # m = 2 the product x^6 is taken, since degree 5 is provably empty
    # (alpha(2X) = 6 on NINE-54)
    pts = fixture("NINE-54").points
    x_cubed = PlaneCurve(3, [1] + [0] * (monomial_count(3) - 1))
    assert any(mult_at(x_cubed, p) == 0 for p in pts)
    monkeypatch.setattr(engine, "alpha",
                        lambda scheme, min_degree=None: AlphaResult(1, 3, x_cubed, []))
    with pytest.raises(AlphaSearchError, match="witness fails multiplicity"):
        sweep(pts, 2)


def test_sweep_survives_a_hint_above_the_constant():
    # alpha(mX)/m < 4 for every m here, so each floor this hint gives fails
    # its check
    pts = fixture("CONIC6+Q").points
    hinted = sweep(pts, 4, lower_hint=F(4))
    assert [e.alpha for e in hinted] == [e.alpha for e in sweep(pts, 4)] == [3, 5, 8, 10]
    assert_witnesses_hold(pts, hinted)


def test_alpha_uniform_drops_a_floor_above_alpha():
    # a floor above alpha(2X) = 5 fails its check and the search finds 5,
    # as unhinted calls do
    pts = fixture("CONIC6+Q").points
    eng = Engine()
    assert eng.alpha_uniform(pts, 2, lower_hint=F(4)).alpha == 5
    assert eng.alpha_uniform(pts, 2).alpha == 5
    assert Engine().alpha_uniform(pts, 2).alpha == 5


def test_engine_holds_no_state():
    eng = Engine()
    eng.sweep(fixture("CONIC7+Q-SUB3").points, 3)
    assert vars(eng) == {}


def test_divisor_validation():
    line = line_through(ProjPoint(1, 0, 0), ProjPoint(0, 1, 0))
    with pytest.raises(ValueError):
        FormalDivisor([(line, 0)], 1)
    with pytest.raises(ValueError):
        FormalDivisor([(line, -1)], 1)


# each was once read through int(): 1.9 as 1, 2.9 as 2, True as 1
@pytest.mark.parametrize("coeff, m", [(1.9, 2), (True, 2), (1, 2.9), (1, True), (1, "2")])
def test_divisor_rejects_a_number_that_is_not_an_int(coeff, m):
    with pytest.raises(TypeError):
        FormalDivisor([(STANDARD_CONIC, coeff)], m)
