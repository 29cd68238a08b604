from fractions import Fraction

import pytest

from waldschmidt.engine import (Engine, FormalDivisor,
                                InsufficientMultiplicityError, sweep, verify_upper)
from waldschmidt.fatpoints import FatPointScheme
from waldschmidt.fixtures import STANDARD_CONIC, fixture
from waldschmidt.geometry import ProjPoint, cubic_with_double_point, line_through, mult_at

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


def test_engine_memoizes():
    eng = Engine()
    pts = fixture("CONIC5").points
    first = eng.alpha_uniform(pts, 1)
    second = eng.alpha_uniform(pts, 1)
    assert first is second


def test_engine_memo_keyed_on_search_floor():
    # a floor above alpha(2X) = 5 fails its check and the search finds 5; a
    # later unhinted call must search again rather than reuse it
    pts = fixture("CONIC6+Q").points
    eng = Engine()
    assert eng.alpha_uniform(pts, 2, lower_hint=F(4)).alpha == 5
    assert eng.alpha_uniform(pts, 2).alpha == 5
    assert Engine().alpha_uniform(pts, 2).alpha == 5


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
