import importlib
import random
from fractions import Fraction

import pytest

from helpers import lp_min_t_by_vertices, simplex_by_fractions
from test_soundness import KINDS, soundness_configuration
from waldschmidt import bezout
from waldschmidt.bezout import (BezoutSystem, Constraint, LowerBoundCertificate,
                                LPInternalError, ProportionalCurvesError,
                                UnverifiedCurveError, build_system, solve_min_ratio,
                                verify_certificate)
from waldschmidt.classify import classify
from waldschmidt.fatpoints import FatPointScheme, alpha
from waldschmidt.fixtures import CUBIC9_CURVE, STANDARD_CONIC, fixture, fixture_names
from waldschmidt.geometry import PlaneCurve, ProjPoint, line_through, monomials, mult_at
from golden import GOLDEN, golden_names

F = Fraction


def scheme_and_sides(name):
    fx = fixture(name)
    pts = fx.points
    qs = pts[-3:]
    sides = [line_through(qs[1], qs[2]), line_through(qs[0], qs[2]),
             line_through(qs[0], qs[1])]
    carrier = line_through(pts[0], pts[1])
    return FatPointScheme.uniform(pts, 1), sides, carrier


def test_build_system_l4q3d_shape():
    scheme, sides, carrier = scheme_and_sides("L4Q3-D")
    system = build_system(scheme.points, sides + [carrier],
                          labels=["L1", "L2", "L3", "L"])
    assert system.var_names == ["L1", "L2", "L3", "L"]
    assert [c.label for c in system.constraints] == ["degree", "L1", "L2", "L3", "L"]
    by_label = {c.label: c for c in system.constraints}
    assert by_label["degree"].a_coeffs == (F(-1),) * 4
    # the carrier row reads t - a1 - a2 - a3 + 3*aL >= 4
    assert by_label["L"].a_coeffs == (F(-1), F(-1), F(-1), F(3))
    assert by_label["L"].rhs == 4
    # each side row reads t + a_self - aL >= 2
    assert by_label["L1"].a_coeffs == (F(1), F(0), F(0), F(-1))


def test_build_system_single_point_single_line():
    p = ProjPoint(0, 0, 1)
    scheme = FatPointScheme.uniform([p], 1)
    line = line_through(p, ProjPoint(1, 0, 1))
    system = build_system(scheme.points, [line], labels=["L"])
    cert = solve_min_ratio(system)
    assert cert.bound == 1


def test_build_system_rejects_curves_through_no_point():
    scheme, sides, carrier = scheme_and_sides("L4Q3-D")
    for curves in ([], [PlaneCurve(1, [1, 1, 1])]):
        with pytest.raises(ValueError, match="no curve passes through any of the points"):
            build_system(scheme.points, curves)


def test_build_system_rejects_unverified_conic():
    scheme, sides, carrier = scheme_and_sides("L4Q3-D")
    degenerate = PlaneCurve(2, [0, 1, 0, 0, 0, 0])  # x0*x1, a line pair
    with pytest.raises(UnverifiedCurveError):
        build_system(scheme.points, [carrier, degenerate])


def test_aux_set_rejects_proportional_curves():
    scheme, sides, carrier = scheme_and_sides("L4Q3-D")
    with pytest.raises(ProportionalCurvesError):
        build_system(scheme.points, [carrier, PlaneCurve(1, [0, 0, 5])])


def test_repeated_curve_is_reported_before_an_unverified_one():
    scheme, sides, carrier = scheme_and_sides("L4Q3-D")
    degenerate = PlaneCurve(2, [0, 1, 0, 0, 0, 0])  # x0*x1, a line pair
    with pytest.raises(ProportionalCurvesError):
        build_system(scheme.points, [degenerate, carrier, carrier])


def test_unverified_curve_is_rejected_before_any_multiplicity(monkeypatch):
    scheme, sides, carrier = scheme_and_sides("L4Q3-D")

    def no_contains(curve, point):
        raise AssertionError("contains called before the verification check")

    monkeypatch.setattr(bezout, "contains", no_contains)
    degenerate = PlaneCurve(2, [0, 1, 0, 0, 0, 0])
    with pytest.raises(UnverifiedCurveError):
        build_system(scheme.points, [carrier, degenerate])


COLLINEAR4 = [ProjPoint(1, a, 0) for a in range(1, 5)]
NODE_POINTS = [ProjPoint(0, 0, 1), ProjPoint(3, 6, 1), ProjPoint(8, 24, 1), ProjPoint(-1, 0, 1)]
X0 = PlaneCurve(1, [1, 0, 0])


# x0^2*x2 contains the carrier x2 of the four points, and once admitted it
# lifted their LP bound to 4/3, above the value 1
@pytest.mark.parametrize("label, points, curve", [
    ("x0^2*x2", COLLINEAR4, PlaneCurve(3, [0, 0, 1, 0, 0, 0, 0, 0, 0, 0])),
    ("x0*(x0x2-x1^2)", NODE_POINTS[:1] + [ProjPoint(1, 1, 1), ProjPoint(0, 1, 1)],
     X0.multiply(STANDARD_CONIC)),
    ("x1^2x2-x0^3-x0^2x2", NODE_POINTS, PlaneCurve(3, [-1, 0, -1, 0, 0, 0, 0, 1, 0, 0])),
    ("x0^3x2+x1^4", NODE_POINTS[:1], PlaneCurve(4, [1 if e in ((3, 0, 1), (0, 4, 0)) else 0
                                                    for e in monomials(4)])),
], ids=["reducible-cubic", "line-times-conic", "nodal-cubic", "irreducible-quartic"])
def test_build_system_admits_no_reducible_singular_or_higher_curve(label, points, curve):
    line = line_through(points[0], ProjPoint(1, 2, 3))
    with pytest.raises(UnverifiedCurveError) as info:
        build_system(points, [line, curve], ["line", label])
    assert str(info.value) == ("curve %r is not a line, an irreducible conic "
                               "or a smooth cubic" % label)


def test_build_system_admits_the_smooth_cubic_of_cubic9():
    points = fixture("CUBIC9").points
    system = build_system(points, [CUBIC9_CURVE], ["cubic"])
    assert system.constraints[1].rhs == 9
    assert solve_min_ratio(system).bound == 3


@pytest.mark.parametrize("name", golden_names())
def test_golden_systems_against_vertex_oracle(name):
    g = GOLDEN[name]
    cert = solve_min_ratio(g.system)
    oracle = lp_min_t_by_vertices(g.system)
    assert cert.bound == oracle
    if g.equality:
        assert cert.bound == g.bound
    else:
        assert cert.bound >= g.bound


@pytest.mark.parametrize("name", golden_names())
def test_golden_reference_multipliers_verify(name):
    g = GOLDEN[name]
    assert verify_certificate(g.certificate())


def test_scaled_multipliers_also_verify():
    g = GOLDEN["line7/one-side-point"]
    scaled = LowerBoundCertificate(g.bound, [d * F(1, 49) for d in g.duals], g.system)
    assert verify_certificate(scaled)


def test_negative_dual_rejected():
    g = GOLDEN["line7/no-side-point"]
    bad = LowerBoundCertificate(g.bound, [F(-1), F(3)], g.system)
    assert not verify_certificate(bad)


def test_mismatched_duals_rejected():
    a = GOLDEN["line7/three-side-points"]
    b = GOLDEN["line7/two-side-points"]
    cross = LowerBoundCertificate(b.bound, b.duals, a.system)
    res = verify_certificate(cross)
    assert not res and res.reasons


def test_wrong_bound_rejected():
    g = GOLDEN["conic6/three-concurrent-chords"]
    lying = LowerBoundCertificate(F(5, 2), g.duals, g.system)
    assert not verify_certificate(lying)


def test_complementary_slackness_at_optimum():
    for name in golden_names():
        g = GOLDEN[name]
        cert = solve_min_ratio(g.system)
        x = cert.primal
        for c, y in zip(g.system.constraints, cert.duals):
            lhs = c.t_coeff * x[0] + sum(a * v for a, v in zip(c.a_coeffs, x[1:]))
            if y > 0:
                assert lhs == c.rhs


def test_monotonicity_adding_curves():
    scheme, sides, carrier = scheme_and_sides("L4Q3-A")
    p4 = fixture("L4Q3-A").points[3]
    qs = fixture("L4Q3-A").points[4:]
    spokes = [line_through(p4, q) for q in qs]
    bound_small = solve_min_ratio(build_system(scheme.points, sides + [carrier])).bound
    bound_big = solve_min_ratio(build_system(scheme.points,
                                             sides + [carrier] + spokes)).bound
    assert bound_big >= bound_small
    assert bound_big == F(16, 7)


def test_scale_invariance_of_built_system():
    scheme, sides, carrier = scheme_and_sides("L4Q3-D")
    scaled = [PlaneCurve(1, [7 * c for c in ln.coeffs]) for ln in sides]
    b1 = solve_min_ratio(build_system(scheme.points, sides + [carrier])).bound
    b2 = solve_min_ratio(build_system(scheme.points, scaled + [carrier])).bound
    assert b1 == b2 == F(5, 2)


def test_lp_soundness_against_alpha():
    for name, curves_of in (("L4Q3-D", "sides+carrier"), ("CONIC6-TYPE1", "chords")):
        fx = fixture(name)
        pts = fx.points
        scheme = FatPointScheme.uniform(pts, 1)
        if curves_of == "sides+carrier":
            _, sides, carrier = scheme_and_sides(name)
            curves = sides + [carrier]
        else:
            from waldschmidt.fixtures import STANDARD_CONIC, conic_chord
            curves = [conic_chord(2, F(1, 2)), conic_chord(3, F(1, 3)),
                      conic_chord(-2, F(-1, 2)), STANDARD_CONIC]
        bound = solve_min_ratio(build_system(scheme.points, curves)).bound
        for m in (1, 2, 3):
            a = alpha(FatPointScheme.uniform(pts, m),
                      min_degree=max(1, -(-bound.numerator * m // bound.denominator)))
            assert F(a.alpha, m) >= bound


def test_certificate_json_roundtrip():
    g = GOLDEN["line7/two-side-points"]
    cert = solve_min_ratio(g.system)
    blob = cert.to_json()
    back = LowerBoundCertificate.parse(blob, g.system)
    assert back.bound == cert.bound
    assert back.duals == cert.duals
    assert verify_certificate(back)


def test_constraint_accepts_only_ints():
    with pytest.raises(TypeError):
        Constraint("x", Fraction(1, 2), [1], 0)
    with pytest.raises(TypeError):
        Constraint("x", 1, [Fraction(1)], 0)
    with pytest.raises(TypeError):
        Constraint("x", 1, [1], 0.5)
    with pytest.raises(TypeError):
        Constraint("x", True, [1], 0)
    c = Constraint("x", 2, [-1, 3], 4)
    assert (c.t_coeff, c.a_coeffs, c.rhs) == (2, (-1, 3), 4)
    assert all(type(v) is int for v in (c.t_coeff, c.rhs) + c.a_coeffs)


def both_simplices(obj, rows, rhs):
    """(integer result, Fraction result), or the LPInternalError message of each."""
    out = []
    for solve in (bezout._simplex_max, simplex_by_fractions):
        try:
            out.append(solve(obj, rows, rhs))
        except LPInternalError as exc:
            out.append(str(exc))
    return out


def test_integer_simplex_equals_fraction_simplex_on_classify_lps(monkeypatch):
    # every LP classify solves on the registry and on the two soundness
    # configurations whose fallback LP takes 40 auxiliary curves
    calls = []
    integer_simplex = bezout._simplex_max

    def record(obj, rows, rhs):
        calls.append((list(obj), [list(r) for r in rows], list(rhs)))
        return integer_simplex(obj, rows, rhs)

    monkeypatch.setattr(bezout, "_simplex_max", record)
    inputs = [fixture(name).points for name in fixture_names()]
    inputs += [soundness_configuration(random.Random(7919 * seed), KINDS[seed % len(KINDS)])
               for seed in (7, 17)]
    for points in inputs:
        classify(points)
    monkeypatch.undo()
    assert len(calls) >= len(inputs)
    assert sum(len(obj) == 41 for obj, _, _ in calls) == 2
    for obj, rows, rhs in calls:
        assert all(type(v) is int for v in obj + rhs + [x for r in rows for x in r])
        value, y, reduced = bezout._simplex_max(obj, rows, rhs)
        assert all(type(v) is Fraction for v in [value] + y + reduced)
        assert (value, y, reduced) == simplex_by_fractions(obj, rows, rhs)


def test_system_multiplicities_equal_mult_at_on_classify_lps(monkeypatch):
    # every LP classify builds on the registry and on the two soundness
    # configurations whose fallback LP takes 40 auxiliary curves: membership
    # gives lines and conics the multiplicities mult_at finds
    calls = []

    def record(points, curves, labels=None):
        system = build_system(points, curves, labels)
        calls.append((points, curves, system))
        return system

    monkeypatch.setattr(importlib.import_module("waldschmidt.classify"), "build_system", record)
    inputs = [fixture(name).points for name in fixture_names()]
    inputs += [soundness_configuration(random.Random(7919 * seed), KINDS[seed % len(KINDS)])
               for seed in (7, 17)]
    for points in inputs:
        classify(points)
    monkeypatch.undo()
    assert len(calls) >= len(inputs)
    degrees = set()
    for points, curves, system in calls:
        rows = [[mult_at(c, p) for p in points] for c in curves]
        for j, (cons, row) in enumerate(zip(system.constraints[1:], rows)):
            assert cons.rhs == sum(row)
            assert list(cons.a_coeffs) == [
                sum(a * b for a, b in zip(row, other)) - curves[j].degree * c.degree
                for c, other in zip(curves, rows)]
        degrees.update(c.degree for c in curves)
    assert degrees == {1, 2, 3}


def test_integer_simplex_equals_fraction_simplex_on_random_systems():
    rng = random.Random(2024)
    bounded = 0
    for _ in range(400):
        k, m = rng.randint(1, 7), rng.randint(1, 6)
        obj = [rng.randint(-4, 9) for _ in range(k)]
        rows = [[rng.randint(-3, 7) for _ in range(k)] for _ in range(m)]
        rhs = [rng.choice([0, 0, 1, 2, 5, 12]) for _ in range(m)]
        got, want = both_simplices(obj, rows, rhs)
        assert got == want, (obj, rows, rhs)
        bounded += not isinstance(got, str)
    # both outcomes occur: an optimum, and an unbounded dual
    assert 0 < bounded < 400


def test_positive_net_coefficient_reported_at_the_duals_scale():
    system = BezoutSystem(["a"], [Constraint("degree", 1, [-1], 0),
                                  Constraint("c", 1, [1], 1)])
    res = verify_certificate(LowerBoundCertificate(1, [F(0), F(1, 2)], system))
    assert not res
    assert res.reasons == ["variable a has positive net coefficient 1/2"]


def test_audit_rejects_a_primal_point_off_the_system():
    # min t over t - a >= 0, t + a >= 1 is 1/2 at (1/2, 1/2); the point
    # (1/2, 1/3) has the optimal value but violates the second row
    system = BezoutSystem(["a"], [Constraint("degree", 1, [-1], 0),
                                  Constraint("c", 1, [1], 1)])
    cert = solve_min_ratio(system)
    assert (cert.bound, cert.primal) == (F(1, 2), (F(1, 2), F(1, 2)))
    off = LowerBoundCertificate(cert.bound, cert.duals, system, primal=(F(1, 2), F(1, 3)))
    with pytest.raises(LPInternalError, match="violates 'c'"):
        bezout._audit_solution(system, off)
