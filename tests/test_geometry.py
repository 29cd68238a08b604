import random

import pytest

from helpers import gauss_rank, random_point, transform_points, unimodular
from test_soundness import soundness_configuration
from waldschmidt.fixtures import (CUBIC9_CURVE, STANDARD_CONIC, conic_point, fixture,
                                  fixture_names)
from waldschmidt.geometry import (CollinearVerticesError, IdenticalPointsError,
                                  NonUniqueConicError, PlaneCurve, ProjPoint,
                                  WrongDegreeError, chords_through,
                                  conic_through, contains,
                                  cubic_with_double_point, evaluation_row,
                                  incidence_profile, is_irreducible_conic,
                                  is_smooth_cubic, line_through, monomial_count,
                                  mult_at, q_collinear_set, transform_curve,
                                  transform_point)


def test_line_through_coordinate_axes():
    assert line_through(ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)) == PlaneCurve(1, [0, 0, 1])


def test_line_through_symmetric_points():
    assert line_through(ProjPoint(0, 0, 1), ProjPoint(1, 1, 1)) == PlaneCurve(1, [1, -1, 0])


def test_line_through_identical_points_raises():
    with pytest.raises(IdenticalPointsError):
        line_through(ProjPoint(1, 0, 0), ProjPoint(1, 0, 0))


def test_third_point_on_line_iff_determinant_vanishes():
    rng = random.Random(7)
    for _ in range(50):
        a = ProjPoint(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4))
        b = ProjPoint(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4))
        c = ProjPoint(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4))
        if a == b:
            continue
        ln = line_through(a, b)
        det = gauss_rank([list(a.coords), list(b.coords), list(c.coords)]) < 3
        assert contains(ln, c) == det


def test_conic_through_parametrized_points():
    pts = [conic_point(t) for t in (0, 1, 2, 3, -1)]
    assert conic_through(pts) == STANDARD_CONIC


def test_conic_through_four_collinear_raises():
    pts = [ProjPoint(1, a, 0) for a in range(4)] + [ProjPoint(0, 0, 1)]
    m = [evaluation_row(2, p) for p in pts]
    assert gauss_rank(m) < 5
    with pytest.raises(NonUniqueConicError):
        conic_through(pts)


def test_conic_through_duplicate_raises():
    pts = [conic_point(t) for t in (0, 1, 2, 3)] + [conic_point(0)]
    with pytest.raises(NonUniqueConicError):
        conic_through(pts)


def test_irreducible_conic_predicate():
    assert is_irreducible_conic(STANDARD_CONIC)
    assert not is_irreducible_conic(PlaneCurve(2, [0, 1, 0, 0, 0, 0]))  # x0*x1
    assert not is_irreducible_conic(PlaneCurve(2, [1, 0, 0, 0, 0, 0]))  # x0^2
    with pytest.raises(WrongDegreeError):
        is_irreducible_conic(PlaneCurve(1, [1, 0, 0]))


# each was once read through int() by PlaneCurve.parse, and True kept as degree 1
@pytest.mark.parametrize("degree", [1.5, True, "1", 1.0])
def test_curve_rejects_a_degree_that_is_not_an_int(degree):
    with pytest.raises(TypeError):
        PlaneCurve(degree, [1, 0, 0])
    with pytest.raises(TypeError):
        PlaneCurve.parse({"degree": degree, "coeffs": ["1", "0", "0"]})


def test_mult_at_basics():
    assert mult_at(PlaneCurve(1, [0, 0, 1]), ProjPoint(1, 0, 0)) == 1
    pair = PlaneCurve(1, [1, 0, 0]).multiply(PlaneCurve(1, [0, 1, 0]))
    assert mult_at(pair, ProjPoint(0, 0, 1)) == 2
    # (1:1:1) is the t=1 point of the conic itself, so a genuinely off point
    # is used for the multiplicity-zero case
    assert mult_at(STANDARD_CONIC, ProjPoint(1, 1, 1)) == 1
    assert mult_at(STANDARD_CONIC, ProjPoint(1, 0, 1)) == 0


def test_mult_additive_on_products():
    rng = random.Random(11)
    pts = [ProjPoint(0, 0, 1), ProjPoint(1, 2, 1), ProjPoint(1, 0, 0)]
    for _ in range(30):
        l1 = line_through(ProjPoint(rng.randint(-3, 3), rng.randint(-3, 3), 1),
                          ProjPoint(1, rng.randint(-3, 3), 0))
        curves = [l1, STANDARD_CONIC,
                  PlaneCurve(1, [rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2)])]
        f = rng.choice(curves)
        g = rng.choice(curves)
        prod = f.multiply(g)
        for p in pts:
            assert mult_at(prod, p) == mult_at(f, p) + mult_at(g, p)


def test_incidence_profile_collinear_group():
    pts = [ProjPoint(1, a, 0) for a in range(4)]
    pts += [ProjPoint(0, 0, 1), ProjPoint(1, 1, 1), ProjPoint(1, 3, 2)]
    prof = incidence_profile(pts)
    assert prof.max_collinear == 4
    assert prof.witness_line == PlaneCurve(1, [0, 0, 1])


def test_incidence_profile_conic_group():
    fx = fixture("CONIC6+Q")
    prof = incidence_profile(fx.points)
    sizes = [len(members) for members, _ in prof.conic_subsets]
    assert 6 in sizes
    members, conic = next(g for g in prof.conic_subsets if len(g[0]) == 6)
    for i in members:
        assert contains(conic, fx.points[i])


def test_profile_chords_match_the_reference():
    """prof.chords, mapped to points, equals chords_through for every point off a
    conic of six or more points, on the fixtures and on seeded conic-plus-external
    inputs."""
    inputs = [fixture(name).points for name in fixture_names()]
    inputs += [soundness_configuration(random.Random(7919 * seed), "conic-external")
               for seed in range(40)]
    pairs = sizes = 0
    for points in inputs:
        prof = incidence_profile(points)
        for members, _ in prof.conic_subsets:
            for q in range(len(points)):
                if q in members:
                    continue
                got = [(ln, [points[k] for k in mem])
                       for ln, mem in prof.chords(q, members)]
                assert got == chords_through(points[q], [points[i] for i in members])
                pairs += 1
                sizes += len(got)
    # enough ground covered: many (point, conic) pairs and many chords among them
    assert pairs >= 50 and sizes >= 50


def test_incidence_profile_two_points():
    prof = incidence_profile([ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)])
    assert prof.collinear_groups == []
    assert prof.max_collinear == 2


def test_concurrency_counts():
    fx = fixture("CONIC6-TYPE1")
    assert len(chords_through(fx.points[-1], fx.points[:-1])) == 3
    fx = fixture("CONIC8-CONC4")
    assert len(chords_through(fx.points[-1], fx.points[:-1])) == 4
    assert len(chords_through(ProjPoint(1, 0, 2),
                              [conic_point(t) for t in (0, 1, 2, 3, -1, -2)])) == 0


def test_q_collinear_set_families():
    fx = fixture("L4Q3-A")
    qs = fx.points[4:]
    picked = q_collinear_set(fx.points[:4], qs)
    assert set(picked) == {ProjPoint(1, -1, 0), ProjPoint(0, 1, 0), ProjPoint(1, 0, 0)}
    fx = fixture("L4Q3-D")
    assert q_collinear_set(fx.points[:4], fx.points[4:]) == []
    assert q_collinear_set([], qs) == []


def test_q_collinear_set_collinear_vertices_raises():
    qs = (ProjPoint(0, 0, 1), ProjPoint(0, 1, 1), ProjPoint(0, 2, 1))
    with pytest.raises(CollinearVerticesError):
        q_collinear_set([ProjPoint(1, 0, 0)], qs)


def test_cubic_with_double_point_on_fixture():
    fx = fixture("CONIC6+Q")
    cubic = cubic_with_double_point(fx.points[:6], fx.points[6])
    assert mult_at(cubic, fx.points[6]) >= 2
    for p in fx.points[:6]:
        assert mult_at(cubic, p) >= 1


def test_cubic_with_double_point_dbl_on_same_conic():
    simple = [conic_point(t) for t in (0, 1, 2, 3, -1, -2)]
    dbl = conic_point(4)
    cubic = cubic_with_double_point(simple, dbl)
    assert mult_at(cubic, dbl) >= 2
    for p in simple:
        assert mult_at(cubic, p) >= 1


def test_cubic_with_double_point_collinear_simple_points():
    simple = [ProjPoint(1, a, 0) for a in range(6)]
    dbl = ProjPoint(0, 0, 1)
    cubic = cubic_with_double_point(simple, dbl)
    assert mult_at(cubic, dbl) >= 2
    for p in simple:
        assert mult_at(cubic, p) >= 1


def test_smooth_cubic_detection():
    from waldschmidt.fixtures import CUBIC9_CURVE
    assert is_smooth_cubic(CUBIC9_CURVE)
    # x0^3 + x1^3 + x2^3 is smooth in characteristic zero
    fermat = PlaneCurve(3, [1, 0, 0, 0, 0, 0, 1, 0, 0, 1])
    assert is_smooth_cubic(fermat)
    # conic times line is singular at the crossings
    red = STANDARD_CONIC.multiply(PlaneCurve(1, [0, 0, 1]))
    assert not is_smooth_cubic(red)
    # cuspidal: x1^2*x2 = x0^3
    cusp = PlaneCurve(3, [1, 0, 0, 0, 0, 0, 0, -1, 0, 0])
    assert not is_smooth_cubic(cusp)


def test_projective_invariance_of_predicates():
    rng = random.Random(5)
    fx = fixture("CONIC6-TYPE1")
    base_pts = fx.points
    for _ in range(10):
        t = unimodular(rng)
        pts = transform_points(t, base_pts)
        assert len(chords_through(pts[-1], pts[:-1])) == 3
        prof = incidence_profile(pts)
        assert {len(m) for m, _ in prof.conic_subsets} == {6}
    fx = fixture("L4Q3-B")
    for _ in range(10):
        t = unimodular(rng)
        pts = transform_points(t, fx.points)
        qs = pts[4:]
        assert len(q_collinear_set(pts[:4], qs)) == 2


def test_transform_curve_compatible_with_points():
    rng = random.Random(9)
    for _ in range(20):
        t = unimodular(rng)
        p = conic_point(rng.randint(-5, 5))
        img = transform_point(t, p)
        curve = transform_curve(t, STANDARD_CONIC)
        assert contains(curve, img)
        assert mult_at(curve, img) == 1


def random_curve(rng, d):
    while True:
        coeffs = [rng.choice((0, rng.randint(-4, 4))) for _ in range(monomial_count(d))]
        if any(coeffs):
            return PlaneCurve(d, coeffs)


def invertible(rng):
    """Random integer 3x3 matrix with |det| >= 2, so not unimodular."""
    while True:
        t = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = sum(t[0][j] * (t[1][(j + 1) % 3] * t[2][(j + 2) % 3]
                             - t[1][(j + 2) % 3] * t[2][(j + 1) % 3]) for j in range(3))
        if abs(det) >= 2:
            return t


def meet(a, b):
    """The common point of two distinct lines."""
    (a0, a1, a2), (b0, b1, b2) = a.coeffs, b.coeffs
    return ProjPoint(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


@pytest.mark.parametrize("seed", range(3))
def test_product_evaluates_to_the_product_of_values(seed):
    rng = random.Random(seed)
    for da in range(1, 5):
        for db in range(1, 5):
            f, g = random_curve(rng, da), random_curve(rng, db)
            fg = f.multiply(g)
            assert fg.degree == da + db
            for _ in range(4):
                p = random_point(rng)
                assert fg.evaluate(p) == f.evaluate(p) * g.evaluate(p)


@pytest.mark.parametrize("seed", range(3))
def test_transform_curve_keeps_multiplicities(seed):
    # three concurrent lines and a fourth: a triple point, three double points
    rng = random.Random(seed)
    for _ in range(8):
        t = invertible(rng)
        p0 = random_point(rng)
        others = [random_point(rng) for _ in range(3)]
        lines = {line_through(p0, q) for q in others if q != p0}
        lines.add(line_through(random_point(rng, 9), random_point(rng, 9)))
        curve, *rest = lines
        for ln in rest:
            curve = curve.multiply(ln)
        pts = {meet(a, b) for a in lines for b in lines if a != b}
        pts.update((p0, random_point(rng)))
        img = transform_curve(t, curve)
        for p in pts:
            assert mult_at(img, transform_point(t, p)) == mult_at(curve, p)
        assert mult_at(curve, p0) >= len(lines) - 1


@pytest.mark.parametrize("seed", range(3))
def test_smoothness_is_projectively_invariant(seed):
    rng = random.Random(seed)
    pts = fixture("CONIC6+Q").points
    node = cubic_with_double_point(pts[:6], pts[6])
    cubics = [CUBIC9_CURVE, node, STANDARD_CONIC.multiply(PlaneCurve(1, [0, 0, 1])),
              PlaneCurve(3, [1, 0, 0, 0, 0, 0, 0, -1, 0, 0])]
    cubics += [random_curve(rng, 3) for _ in range(4)]
    for c in cubics:
        for t in (unimodular(rng), invertible(rng)):
            assert is_smooth_cubic(transform_curve(t, c)) == is_smooth_cubic(c)
    assert is_smooth_cubic(CUBIC9_CURVE) and not is_smooth_cubic(node)
