"""Randomized soundness of classify on seeded structured configurations.

Every verdict must carry a lower certificate that verifies, upper evidence
that re-verifies, a bracket that the unhinted alpha(mX)/m never undercuts for
m <= 3, and the same (family, exact, lower, upper) on unimodular images.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_point, transform_points, unimodular
from waldschmidt.bezout import verify_certificate
from waldschmidt.classify import classify
from waldschmidt.engine import verify_upper
from waldschmidt.fatpoints import FatPointScheme, alpha
from waldschmidt.fixtures import STANDARD_CONIC, conic_point
from waldschmidt.geometry import ProjPoint, contains

KINDS = ("generic", "collinear", "conic-external", "conic6-line3", "conic5-line4")


def points_on_line(rng, a, b, k, taken):
    """k new points s*a + t*b, off the standard conic and not in taken."""
    pts = []
    while len(pts) < k:
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        coords = [s * x + t * y for x, y in zip(a.coords, b.coords)]
        if not any(coords):
            continue
        p = ProjPoint(*coords)
        if p not in taken and p not in pts and not contains(STANDARD_CONIC, p):
            pts.append(p)
    return pts


def off_conic_point(rng, taken):
    while True:
        p = random_point(rng)
        if p not in taken and not contains(STANDARD_CONIC, p):
            return p


def conic_and_line(rng, n_conic, n_line, shared):
    """n_conic standard-conic points and n_line points on a line through `shared` of them."""
    conic_pts = [conic_point(t) for t in rng.sample(range(-5, 6), n_conic)]
    anchors = conic_pts[:shared]
    while len(anchors) < 2:
        anchors.append(off_conic_point(rng, conic_pts + anchors))
    return conic_pts + points_on_line(rng, anchors[0], anchors[1], n_line, conic_pts)


def soundness_configuration(rng, kind):
    if kind == "generic":
        pts = [random_point(rng) for _ in range(rng.randint(4, 7))]
    elif kind == "collinear":
        a = random_point(rng)
        b = off_conic_point(rng, [a])
        pts = points_on_line(rng, a, b, rng.randint(4, 7), [])
        for _ in range(rng.randint(1, 3)):
            pts.append(random_point(rng))
    elif kind == "conic-external":
        pts = [conic_point(t) for t in rng.sample(range(-5, 6), rng.randint(5, 8))]
        for _ in range(rng.randint(1, 2)):
            pts.append(off_conic_point(rng, pts))
    elif kind == "conic6-line3":
        pts = conic_and_line(rng, 6, 3, rng.randrange(3))
    else:
        pts = conic_and_line(rng, 5, 4, 0)
    return list(dict.fromkeys(pts))


def check_sound(points, res):
    cert = res.certificates["lower"]
    assert verify_certificate(cert)
    assert cert.bound == res.lower
    assert res.lower <= res.upper
    assert res.exact is None or res.exact == res.lower == res.upper
    upper = res.certificates.get("upper")
    if upper is not None:
        ratio, divisor = upper
        again = verify_upper(divisor, FatPointScheme.uniform(points, divisor.m))
        assert again == ratio == res.upper
    else:
        assert res.upper == min(e.ratio for e in res.certificates["sweep"])
    for m in (1, 2, 3):
        a = alpha(FatPointScheme.uniform(points, m)).alpha
        assert a >= res.lower * m, (m, a, res.lower)


@pytest.mark.parametrize("seed", range(30))
def test_classify_is_sound(seed):
    rng = random.Random(7919 * seed)
    points = soundness_configuration(rng, KINDS[seed % len(KINDS)])
    res = classify(points)
    check_sound(points, res)
    verdict = (res.family, res.exact, res.lower, res.upper)
    for _ in range(2):
        moved = classify(transform_points(unimodular(rng), points))
        assert (moved.family, moved.exact, moved.lower, moved.upper) == verdict


def test_thirteen_points_reach_the_conic_table():
    # twelve conic points and one external point: the profile is not capped
    points = [conic_point(t) for t in (0, 1, 2, 3, -1, -2, 4, 5, -3, 6, -4, 7)]
    points.append(ProjPoint(1, 0, 2))
    res = classify(points)
    assert res.family == "conic-many/external"
    assert (res.lower, res.upper) == (Fraction(13, 5), 3)
    check_sound(points, res)
