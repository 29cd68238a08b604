"""Integer storage and conic_through, checked against an independent rank oracle.

Configurations are the registered fixtures plus seeded random ones, including
collinear and on-conic degenerations and their unimodular images.
"""

import random
from itertools import combinations

import pytest

from helpers import (gauss_rank, mul_vector, random_point, row_lists, transform_points,
                     unimodular)
from waldschmidt.fatpoints import FatPointScheme, alpha, interpolation_matrix
from waldschmidt.fixtures import conic_point, fixture, fixture_names
from waldschmidt.geometry import (NonUniqueConicError, ProjPoint, conic_through,
                                  contains, evaluation_row, line_through)
from waldschmidt.linalg import nullspace


def assert_ints(values):
    assert all(type(v) is int for v in values), values


def collinear_points(rng, k):
    """k distinct points on the line through two random points."""
    a = random_point(rng)
    b = random_point(rng)
    while b == a:
        b = random_point(rng)
    pts = []
    while len(pts) < k:
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        coords = [s * x + t * y for x, y in zip(a.coords, b.coords)]
        if any(coords) and ProjPoint(*coords) not in pts:
            pts.append(ProjPoint(*coords))
    return pts


def random_configuration(rng, kind):
    if kind == "random":
        pts = [random_point(rng) for _ in range(7)]
    elif kind == "collinear":
        pts = collinear_points(rng, 4) + [random_point(rng) for _ in range(3)]
    elif kind == "on-conic":
        ts = rng.sample(range(-4, 5), 6)
        pts = [conic_point(t) for t in ts] + [random_point(rng)]
    else:  # both degenerations at once
        ts = rng.sample(range(-4, 5), 4)
        pts = [conic_point(t) for t in ts] + collinear_points(rng, 3)
    pts = list(dict.fromkeys(pts))
    return transform_points(unimodular(rng), pts)


def check_conics(points):
    for five in combinations(points, 5):
        rows = [evaluation_row(2, p) for p in five]
        for row in rows:
            assert_ints(row)
        if gauss_rank(rows) < 5:
            with pytest.raises(NonUniqueConicError):
                conic_through(list(five))
        else:
            conic = conic_through(list(five))
            assert_ints(conic.coeffs)
            assert all(contains(conic, p) for p in five)


def check_matrices(points):
    for m, d in ((1, 2), (1, 3), (2, 4)):
        mat = interpolation_matrix(FatPointScheme.uniform(points, m), d)
        assert_ints(mat.entries)
        basis = nullspace(mat)
        assert len(basis) == mat.cols - gauss_rank(row_lists(mat))
        for v in basis:
            assert_ints(v)
            assert all(x == 0 for x in mul_vector(mat, v))
    assert_ints(line_through(points[0], points[1]).coeffs)
    assert_ints(alpha(FatPointScheme.uniform(points, 1)).witness.coeffs)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_integers_and_conics(name):
    points = fixture(name).points
    check_conics(points)
    check_matrices(points)


@pytest.mark.parametrize("kind", ["random", "collinear", "on-conic", "conic-and-line"])
@pytest.mark.parametrize("seed", range(5))
def test_random_integers_and_conics(kind, seed):
    points = random_configuration(random.Random(1000 * seed + len(kind)), kind)
    check_conics(points)
    check_matrices(points)
