import pytest

from helpers import (derivative_row, derivative_row_by_powers, expected_dimension,
                     gauss_rank, row_lists)
from waldschmidt import linalg
from waldschmidt.fatpoints import (AlphaSearchError, FatPointScheme, alpha,
                                   hilbert_function, ideal_dimension,
                                   interpolation_matrix)
from waldschmidt.fixtures import fixture, fixture_names
from waldschmidt.geometry import ProjPoint, monomials, mult_at
from waldschmidt.linalg import rank_exact, rank_modular

PRIMES = (1000003, 1000033, 1000037)


def test_single_point_matrix_and_dimension():
    s = FatPointScheme.uniform([ProjPoint(1, 2, 1)], 1)
    m = interpolation_matrix(s, 1)
    assert (m.rows, m.cols) == (1, 3)
    assert rank_exact(m) == 1
    assert ideal_dimension(s, 1) == 2


def test_double_point_matrix():
    s = FatPointScheme.uniform([ProjPoint(1, 2, 1)], 2)
    m = interpolation_matrix(s, 1)
    assert (m.rows, m.cols) == (3, 3)
    assert rank_exact(m) == 3


def test_l4q3d_degree_two_no_conic():
    s = FatPointScheme.uniform(fixture("L4Q3-D").points, 1)
    m = interpolation_matrix(s, 2)
    assert (m.rows, m.cols) == (7, 6)
    assert gauss_rank(row_lists(m)) == 6
    assert rank_exact(m) == 6
    assert ideal_dimension(s, 2) == 0


def test_conic5_dimension_one():
    s = FatPointScheme.uniform(fixture("CONIC5").points, 1)
    assert ideal_dimension(s, 2) == 1


def test_alpha_single_point():
    res = alpha(FatPointScheme.uniform([ProjPoint(2, 3, 1)], 1))
    assert res.alpha == 1
    assert res.h0_trace == [(1, 2)]


def test_alpha_witness_is_sound():
    fx = fixture("L4Q3-A")
    s = FatPointScheme.uniform(fx.points, 1)
    res = alpha(s)
    assert res.alpha == 3
    assert [dim for _, dim in res.h0_trace[:-1]] == [0, 0]
    for p in s.points:
        assert mult_at(res.witness, p) >= 1


def test_alpha_respects_min_degree_floor():
    s = FatPointScheme.uniform(fixture("L4Q3-D").points, 2)
    res = alpha(s, min_degree=5)
    assert res.alpha == 5
    assert res.h0_trace[0][0] == 5


def test_alpha_checks_a_floor_above_alpha():
    # alpha(2X) = 5; a floor of 8 fails its check at degree 7 and is dropped
    s = FatPointScheme.uniform(fixture("CONIC6+Q").points, 2)
    res = alpha(s, min_degree=8)
    assert res.alpha == 5
    assert res.h0_trace[0] == (2, 0)


@pytest.mark.parametrize("name", fixture_names())
def test_alpha_modular_equals_exact_on_fixtures(name, monkeypatch):
    pts = fixture(name).points
    for m in (1, 2, 3):
        s = FatPointScheme.uniform(pts, m)
        monkeypatch.setattr(linalg, "SMALL", -1)  # the modular kernel at every size
        modular = alpha(s).to_json()
        monkeypatch.setattr(linalg, "SMALL", float("inf"))  # Bareiss alone
        assert modular == alpha(s).to_json()


def test_alpha_cap_error():
    # an impossible hint drives the search past its cap
    s = FatPointScheme.uniform([ProjPoint(0, 0, 1)], 1)
    with pytest.raises(AlphaSearchError):
        alpha(s, min_degree=100)


def test_hilbert_function_values():
    d7 = FatPointScheme.uniform(fixture("L4Q3-D").points, 1)
    assert hilbert_function(d7, 6) == 7
    one = FatPointScheme.uniform([ProjPoint(1, 4, 2)], 1)
    for d in (1, 2, 5):
        assert hilbert_function(one, d) == 1
    a7 = FatPointScheme.uniform(fixture("L4Q3-A").points, 1)
    assert hilbert_function(a7, 1) == 3


def test_hilbert_stabilizes_at_point_count():
    for name in ("L4Q3-B", "CONIC6+Q", "CONIC8-CONC4"):
        pts = fixture(name).points
        s = FatPointScheme.uniform(pts, 1)
        n = len(pts)
        for d in (n - 1, n + 2):
            assert hilbert_function(s, d) == n


def test_expected_dimension_bound():
    for name in ("L4Q3-D", "CONIC6-TYPE1"):
        pts = fixture(name).points
        for m in (1, 2):
            s = FatPointScheme.uniform(pts, m)
            for d in range(m, 8):
                assert ideal_dimension(s, d) >= expected_dimension(s, d)


def test_monotone_growth_and_subadditivity_small():
    pts = fixture("L4Q3-D").points
    alphas = {m: alpha(FatPointScheme.uniform(pts, m)).alpha for m in range(1, 4)}
    for m in (1, 2):
        assert alphas[m + 1] >= alphas[m] + 1
    assert alphas[3] <= alphas[1] + alphas[2]
    assert alphas[2] <= 2 * alphas[1]


def test_modular_agreement_on_interpolation_matrices():
    for name, m, d in (("L4Q3-D", 1, 3), ("L4Q3-D", 2, 5), ("CONIC5", 1, 2)):
        mat = interpolation_matrix(FatPointScheme.uniform(fixture(name).points, m), d)
        r = rank_exact(mat)
        for p in PRIMES:
            assert rank_modular(mat, p) == r


# each was once read through int(): 2.9 as 2, True as 1
@pytest.mark.parametrize("m", [2.9, True, "2", 2.0])
def test_scheme_rejects_a_multiplicity_that_is_not_an_int(m):
    pts = fixture("L4Q3-D").points
    with pytest.raises(TypeError):
        FatPointScheme.uniform(pts, m)
    with pytest.raises(TypeError):
        FatPointScheme(pts, [2] * (len(pts) - 1) + [m])
    with pytest.raises(TypeError):
        FatPointScheme.parse({"points": [p.to_json() for p in pts], "m": m})


def test_scheme_serialization_roundtrip():
    s = FatPointScheme.uniform(fixture("CONIC5").points, 3)
    back = FatPointScheme.parse(s.to_json())
    assert back == s
    mixed = FatPointScheme(fixture("CONIC5").points, [1, 2, 1, 3, 1])
    assert FatPointScheme.parse(mixed.to_json()) == mixed


def test_scheme_rejects_duplicates_and_bad_mults():
    p = ProjPoint(1, 0, 0)
    with pytest.raises(Exception):
        FatPointScheme([p, p], [1, 1])
    with pytest.raises(ValueError):
        FatPointScheme([p], [0])


@pytest.mark.parametrize("name", fixture_names())
def test_interpolation_rows_equal_partials_taken_one_by_one(name):
    # one power table per point and order against three powers per entry;
    # at d = 1 < m - 1 every partial vanishes
    points = fixture(name).points
    for m in range(1, 5):
        scheme = FatPointScheme.uniform(points, m)
        for d in sorted({1, max(1, m - 1), m, 3 * m}):
            want = [derivative_row_by_powers(d, p, beta)
                    for p in points for beta in monomials(m - 1)]
            assert row_lists(interpolation_matrix(scheme, d)) == want
            assert [derivative_row(d, p, beta)
                    for p in points for beta in monomials(m - 1)] == want
