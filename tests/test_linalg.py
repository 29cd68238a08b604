import random
from fractions import Fraction
from math import isqrt

import pytest

from helpers import gauss_rank, mul_vector, row_lists, transpose
from waldschmidt import linalg
from waldschmidt.fixtures import fixture
from waldschmidt.geometry import evaluation_row
from waldschmidt.linalg import (PRIMES, BadPrimeError, RatMatrix, _nullspace_exact,
                                _nullspace_modular, format_rational, nullspace,
                                parse_rational, rank_exact, rank_modular)


def conic5_matrix():
    pts = fixture("CONIC5").points
    return RatMatrix.from_rows([evaluation_row(2, p) for p in pts])


def test_rank_identity():
    assert rank_exact(RatMatrix.from_rows([[1, 0], [0, 1]])) == 2


def test_rank_all_ones():
    assert rank_exact(RatMatrix.from_rows([[1] * 3] * 3)) == 1


def test_rank_conic5_matches_independent_elimination():
    m = conic5_matrix()
    assert gauss_rank(row_lists(m)) == 5
    assert rank_exact(m) == 5


def test_rank_empty():
    assert rank_exact(RatMatrix(0, 4, [])) == 0


def test_nullspace_single_equation():
    basis = nullspace(RatMatrix.from_rows([[1, 1]]))
    assert basis == [[Fraction(1), Fraction(-1)]]


def test_nullspace_full_rank_is_empty():
    assert nullspace(RatMatrix.from_rows([[1, 0], [0, 1]])) == []


def test_nullspace_nine_by_ten_is_nontrivial():
    from waldschmidt.geometry import derivative_row
    fx = fixture("CONIC6+Q")
    simple, dbl = fx.points[:6], fx.points[6]
    rows = [evaluation_row(3, p) for p in simple]
    for beta in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        rows.append(derivative_row(3, dbl, beta))
    basis = nullspace(RatMatrix.from_rows(rows))
    assert len(basis) >= 1
    m = RatMatrix.from_rows(rows)
    for v in basis:
        assert all(x == 0 for x in mul_vector(m, v))


def test_rank_modular_identity():
    assert rank_modular(RatMatrix.from_rows([[1, 0], [0, 1]]), 5) == 2


def test_rank_modular_proportional_rows():
    assert rank_modular(RatMatrix.from_rows([[2, 4], [1, 2]]), 7) == 1


def test_rank_modular_conic5_matches_exact():
    m = conic5_matrix()
    assert rank_modular(m, 10007) == rank_exact(m) == 5


def test_rank_modular_bad_prime():
    m = RatMatrix.from_rows([[Fraction(1, 7), 1], [0, 1]])
    with pytest.raises(BadPrimeError):
        rank_modular(m, 7)


def test_parse_and_format_rational():
    assert parse_rational("16/7") == Fraction(16, 7)
    assert parse_rational("-3") == -3
    assert format_rational(Fraction(16, 7)) == "16/7"
    assert format_rational(Fraction(4, 2)) == "2"


@pytest.mark.parametrize("seed", range(6))
def test_random_matrices_against_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        data = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(cols)] for _ in range(rows)]
        m = RatMatrix.from_rows(data)
        r = rank_exact(m)
        assert r == gauss_rank(data)
        assert r == rank_exact(transpose(m))
        for p in (10007, 1000003):
            assert rank_modular(m, p) <= r
        basis = nullspace(m)
        assert len(basis) == cols - r
        for v in basis:
            assert all(x == 0 for x in mul_vector(m, v))
            ints = [int(x) for x in v]
            assert all(Fraction(i) == x for i, x in zip(ints, v))
            lead = next(x for x in ints if x)
            assert lead > 0


def test_canonical_form_closure():
    rng = random.Random(3)
    for _ in range(50):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        for val in (a + b, a * b, a - b):
            renorm = Fraction(val.numerator, val.denominator)
            assert renorm.numerator == val.numerator
            assert renorm.denominator == val.denominator
            assert val.denominator > 0


def test_primes_are_distinct_primes_below_2_30():
    assert len(PRIMES) >= 32 and len(set(PRIMES)) == len(PRIMES)
    assert all(p < 1 << 30 for p in PRIMES)
    assert all(p % k for p in PRIMES for k in range(2, isqrt(p) + 1))


def test_rank_modular_rejects_a_prime_above_64_bits():
    with pytest.raises(ValueError):
        rank_modular(RatMatrix.from_rows([[1, 2]]), (1 << 64) + 13)


def _refuse_exact_elimination(monkeypatch):
    def refuse(rows, ncols):
        raise AssertionError("exact elimination ran")
    monkeypatch.setattr(linalg, "_bareiss_echelon", refuse)


def _low_rank_matrix(rng, rows, cols, rank, scale):
    gens = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
    data = []
    for _ in range(rows):
        mix = [rng.randint(-4, 4) for _ in range(rank)]
        data.append([scale * sum(a * g[j] for a, g in zip(mix, gens))
                     for j in range(cols)])
    return RatMatrix.from_rows(data)


@pytest.mark.parametrize("seed", range(4))
def test_modular_nullspace_equals_exact(seed):
    # rank-deficient matrices, some with every entry divisible by PRIMES[0],
    # which is then useless and must be passed over
    rng = random.Random(seed)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        scale = rng.choice((1, 1, PRIMES[0], 3 * PRIMES[0] ** 2))
        m = _low_rank_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)), scale)
        assert _nullspace_modular(m, PRIMES) == _nullspace_exact(m)


@pytest.mark.parametrize("seed", range(3))
def test_nullspace_picks_its_path_by_size(monkeypatch, seed):
    # the modular kernel runs only above SMALL cells, and both paths agree
    calls = []
    monkeypatch.setattr(linalg, "_nullspace_modular",
                        lambda m, primes: calls.append(m) or _nullspace_modular(m, primes))
    rng = random.Random(seed)
    rows = linalg.SMALL // 30
    for shape in ((rows, 29), (rows, 30), (rows + 1, 30), (rows + 1, 31)):
        m = _low_rank_matrix(rng, *shape, rng.randint(1, rows - 1), 1)
        calls.clear()
        assert nullspace(m) == _nullspace_exact(m)
        assert calls == ([m] if m.rows * m.cols > linalg.SMALL else [])


def test_modular_nullspace_on_interpolation_matrices(monkeypatch):
    # these lift without exact elimination
    from waldschmidt.fatpoints import FatPointScheme, interpolation_matrix
    cases = []
    for name, m, d in (("L4Q3-D", 2, 4), ("L4Q3-D", 2, 5), ("CONIC6+Q", 2, 5),
                       ("NINE-72-COMMON-II", 3, 8), ("NINE-72-COMMON-II", 3, 9)):
        mat = interpolation_matrix(FatPointScheme.uniform(fixture(name).points, m), d)
        cases.append((mat, rank_exact(mat), _nullspace_exact(mat)))
    _refuse_exact_elimination(monkeypatch)
    for mat, rank, basis in cases:
        assert _nullspace_modular(mat, PRIMES) == basis
        assert rank_modular(mat, PRIMES[0]) == rank


def test_modular_kernel_of_a_large_unimodular_matrix(monkeypatch):
    # L*U with unit triangular factors has determinant 1, so rank n mod every
    # prime; a last column M*x makes the kernel (x, -1).  Rows get up to n - 1
    # packed additions, whose sum overflows a 64-bit slot for p near 2**30.
    rng = random.Random(11)
    n = 150
    low = [[rng.randint(-9, 9) if j < i else int(i == j) for j in range(n)]
           for i in range(n)]
    up = [[rng.randint(-9, 9) if j > i else int(i == j) for j in range(n)]
          for i in range(n)]
    x = [rng.randint(-5, 5) for _ in range(n)]
    data = [[sum(a * b for a, b in zip(row, col)) for col in zip(*up)] for row in low]
    data = [row + [sum(a * b for a, b in zip(row, x))] for row in data]
    m = RatMatrix.from_rows(data)
    _refuse_exact_elimination(monkeypatch)
    assert rank_modular(m, PRIMES[0]) == n
    assert nullspace(m) == [linalg.primitive(x + [-1])]


def test_modular_nullspace_falls_back_when_primes_run_out(monkeypatch):
    # mod p the only equation reads x1 = 0, so the lifted (1, 0) fails M.v == 0
    p = 101
    calls = []
    bareiss = linalg._bareiss_echelon
    monkeypatch.setattr(linalg, "_bareiss_echelon",
                        lambda rows, n: calls.append(n) or bareiss(rows, n))
    monkeypatch.setattr(linalg, "PRIMES", (p,))
    monkeypatch.setattr(linalg, "SMALL", 1)
    assert nullspace(RatMatrix.from_rows([[p, 1]])) == [[1, -p]]
    assert calls == [2]


def test_modular_nullspace_prefers_earlier_pivots(monkeypatch):
    # PRIMES[0] has the same rank as 101 with an earlier pivot column, so it
    # restarts the search and lifts -1/101 on its own
    _refuse_exact_elimination(monkeypatch)
    assert _nullspace_modular(RatMatrix.from_rows([[101, 1]]), (101, PRIMES[0])) == [[1, -101]]


def test_modular_nullspace_full_rank_and_empty():
    assert _nullspace_modular(RatMatrix.from_rows([[1, 2], [3, 4]]), PRIMES) == []
    assert _nullspace_modular(RatMatrix(0, 2, []), PRIMES) == [[1, 0], [0, 1]]
    assert _nullspace_modular(RatMatrix(2, 0, []), PRIMES) == []


def test_modular_nullspace_skips_a_prime_dividing_a_denominator():
    m = RatMatrix.from_rows([[Fraction(1, 7), 1], [Fraction(2, 7), 2]])
    assert _nullspace_modular(m, (7, PRIMES[0])) == _nullspace_exact(m) == [[7, -1]]
