"""Independent oracles and generators shared by the test modules."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, perm

from waldschmidt.bezout import LPInternalError
from waldschmidt.geometry import (NonUniqueConicError, PlaneCurve, ProjPoint, monomial_count,
                                  monomials, transform_point)
from waldschmidt.linalg import RatMatrix, nullspace


def gauss_rank(rows):
    """Rank by plain Fraction Gaussian elimination with first-nonzero pivoting.

    Deliberately a different elimination order from the library's kernel, so
    it can serve as an independent check.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def solve_square(a, b):
    """Solve a square rational system exactly; None when singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(a, b)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / prow[col]
                m[r] = [x - f * y for x, y in zip(m[r], prow)]
    return [m[i][n] / m[i][i] for i in range(n)]


def lp_min_t_by_vertices(system):
    """Exact LP optimum by brute-force vertex enumeration.

    Candidate vertices come from all choices of nvars+1 active hyperplanes
    among the constraints and the coordinate planes; feasible ones are ranked
    by their t value.
    """
    nv = 1 + system.nvars
    planes = []
    for c in system.constraints:
        planes.append(([c.t_coeff] + list(c.a_coeffs), c.rhs))
    for j in range(nv):
        row = [Fraction(0)] * nv
        row[j] = Fraction(1)
        planes.append((row, Fraction(0)))
    best = None
    for combo in combinations(range(len(planes)), nv):
        a = [planes[i][0] for i in combo]
        b = [planes[i][1] for i in combo]
        x = solve_square(a, b)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        ok = True
        for c in system.constraints:
            lhs = c.t_coeff * x[0] + sum(q * v for q, v in zip(c.a_coeffs, x[1:]))
            if lhs < c.rhs:
                ok = False
                break
        if ok and (best is None or x[0] < best):
            best = x[0]
    return best


def unimodular(rng, size=4):
    """Random integer matrix of determinant +-1 via elementary products."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(size):
        kind = rng.randrange(3)
        i, j = rng.sample(range(3), 2)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(3):
                m[i][k] += c * m[j][k]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            for k in range(3):
                m[i][k] = -m[i][k]
    return m


def transform_points(t, points):
    return [transform_point(t, p) for p in points]


def random_point(rng, bound=4):
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(3)]
        if any(coords):
            return ProjPoint(*coords)


def mult_by_partials(curve, point):
    """Least k with a nonzero order-k partial at the point, each partial
    evaluated on its own: the definition that geometry.mult_at computes
    through Taylor shifts."""
    for k in range(curve.degree + 1):
        for beta in monomials(k):
            if curve.derivative_value(beta, point):
                return k
    raise AssertionError("a nonzero form has a nonzero partial of its own degree")


def simplex_by_fractions(obj, rows, rhs):
    """bezout._simplex_max on a Fraction tableau normalized at every pivot:
    the same Bland entering rule and ratio test, each rational entry exact."""
    m = len(rows)
    k = len(obj)
    width = k + m
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in rows[i]] + [Fraction(0)] * m + [Fraction(rhs[i])]
        row[k + i] = Fraction(1)
        tab.append(row)
    cost = [Fraction(-c) for c in obj] + [Fraction(0)] * (m + 1)
    basis = list(range(k, k + m))
    for _ in range(10000):
        enter = next((j for j in range(width) if cost[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][width] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LPInternalError("dual LP unbounded: primal system infeasible")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    else:
        raise LPInternalError("pivot limit exceeded")
    y = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            y[b] = tab[i][width]
    value = sum((o * yy for o, yy in zip(obj, y)), Fraction(0))
    return value, y, [cost[k + i] for i in range(m)]


def derivative_row_by_powers(d, point, beta):
    """The beta-partials of the degree-d monomials at a point, each entry its
    falling factors times three coordinate powers, taken on its own."""
    x0, x1, x2 = point.coords
    b0, b1, b2 = beta
    out = []
    for a0, a1, a2 in monomials(d):
        if a0 < b0 or a1 < b1 or a2 < b2:
            out.append(0)
        else:
            out.append(perm(a0, b0) * perm(a1, b1) * perm(a2, b2)
                       * x0 ** (a0 - b0) * x1 ** (a1 - b1) * x2 ** (a2 - b2))
    return out


def conic_by_kernel(pts):
    """The conic through five points as the kernel of their 5x6 evaluation
    matrix; NonUniqueConicError when the kernel is not one-dimensional."""
    if len(set(pts)) != 5:
        raise NonUniqueConicError("duplicated points leave a pencil of conics")
    rows = [derivative_row_by_powers(2, p, (0, 0, 0)) for p in pts]
    basis = nullspace(RatMatrix.from_rows(rows))
    if len(basis) != 1:
        raise NonUniqueConicError("evaluation matrix has rank < 5")
    return PlaneCurve(2, basis[0])


def row_lists(m):
    """The rows of a RatMatrix as lists."""
    return [m.row(i) for i in range(m.rows)]


def transpose(m):
    return RatMatrix(m.cols, m.rows, [m.entries[r * m.cols + c]
                                      for c in range(m.cols) for r in range(m.rows)])


def mul_vector(m, v):
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return [sum(a * b for a, b in zip(row, v)) for row in row_lists(m)]


def expected_dimension(scheme, d):
    """Naive dimension count; the true dimension is never smaller."""
    return monomial_count(d) - sum(comb(m + 1, 2) for m in scheme.mults)
