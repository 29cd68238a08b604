"""Independent oracles and generators shared by the test modules."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, perm

from waldschmidt.bezout import LPInternalError
from waldschmidt.fixtures import conic_point, fixture, fixture_names
from waldschmidt.geometry import (GeometryError, NonUniqueConicError, PlaneCurve, ProjPoint,
                                  _partial_row, _product, conic_through, contains,
                                  evaluation_row, is_irreducible_conic, line_through,
                                  monomial_count, monomials, transform_point)
from waldschmidt.linalg import RatMatrix, nullspace, primitive


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


def derivative_row(d, point, beta):
    """Row of the beta-partials of the degree-d monomials, evaluated at a point."""
    return _partial_row(d, beta, evaluation_row(max(d - sum(beta), 0), point))


def derivative_value(curve, beta, point):
    """The mixed partial derivative of the curve's form given by exponent
    triple beta, evaluated at the point."""
    return sum(c * v for c, v in zip(curve.coeffs, derivative_row(curve.degree, point, beta)))


def mult_by_partials(curve, point):
    """Least k with a nonzero order-k partial at the point, each partial
    evaluated on its own: the definition that geometry.mult_at computes
    through Taylor shifts."""
    for k in range(curve.degree + 1):
        for beta in monomials(k):
            if derivative_value(curve, beta, point):
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


def partial_vector_by_position(curve, i):
    """Coefficients of the x_i-partial of the curve's form, each term moved to
    the index of its exponent in monomials(d - 1): the rule that
    geometry._partial_vector reads from falling factors."""
    index = {m: k for k, m in enumerate(monomials(curve.degree - 1))}
    out = [0] * len(index)
    for c, alpha in zip(curve.coeffs, monomials(curve.degree)):
        if c and alpha[i] >= 1:
            key = list(alpha)
            key[i] -= 1
            out[index[tuple(key)]] += c * alpha[i]
    return out


def cubic_with_double_point_by_betas(simple, dbl):
    """The cubic of geometry.cubic_with_double_point, from one derivative_row
    per first-order beta at dbl, without its postconditions."""
    rows = [evaluation_row(3, p) for p in simple]
    for beta in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        rows.append(derivative_row(3, dbl, beta))
    return PlaneCurve(3, nullspace(RatMatrix.from_rows(rows))[0])


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


def int_matrix(rows):
    """RatMatrix of rational rows, each scaled to a primitive int row, which
    leaves rank and kernel unchanged."""
    return RatMatrix.from_rows([primitive(r) for r in rows])


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


def _adjugate(t):
    t = [[Fraction(v) for v in row] for row in t]
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = t[r[0]][c[0]] * t[r[1]][c[1]] - t[r[0]][c[1]] * t[r[1]][c[0]]
            cof[j][i] = (-1) ** (i + j) * minor
    return cof


def transform_curve(t, curve):
    """Image curve under t: substitute the inverse (adjugate) linear change."""
    inv = _adjugate(t)
    d = curve.degree
    out = [0] * monomial_count(d)
    for c, alpha in zip(curve.coeffs, monomials(d)):
        if c:
            # c * prod_i (inv[i].x)^alpha[i], one linear factor at a time
            term = [c]
            factors = [row for row, a in zip(inv, alpha) for _ in range(a)]
            for k, row in enumerate(factors):
                term = _product(term, k, row, 1)
            out = [o + v for o, v in zip(out, term)]
    return PlaneCurve(d, out)


def profile_by_pairs(points):
    """(lines, collinear_groups, witness_line, max_collinear) as IncidenceProfile
    defines them, from a line_through for every pair and each new line
    evaluated at every point."""
    n = len(points)
    lines = {}
    for i, j in combinations(range(n), 2):
        ln = line_through(points[i], points[j])
        if ln not in lines:
            lines[ln] = tuple(k for k in range(n) if ln.evaluate(points[k]) == 0)
    groups = [(members, ln) for ln, members in lines.items() if len(members) >= 3]
    witness = max(lines, key=lambda ln: len(lines[ln]), default=None)
    return lines, groups, witness, len(lines[witness]) if lines else 0


def conics_by_subsets(points, collinear_groups):
    """[(members, conic)] for the irreducible conics through five of the points:
    every 5-subset with no three points in one of collinear_groups, in
    lexicographic order, its conic kept when unique, irreducible and new."""
    collinear_sets = [set(m) for m, _ in collinear_groups]
    seen = set()
    out = []
    for combo in combinations(range(len(points)), 5):
        if any(len(cs.intersection(combo)) >= 3 for cs in collinear_sets):
            continue
        try:
            conic = conic_through([points[k] for k in combo])
        except NonUniqueConicError:
            continue
        if conic in seen or not is_irreducible_conic(conic):
            continue
        seen.add(conic)
        out.append((tuple(k for k, p in enumerate(points) if conic.evaluate(p) == 0), conic))
    return out


def chords_through(q, pts):
    """(line, members) for each line through q and two or more of pts.

    Members keep the order of pts; lines come in the order of their first member.
    """
    if q in pts:
        raise GeometryError("q must not be one of the points")
    chords = {}
    for i, j in combinations(range(len(pts)), 2):
        ln = line_through(pts[i], pts[j])
        if contains(ln, q):
            chords.setdefault(ln, set()).update((i, j))
    # two chords meet only at q, so first-pair order is first-member order
    return [(ln, [pts[k] for k in sorted(members)]) for ln, members in chords.items()]


def q_collinear_set(ps, qs):
    """Points of ps on the sides of the triangle qs, vertices excluded."""
    if len(qs) != 3:
        raise GeometryError("need exactly three triangle vertices")
    q1, q2, q3 = qs
    if contains(line_through(q1, q2), q3):
        raise GeometryError("triangle vertices are collinear")
    if set(ps) & set(qs):
        raise GeometryError("ps must be disjoint from the vertices")
    sides = [line_through(q2, q3), line_through(q1, q3), line_through(q1, q2)]
    return [p for p in ps if any(contains(s, p) for s in sides)]


def fixture_images(seed, rounds):
    """`rounds` rounds over the registry, each fixture mapped by a fresh
    unimodular matrix: the inputs of the classify-images benchmark."""
    rng = random.Random(seed)
    fixtures = [fixture(name) for name in fixture_names()]
    return [transform_points(unimodular(rng), fx.points)
            for _ in range(rounds) for fx in fixtures]


def _on_line(rng, a, b, k, taken):
    """k new points s*a + t*b, none in taken."""
    pts = []
    while len(pts) < k:
        s, t = rng.randint(-4, 4), rng.randint(-4, 4)
        coords = [s * x + t * y for x, y in zip(a.coords, b.coords)]
        if any(coords):
            p = ProjPoint(*coords)
            if p not in taken and p not in pts:
                pts.append(p)
    return pts


SPECIAL_KINDS = ("conic8-line4", "two-lines5", "grid", "two-conics", "conic-chords")


def special_configuration(rng, kind):
    """Points dense in special position: many collinear triples and many points
    on one conic, mapped by a random unimodular matrix."""
    if kind == "conic8-line4":
        # eight conic points and four on a line through none, one or two of them
        pts = [conic_point(t) for t in rng.sample(range(-6, 7), 8)]
        ends = pts[:rng.randrange(3)]
        while len(ends) < 2:
            ends.append(random_point(rng))
        if ends[0] == ends[1]:
            ends[1] = conic_point(9)
        pts += _on_line(rng, ends[0], ends[1], 4, pts)
    elif kind == "two-lines5":
        # two lines of five sharing a point, and a point off both
        o, a, b = ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)
        pts = [o] + _on_line(rng, o, a, 4, [o])
        pts += _on_line(rng, o, b, 4, pts)
        pts.append(ProjPoint(1, 1, 1))
    elif kind == "grid":
        # the 3x3 grid and its eight lines of three, plus points on those lines
        pts = [ProjPoint(1, x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(pts[:9], 2)
            pts += _on_line(rng, a, b, 1, pts)
    elif kind == "two-conics":
        # six points on the standard conic, five on its image under x1 -> x2 - x1
        pts = [conic_point(t) for t in rng.sample(range(-5, 6), 6)]
        for t in rng.sample(range(-5, 6), 5):
            p = conic_point(t)
            q = ProjPoint(p.coords[0], p.coords[2] - p.coords[1], p.coords[2])
            if q not in pts:
                pts.append(q)
    else:
        # seven conic points and the meets of three pairs of their chords
        pts = [conic_point(t) for t in rng.sample(range(-6, 7), 7)]
        for _ in range(3):
            a, b, c, d = rng.sample(pts[:7], 4)
            x = line_through(a, b).coeffs
            y = line_through(c, d).coeffs
            pts.append(ProjPoint(x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                                 x[0] * y[1] - x[1] * y[0]))
    return transform_points(unimodular(rng), list(dict.fromkeys(pts)))

