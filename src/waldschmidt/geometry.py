"""Exact projective-plane primitives: points, curves, incidence and multiplicity."""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, perm

from .linalg import (RatMatrix, nullspace, parse_rational, primitive, rank_exact,
                     require_int)


class GeometryError(ValueError):
    pass


class IdenticalPointsError(GeometryError):
    pass


class DuplicatePointError(GeometryError):
    pass


class NonUniqueConicError(GeometryError):
    pass


class WrongDegreeError(GeometryError):
    pass


class CollinearVerticesError(GeometryError):
    pass


@lru_cache(maxsize=None)
def monomials(d):
    """Exponent triples of degree d, graded-lex with x0 > x1 > x2."""
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            out.append((a, b, d - a - b))
    return tuple(out)


def monomial_count(d):
    return comb(d + 2, 2)


@lru_cache(maxsize=None)
def _position(d):
    """Index of each degree-d exponent triple in monomials(d)."""
    return {m: i for i, m in enumerate(monomials(d))}


def _product(a, da, b, db):
    """Coefficients of the product of the forms with coefficients a (degree da)
    and b (degree db), in the order of monomials(da + db)."""
    index = _position(da + db)
    out = [0] * len(index)
    for ca, (a0, a1, a2) in zip(a, monomials(da)):
        if ca:
            for cb, (b0, b1, b2) in zip(b, monomials(db)):
                if cb:
                    out[index[a0 + b0, a1 + b1, a2 + b2]] += ca * cb
    return out


@lru_cache(maxsize=None)
def _falling_factors(d, beta):
    """Per degree-d monomial x^a, the factor prod a_i!/(a_i - beta_i)! that its
    beta-partial brings down; 0 when some a_i < beta_i and the partial vanishes."""
    b0, b1, b2 = beta
    return tuple(perm(a0, b0) * perm(a1, b1) * perm(a2, b2)
                 for a0, a1, a2 in monomials(d))


class ProjPoint:
    """Point of the projective plane with canonical primitive integer coordinates."""

    __slots__ = ("coords",)

    def __init__(self, x0, x1, x2):
        coords = primitive([x0, x1, x2])
        if not any(coords):
            raise GeometryError("zero triple is not a projective point")
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @classmethod
    def parse(cls, triple):
        if len(triple) != 3:
            raise GeometryError("point needs three coordinates")
        return cls(*[parse_rational(c) for c in triple])

    def to_json(self):
        return [str(c) for c in self.coords]

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(%d:%d:%d)" % self.coords


class PlaneCurve:
    """Plane curve of degree d as a primitive integer coefficient vector.

    Coefficients follow the graded-lex monomial order of monomials(d); the
    constructor takes an int degree and rationals, and stores primitive ints.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        coeffs = list(coeffs)
        if require_int(degree, "degree") < 1:
            raise WrongDegreeError("curve degree must be >= 1")
        if len(coeffs) != monomial_count(degree):
            raise GeometryError("degree-%d curve needs %d coefficients"
                                % (degree, monomial_count(degree)))
        ints = primitive(coeffs)
        if not any(ints):
            raise GeometryError("zero form does not define a curve")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(ints))

    def __setattr__(self, name, value):
        raise AttributeError("PlaneCurve is immutable")

    @classmethod
    def parse(cls, obj):
        return cls(obj["degree"], [parse_rational(c) for c in obj["coeffs"]])

    def to_json(self):
        return {"degree": self.degree,
                "coeffs": [str(c) for c in self.coeffs]}

    def evaluate(self, point):
        return self.derivative_value((0, 0, 0), point)

    def derivative_value(self, beta, point):
        """Evaluate the mixed partial derivative given by exponent triple beta."""
        return sum(c * v for c, v in zip(self.coeffs,
                                         derivative_row(self.degree, point, beta)) if c)

    def multiply(self, other):
        """Product curve."""
        return PlaneCurve(self.degree + other.degree,
                          _product(self.coeffs, self.degree, other.coeffs, other.degree))

    def __eq__(self, other):
        return (isinstance(other, PlaneCurve) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return "PlaneCurve(%d, %s)" % (self.degree, [str(c) for c in self.coeffs])


def line_through(p, q):
    """The unique line through two distinct points (cross product of coordinates)."""
    if p == q:
        raise IdenticalPointsError("no unique line through identical points %r" % (p,))
    a0, a1, a2 = p.coords
    b0, b1, b2 = q.coords
    # line coefficients for (x0, x1, x2) in monomial order of degree 1
    return PlaneCurve(1, [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def evaluation_row(d, point):
    """Row of degree-d monomial values at a point."""
    return derivative_row(d, point, (0, 0, 0))


def derivative_row(d, point, beta):
    """Row of the beta-partials of the degree-d monomials, evaluated at a point."""
    x0, x1, x2 = point.coords
    b0, b1, b2 = beta
    return [f * x0 ** (a0 - b0) * x1 ** (a1 - b1) * x2 ** (a2 - b2) if f else 0
            for f, (a0, a1, a2) in zip(_falling_factors(d, beta), monomials(d))]


def conic_through(pts):
    """The unique conic through five points; rank below 5 means no unique conic."""
    if len(pts) != 5:
        raise GeometryError("conic_through expects exactly 5 points")
    if len(set(pts)) != 5:
        raise NonUniqueConicError("duplicated points leave a pencil of conics")
    basis = nullspace(RatMatrix.from_rows([evaluation_row(2, p) for p in pts]))
    if len(basis) != 1:
        raise NonUniqueConicError("evaluation matrix has rank < 5")
    return PlaneCurve(2, basis[0])


def is_irreducible_conic(c):
    """A conic is irreducible iff its symmetric matrix has nonzero determinant."""
    if c.degree != 2:
        raise WrongDegreeError("expected a degree-2 curve")
    # coeffs ordered x0^2, x0x1, x0x2, x1^2, x1x2, x2^2
    a, b, cc, d, e, f = c.coeffs
    m = [[2 * a, b, cc], [b, 2 * d, e], [cc, e, 2 * f]]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return det != 0


def mult_at(curve, point):
    """Order of vanishing at a point: least k with a nonzero order-k partial."""
    for k in range(curve.degree + 1):
        for beta in monomials(k):
            if curve.derivative_value(beta, point) != 0:
                return k
    # a nonzero form of degree d has a nonzero order-d partial
    raise GeometryError("unreachable: nonzero form vanishing to excess order")


def contains(curve, point):
    return curve.evaluate(point) == 0


class IncidenceProfile:
    """Every line through two of the points and every irreducible conic through five.

    lines maps each line to the indices of the points on it, in the order of
    the first pair that spans it; conics maps each irreducible conic to its
    indices, in the order of the first 5-subset that spans it, and is
    enumerated on first read, so callers that need only lines never pay for
    the C(n, 5) conic search.
    """

    def __init__(self, points):
        n = len(points)
        if len(set(points)) != n:
            raise DuplicatePointError("points must be pairwise distinct")
        self.points = list(points)
        self.lines = {}
        for i, j in combinations(range(n), 2):
            ln = line_through(points[i], points[j])
            if ln not in self.lines:
                self.lines[ln] = tuple(k for k in range(n) if contains(ln, points[k]))
        # first-pair order is the order of the member tuples: two points fix a line
        self.collinear_groups = [(members, ln) for ln, members in self.lines.items()
                                 if len(members) >= 3]
        self.witness_line = max(self.lines, key=lambda ln: len(self.lines[ln]),
                                default=None)
        self.max_collinear = len(self.lines[self.witness_line]) if self.lines else 0

    @cached_property
    def conics(self):
        return {conic: members for members, conic
                in irreducible_conics(self.points, self.collinear_groups)}

    @cached_property
    def conic_subsets(self):
        """(members, conic) for the conics through six or more points, largest first."""
        return sorted(((members, conic) for conic, members in self.conics.items()
                       if len(members) >= 6), key=lambda t: (-len(t[0]), t[0]))

    def chords(self, i, among):
        """(line, members) for each line through point i and two or more of the
        indices among; members keep the order of among, and lines come in the
        order of their first member, as in chords_through."""
        if i in among:
            raise GeometryError("point %d must not be one of among" % i)
        by_line = {}
        for k in among:
            by_line.setdefault(line_through(self.points[i], self.points[k]), []).append(k)
        return [(ln, tuple(mem)) for ln, mem in by_line.items() if len(mem) >= 2]


def incidence_profile(points):
    """The IncidenceProfile of a list of pairwise distinct points."""
    return IncidenceProfile(points)


def irreducible_conics(points, collinear_groups):
    """Each irreducible conic through five of the points, with the indices it contains.

    5-subsets are enumerated in lexicographic order, skipping those with three
    points in one of collinear_groups (pairs of member indices and line); each
    conic is yielded once, at its first 5-subset.
    """
    collinear_sets = [set(m) for m, _ in collinear_groups]
    seen = set()
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
        yield tuple(k for k, p in enumerate(points) if contains(conic, p)), conic


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
        raise CollinearVerticesError("triangle vertices are collinear")
    if set(ps) & set(qs):
        raise GeometryError("ps must be disjoint from the vertices")
    sides = [line_through(q2, q3), line_through(q1, q3), line_through(q1, q2)]
    return [p for p in ps if any(contains(s, p) for s in sides)]


def cubic_with_double_point(simple, dbl):
    """A cubic through six simple points with a double point at dbl.

    Nine linear conditions on ten cubic coefficients always leave a kernel;
    the first basis vector under the deterministic kernel convention is
    returned and its multiplicities are verified.
    """
    if len(simple) != 6:
        raise GeometryError("need exactly six simple points")
    pts = list(simple) + [dbl]
    if len(set(pts)) != 7:
        raise DuplicatePointError("the seven points must be pairwise distinct")
    rows = [evaluation_row(3, p) for p in simple]
    for beta in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        rows.append(derivative_row(3, dbl, beta))
    basis = nullspace(RatMatrix.from_rows(rows))
    if not basis:
        raise GeometryError("unreachable: 9 equations in 10 unknowns have a kernel")
    cubic = PlaneCurve(3, basis[0])
    for p in simple:
        if mult_at(cubic, p) < 1:
            raise GeometryError("postcondition failed: missing simple point %r" % (p,))
    if mult_at(cubic, dbl) < 2:
        raise GeometryError("postcondition failed: %r is not a double point" % (dbl,))
    return cubic


def _partial_vector(curve, i):
    index = _position(curve.degree - 1)
    out = [0] * len(index)
    for c, alpha in zip(curve.coeffs, monomials(curve.degree)):
        if c and alpha[i] >= 1:
            key = list(alpha)
            key[i] -= 1
            out[index[tuple(key)]] += c * alpha[i]
    return out


def is_smooth_cubic(curve):
    """Exact smoothness test for a plane cubic over the algebraic closure.

    The three partials are quadrics; they share no projective zero iff they
    form a regular sequence, in which case the quotient Hilbert series is
    (1+t)^3 and the degree-4 multiples of the partials fill all of degree 4.
    So smoothness is equivalent to the 18x15 multiplication matrix having
    full column rank.  A smooth plane cubic is automatically irreducible.
    """
    if curve.degree != 3:
        raise WrongDegreeError("expected a degree-3 curve")
    # the coefficient vector of each quadric monomial, to multiply the partials by
    units = [[int(j == k) for k in range(6)] for j in range(6)]
    rows = [_product(_partial_vector(curve, i), 2, u, 2) for i in range(3) for u in units]
    return rank_exact(RatMatrix.from_rows(rows)) == monomial_count(4)


def transform_point(t, p):
    """Image of p under the 3x3 rational matrix t (rows of t act on coords)."""
    x = p.coords
    y = [sum(Fraction(t[i][j]) * x[j] for j in range(3)) for i in range(3)]
    return ProjPoint(*y)


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
