"""Exact projective-plane primitives: points, curves, incidence and multiplicity."""

from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, perm
from operator import mul

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


def _product(a, da, b, db):
    """Coefficients of the product of the forms with coefficients a (degree da)
    and b (degree db), in the order of monomials(da + db).  In monomials(d)
    the triple (e0, e1, e2) is preceded by the s(s + 1)/2 triples with a
    larger e0, s = d - e0 = e1 + e2, and by the e2 triples of its own e0 with
    a larger e1."""
    out = [0] * monomial_count(da + db)
    for ca, (_, a1, a2) in zip(a, monomials(da)):
        if ca:
            for cb, (_, b1, b2) in zip(b, monomials(db)):
                if cb:
                    s = a1 + a2 + b1 + b2
                    out[s * (s + 1) // 2 + a2 + b2] += ca * cb
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
        return sum(map(mul, self.coeffs, evaluation_row(self.degree, point)))

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


def _cross(a, b):
    """Coefficients of the line through the coordinate triples a and b; all
    zero when they are proportional."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def line_through(p, q):
    """The unique line through two distinct points (cross product of coordinates)."""
    if p == q:
        raise IdenticalPointsError("no unique line through identical points %r" % (p,))
    # line coefficients for (x0, x1, x2) in monomial order of degree 1
    return PlaneCurve(1, _cross(p.coords, q.coords))


def _powers(x, d):
    out = [1]
    for _ in range(d):
        out.append(out[-1] * x)
    return out


def evaluation_row(d, point):
    """Row of degree-d monomial values at a point, from one power table per
    coordinate."""
    x0, x1, x2 = point.coords
    p0, p1, p2 = _powers(x0, d), _powers(x1, d), _powers(x2, d)
    return [p0[a0] * p1[a1] * p2[a2] for a0, a1, a2 in monomials(d)]


def _partial_row(d, beta, values):
    """Row of the beta-partials of the degree-d monomials, read from values,
    the degree-(d - |beta|) monomial values at the point.  The beta-partial of
    x^a is a falling factor times x^(a - beta), nonzero exactly when a >= beta,
    and a -> a - beta maps those a, in order, onto monomials(d - |beta|)."""
    rest = iter(values)
    return [f and f * next(rest) for f in _falling_factors(d, beta)]


def derivative_rows(d, point, order):
    """Rows of the beta-partials of the degree-d monomials at a point, one per
    beta in monomials(order), all read from one row of monomial values."""
    values = evaluation_row(max(d - order, 0), point)
    return [_partial_row(d, beta, values) for beta in monomials(order)]


def conic_through(pts):
    """The unique conic through five points.

    It exists exactly when the points are distinct and no four of them are
    collinear, and then some four of them, a, b, c, d, have no three
    collinear (3x3 determinants).  The conics through those four are the
    pencil spanned by A = L_ab*L_cd and B = L_ac*L_bd, and the one through
    the fifth point p is B(p)*A - A(p)*B, which is nonzero since p lies on
    both line pairs only at one of the four.  With no such four, four of the
    points are collinear and NonUniqueConicError is raised.
    """
    if len(pts) != 5:
        raise GeometryError("conic_through expects exactly 5 points")
    if len(set(pts)) != 5:
        raise NonUniqueConicError("duplicated points leave a pencil of conics")
    coords = [p.coords for p in pts]
    for k in range(4, -1, -1):
        a, b, c, d = coords[:k] + coords[k + 1:]
        ab, cd = _cross(a, b), _cross(c, d)
        if _dot(ab, c) and _dot(ab, d) and _dot(cd, a) and _dot(cd, b):
            ac, bd = _cross(a, c), _cross(b, d)
            p = coords[k]
            at_p = _dot(ab, p) * _dot(cd, p)
            bt_p = _dot(ac, p) * _dot(bd, p)
            return PlaneCurve(2, [bt_p * x - at_p * y for x, y in
                                  zip(_product(ab, 1, cd, 1), _product(ac, 1, bd, 1))])
    raise NonUniqueConicError("four of the five points are collinear")


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


def _taylor_shift(c, a):
    """c[s] becomes the coefficient of u^s in g(a + u), where g = sum c[s] x^s."""
    n = len(c)
    if a:
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                c[j] += a * c[j + 1]


def mult_at(curve, point):
    """Order of vanishing at a point: least k with a nonzero order-k partial.

    That is the least degree of a nonzero term of the Taylor expansion of F
    at the point.  With the point's coordinate x_k nonzero and x_i, x_j the
    other two, H(u, v) = F(point + u e_i + v e_j) is F on the affine chart
    x_k = point[k], centred at the point, so the order is the least s + t
    with a nonzero coefficient of u^s v^t.  Those coefficients come from two
    Taylor shifts, first in x_i and then in x_j.
    """
    p = point.coords
    k = 2 if p[2] else 1 if p[1] else 0
    i, j = ((1, 2), (0, 2), (0, 1))[k]
    d = curve.degree
    powers = _powers(p[k], d)
    # rows[b][a]: the coefficient of x_i^a x_j^b, with x_k = point[k] put in
    rows = [[0] * (d - b + 1) for b in range(d + 1)]
    for f, e in zip(curve.coeffs, monomials(d)):
        if f:
            rows[e[j]][e[i]] = f * powers[e[k]]
    for row in rows:
        _taylor_shift(row, p[i])
    order = d + 1
    for s in range(d + 1):
        if s >= order:
            break
        column = [row[s] for row in rows[:d - s + 1]]
        _taylor_shift(column, p[j])
        for t, v in enumerate(column[:order - s]):
            if v:
                order = s + t
                break
    if order > d:
        # a nonzero form of degree d has a nonzero order-d partial
        raise GeometryError("unreachable: nonzero form vanishing to excess order")
    return order


def contains(curve, point):
    """Whether the curve vanishes at the point; a line by one dot product."""
    if curve.degree == 1:
        return not _dot(curve.coeffs, point.coords)
    return not curve.evaluate(point)


class IncidenceProfile:
    """Every line through two of the points and every irreducible conic through five.

    lines maps each line to the indices of the points on it, in the order of
    the first pair that spans it; conics maps each irreducible conic to its
    indices, in the order of the first 5-subset that spans it, and is
    enumerated on first read, so callers that need only lines never pay for
    the C(n, 5) conic search.

    The pairs are walked in lexicographic order and a pair already on a found
    line is skipped, since that line is the only one through it; each new
    line is the cross product of its pair, its members are the points it has
    zero dot product with, and every pair of members is then covered.
    """

    def __init__(self, points):
        n = len(points)
        if len(set(points)) != n:
            raise DuplicatePointError("points must be pairwise distinct")
        self.points = list(points)
        coords = [p.coords for p in points]
        self.lines = {}
        covered = set()
        for i, j in combinations(range(n), 2):
            if (i, j) in covered:
                continue
            ln = _cross(coords[i], coords[j])
            members = tuple(k for k in range(n) if not _dot(ln, coords[k]))
            covered.update(combinations(members, 2))
            self.lines[PlaneCurve(1, ln)] = members
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
        order of their first member.  The profile's lines through i split the
        other points, so these are read from self.lines."""
        if i in among:
            raise GeometryError("point %d must not be one of among" % i)
        through_i = [(ln, members) for ln, members in self.lines.items() if i in members]
        by_line = {}
        for k in among:
            by_line.setdefault(next(ln for ln, on in through_i if k in on), []).append(k)
        return [(ln, tuple(mem)) for ln, mem in by_line.items() if len(mem) >= 2]


def incidence_profile(points):
    """The IncidenceProfile of a list of pairwise distinct points."""
    return IncidenceProfile(points)


def irreducible_conics(points, collinear_groups):
    """Each irreducible conic through five of the points, with the indices it contains.

    points are pairwise distinct and collinear_groups (pairs of member indices
    and line) holds every line through three or more of them.  5-subsets are
    enumerated in lexicographic order, skipping those with three points in one
    of collinear_groups, and those whose points all lie on a conic already
    yielded: that conic passes through them and is the only one that does.
    So each conic is yielded once, at its first 5-subset.

    Every subset that is left has no three points collinear, so its conic is
    unique (conic_through needs no four collinear) and irreducible.  A conic
    with singular symmetric matrix is L1*L2 for two lines over the algebraic
    closure, and {L1, L2} is stable under conjugation.  Either both lines are
    rational (possibly equal), and one of them holds three of the five
    points, or they are distinct and conjugate, and a rational point on one
    lies on the other, so at their one common point.
    """
    collinear_sets = [set(m) for m, _ in collinear_groups]
    values = [evaluation_row(2, p) for p in points]
    spanned = []
    for combo in combinations(range(len(points)), 5):
        if any(len(cs.intersection(combo)) >= 3 for cs in collinear_sets):
            continue
        if any(on.issuperset(combo) for on in spanned):
            continue
        conic = conic_through([points[k] for k in combo])
        coeffs = conic.coeffs
        members = tuple(k for k, v in enumerate(values) if not sum(map(mul, coeffs, v)))
        spanned.append(set(members))
        yield members, conic


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
    rows = [evaluation_row(3, p) for p in simple] + derivative_rows(3, dbl, 1)
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
    """Coefficients of the x_i-partial of the curve's form, as _partial_row
    reads them: the x^a with a_i >= 1, shifted down at i, are in order the
    monomials of degree d - 1."""
    factors = _falling_factors(curve.degree, monomials(1)[i])
    return [f * c for f, c in zip(factors, curve.coeffs) if f]


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
    """Image of p under the 3x3 matrix t of ints or Fractions (rows of t act on coords)."""
    x = p.coords
    y = [t[i][0] * x[0] + t[i][1] * x[1] + t[i][2] * x[2] for i in range(3)]
    return ProjPoint(*y)
