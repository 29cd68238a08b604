"""Fat-point schemes: interpolation matrices, initial degrees and Hilbert functions."""

from fractions import Fraction
from math import ceil

from .geometry import (DuplicatePointError, PlaneCurve, ProjPoint, derivative_row,
                       monomial_count, monomials, mult_at)
from .linalg import RatMatrix, nullspace, rank_exact, require_int


class AlphaSearchError(RuntimeError):
    """The initial-degree search exceeded its termination cap."""


class FatPointScheme:
    """Distinct points with positive int multiplicities."""

    __slots__ = ("points", "mults")

    def __init__(self, points, mults):
        points = tuple(points)
        mults = tuple(require_int(m, "multiplicity") for m in mults)
        if len(points) != len(mults):
            raise ValueError("points and multiplicities differ in length")
        if len(set(points)) != len(points):
            raise DuplicatePointError("scheme points must be pairwise distinct")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be >= 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "mults", mults)

    def __setattr__(self, name, value):
        raise AttributeError("FatPointScheme is immutable")

    @classmethod
    def uniform(cls, points, m):
        return cls(points, [m] * len(points))

    @classmethod
    def parse(cls, obj):
        points = [ProjPoint.parse(p) for p in obj["points"]]
        if "mults" in obj:
            return cls(points, obj["mults"])
        return cls.uniform(points, obj.get("m", 1))

    def to_json(self):
        uniform = len(set(self.mults)) == 1
        if uniform:
            return {"points": [p.to_json() for p in self.points], "m": self.mults[0]}
        return {"points": [p.to_json() for p in self.points], "mults": list(self.mults)}

    @property
    def n(self):
        return len(self.points)

    def is_uniform(self):
        return len(set(self.mults)) == 1

    def key(self):
        return (tuple(p.coords for p in self.points), self.mults)

    def __eq__(self, other):
        return isinstance(other, FatPointScheme) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class AlphaResult:
    """Initial degree of a fat-point scheme with a witness curve and search trace."""

    def __init__(self, m, alpha, witness, h0_trace):
        self.m = m
        self.alpha = alpha
        self.witness = witness
        self.h0_trace = list(h0_trace)

    def to_json(self):
        return {"m": self.m, "alpha": self.alpha,
                "witness": self.witness.to_json(),
                "h0_trace": [[d, dim] for d, dim in self.h0_trace]}


def interpolation_matrix(scheme, d):
    """Derivative-condition matrix: C(m_i+1, 2) rows per point.

    Vanishing to order >= m_i is imposed through the partials of order
    m_i - 1 alone; by the Euler identity (characteristic 0, homogeneous
    forms) these force all lower-order partials to vanish as well.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    rows = []
    for p, m in zip(scheme.points, scheme.mults):
        for beta in monomials(m - 1):
            rows.append(derivative_row(d, p, beta))
    return RatMatrix.from_rows(rows) if rows else RatMatrix(0, monomial_count(d), [])


def ideal_dimension(scheme, d):
    """Dimension of degree-d forms vanishing to the prescribed orders.

    For d below the largest multiplicity the dimension is 0 outright: a
    nonzero degree-d form vanishes to order at most d at any point (there the
    derivative conditions degenerate and the matrix rank cannot be trusted).
    """
    if d < max(scheme.mults):
        return 0
    return monomial_count(d) - hilbert_function(scheme, d)


def hilbert_function(scheme, d):
    """Number of independent conditions in degree d; stabilizes at n for reduced schemes."""
    return rank_exact(interpolation_matrix(scheme, d))


def degree_floor(lower_bound, m):
    """Least admissible degree given a certified lower bound on alpha/m."""
    return max(1, ceil(Fraction(lower_bound) * m))


def alpha(scheme, min_degree=None):
    """Smallest degree with a nonzero form vanishing to the prescribed orders.

    min_degree is a hint, checked before it is used: when it is above the
    largest multiplicity, the degree just below it must have no such form.
    Dimensions only grow with the degree (multiply by a linear form), so a
    zero there rules out every lower degree; otherwise the hint is dropped
    and the search starts from the largest multiplicity.  Neither the
    checked degree nor skipped ones are recorded in h0_trace.  The search is
    capped at 3*max(m)*n, always reachable by a product of lines.
    """
    if scheme.n == 0:
        raise ValueError("scheme must be nonempty")
    cap = 3 * max(scheme.mults) * scheme.n
    low = max(scheme.mults)
    d = max(low, min_degree or 1)
    if d > cap:
        raise AlphaSearchError("no section found up to the cap %d" % cap)
    if d > low and nullspace(interpolation_matrix(scheme, d - 1)):
        d = low
    trace = []
    while d <= cap:
        basis = nullspace(interpolation_matrix(scheme, d))
        trace.append((d, len(basis)))
        if basis:
            witness = PlaneCurve(d, basis[0])
            for p, m in zip(scheme.points, scheme.mults):
                if mult_at(witness, p) < m:
                    raise AlphaSearchError("witness fails multiplicity at %r" % (p,))
            m_val = scheme.mults[0] if scheme.is_uniform() else None
            return AlphaResult(m_val, d, witness, trace)
        d += 1
    raise AlphaSearchError("no section found up to the cap %d" % cap)
