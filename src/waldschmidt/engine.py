"""Divisor upper bounds and memoized sweeps of initial degrees."""

from fractions import Fraction

from .fatpoints import FatPointScheme, alpha, degree_floor
from .geometry import mult_at
from .linalg import format_rational, require_int


class InsufficientMultiplicityError(ValueError):
    pass


class FormalDivisor:
    """Nonnegative int combination of plane curves, targeting int multiplicity m."""

    def __init__(self, terms, m):
        terms = [(curve, require_int(c, "coefficient")) for curve, c in terms]
        if any(c < 0 for _, c in terms):
            raise ValueError("coefficients must be nonnegative")
        if all(c == 0 for _, c in terms):
            raise ValueError("divisor needs at least one positive coefficient")
        self.terms = terms
        self.m = require_int(m, "m")

    @property
    def degree(self):
        return sum(c * curve.degree for curve, c in self.terms)

    def to_json(self):
        return {"m": self.m,
                "terms": [{"coeff": c, "curve": curve.to_json()}
                          for curve, c in self.terms]}


def verify_upper(divisor, scheme):
    """Certified upper bound degree/m once every point reaches multiplicity m.

    Multiplicity is additive on products, so summing per-term multiplicities
    is exact; the check therefore never over-accepts.
    """
    if not scheme.is_uniform():
        raise ValueError("upper-bound verification requires a uniform scheme")
    m = divisor.m
    for p in scheme.points:
        total = sum(c * mult_at(curve, p) for curve, c in divisor.terms if c)
        if total < m:
            raise InsufficientMultiplicityError(
                "multiplicity %d < %d at %r" % (total, m, p))
    return Fraction(divisor.degree, m)


class SweepEntry:
    __slots__ = ("m", "alpha", "ratio")

    def __init__(self, m, a):
        self.m = m
        self.alpha = a
        self.ratio = Fraction(a, m)

    def to_json(self):
        return [self.m, str(self.alpha), format_rational(self.ratio)]


class Engine:
    """Memoizes initial degrees by scheme content, m and search floor."""

    def __init__(self):
        self._memo = {}

    def alpha_uniform(self, points, m, lower_hint=None):
        scheme = FatPointScheme.uniform(points, m)
        floor = degree_floor(lower_hint, m) if lower_hint is not None else None
        # searches from different floors record different h0_trace rows
        key = (scheme.key(), floor)
        if key in self._memo:
            return self._memo[key]
        result = alpha(scheme, min_degree=floor)
        self._memo[key] = result
        return result

    def sweep(self, points, m_max, lower_hint=None):
        """alpha(mX)/m for m = 1..m_max, searching from the certified floor."""
        if m_max < 1:
            raise ValueError("m_max must be >= 1")
        return [SweepEntry(m, self.alpha_uniform(points, m, lower_hint).alpha)
                for m in range(1, m_max + 1)]


def sweep(points, m_max, lower_hint=None):
    return Engine().sweep(points, m_max, lower_hint)
