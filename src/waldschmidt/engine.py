"""Divisor upper bounds and sweeps of initial degrees."""

from fractions import Fraction

from .fatpoints import (FatPointScheme, alpha, check_witness, degree_floor,
                        provably_empty)
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
    """alpha(mX) with a witness curve of that degree and how it was certified:
    "search" (fatpoints.alpha) or "product a+b" (witnesses for aX and bX)."""

    __slots__ = ("m", "alpha", "ratio", "witness", "provenance")

    def __init__(self, m, a, witness, provenance):
        self.m = m
        self.alpha = a
        self.ratio = Fraction(a, m)
        self.witness = witness
        self.provenance = provenance

    def to_json(self):
        return [self.m, str(self.alpha), format_rational(self.ratio), self.provenance]


class Engine:
    """Initial degrees of uniform schemes; holds no state, so
    sweep(...) is Engine().sweep(...)."""

    def alpha_uniform(self, points, m, lower_hint=None):
        floor = degree_floor(lower_hint, m) if lower_hint is not None else None
        return alpha(FatPointScheme.uniform(points, m), min_degree=floor)

    def sweep(self, points, m_max, lower_hint=None):
        """alpha(mX)/m for m = 1..m_max, each entry with a checked witness.

        alpha(1X) is searched from the hint's floor.  For m >= 2, let
        U = alpha(aX) + alpha((m-a)X), least over a <= m/2 and taking the
        least a on ties.  The product of those two witnesses vanishes to
        order m at every point, since multiplicities add on products, so
        alpha(mX) <= U.  When degree U - 1 is provably empty (always so when
        U == m), alpha(mX) = U with that product as witness, and no kernel is
        lifted.  Otherwise alpha(mX) is searched from alpha((m-1)X) + 1, or
        the hint's floor if higher: a first partial of a witness for mX is a
        witness for (m-1)X one degree lower, so that floor is proven.
        """
        if m_max < 1:
            raise ValueError("m_max must be >= 1")
        first = self.alpha_uniform(points, 1, lower_hint)
        entries = [SweepEntry(1, first.alpha, first.witness, "search")]
        for m in range(2, m_max + 1):
            scheme = FatPointScheme.uniform(points, m)
            a = min(range(1, m // 2 + 1),
                    key=lambda a: entries[a - 1].alpha + entries[m - a - 1].alpha)
            f, g = entries[a - 1], entries[m - a - 1]
            if provably_empty(scheme, f.alpha + g.alpha - 1):
                witness = check_witness(scheme, f.witness.multiply(g.witness))
                entries.append(SweepEntry(m, witness.degree, witness,
                                          "product %d+%d" % (a, m - a)))
                continue
            floor = entries[-1].alpha + 1
            if lower_hint is not None:
                floor = max(floor, degree_floor(lower_hint, m))
            found = alpha(scheme, min_degree=floor)
            entries.append(SweepEntry(m, found.alpha, found.witness, "search"))
        return entries


def sweep(points, m_max, lower_hint=None):
    return Engine().sweep(points, m_max, lower_hint)
