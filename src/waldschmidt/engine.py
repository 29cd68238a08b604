"""Combine sweeps, LP lower bounds and divisor constructions into certified estimates."""

from fractions import Fraction

from .fatpoints import FatPointScheme, alpha, degree_floor
from .geometry import mult_at
from .linalg import format_rational


class InsufficientMultiplicityError(ValueError):
    pass


class InconsistencyError(RuntimeError):
    """A certified lower bound exceeded a certified upper bound."""


class FormalDivisor:
    """Nonnegative integer combination of plane curves, targeting multiplicity m."""

    def __init__(self, terms, m):
        terms = [(curve, int(c)) for curve, c in terms]
        if any(c < 0 for _, c in terms):
            raise ValueError("coefficients must be nonnegative")
        if all(c == 0 for _, c in terms):
            raise ValueError("divisor needs at least one positive coefficient")
        self.terms = terms
        self.m = int(m)

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
        # a search from a higher floor may have skipped the true alpha
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


class WaldschmidtResult:
    """Certified bracket for the asymptotic initial-degree ratio."""

    def __init__(self, lower, lower_certificate, upper, upper_evidence,
                 exact, sweep_trace):
        self.lower = lower
        self.lower_certificate = lower_certificate
        self.upper = upper
        self.upper_evidence = upper_evidence
        self.exact = exact
        self.sweep_trace = sweep_trace

    def to_json(self):
        lower_cert = None
        if self.lower_certificate is not None:
            lower_cert = self.lower_certificate.to_json()
        return {
            "lower": {"bound": format_rational(self.lower), "certificate": lower_cert},
            "upper": {"bound": format_rational(self.upper),
                      "evidence": self.upper_evidence},
            "exact": format_rational(self.exact) if self.exact is not None else None,
            "sweep": [e.to_json() for e in self.sweep_trace],
        }


def conclude(lower_certificates, upper_evidence, trace):
    """Best certified bracket; lower > upper signals a bug and raises.

    lower_certificates: list of LowerBoundCertificate (already verified).
    upper_evidence: list of (ratio, description) from verified constructions.
    trace: sweep entries; each ratio is itself a certified upper bound.
    """
    if not lower_certificates:
        raise ValueError("need at least one lower certificate")
    best_cert = max(lower_certificates, key=lambda c: c.bound)
    lower = best_cert.bound
    candidates = [(ratio, desc) for ratio, desc in upper_evidence]
    for e in trace:
        candidates.append((e.ratio, "sweep m=%d" % e.m))
    if not candidates:
        raise ValueError("need at least one upper bound")
    upper, upper_desc = min(candidates, key=lambda t: t[0])
    if lower > upper:
        raise InconsistencyError("lower %s exceeds upper %s"
                                 % (format_rational(lower), format_rational(upper)))
    for e in trace:
        if e.ratio < lower:
            raise InconsistencyError("sweep ratio below certified lower bound at m=%d" % e.m)
    exact = lower if lower == upper else None
    return WaldschmidtResult(lower, best_cert, upper, upper_desc, exact, trace)
