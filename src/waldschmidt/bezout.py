"""Bezout-decomposition inequality systems and exact rational LP certificates."""

from fractions import Fraction

from .geometry import is_irreducible_conic, mult_at
from .linalg import format_rational, parse_rational


class UnverifiedCurveError(ValueError):
    pass


class ProportionalCurvesError(ValueError):
    pass


class LPInternalError(RuntimeError):
    pass


class Constraint:
    """Affine inequality t_coeff*t + sum(a_coeffs[j]*a_j) >= rhs."""

    __slots__ = ("label", "t_coeff", "a_coeffs", "rhs")

    def __init__(self, label, t_coeff, a_coeffs, rhs):
        self.label = label
        self.t_coeff = Fraction(t_coeff)
        self.a_coeffs = tuple(Fraction(c) for c in a_coeffs)
        self.rhs = Fraction(rhs)


class BezoutSystem:
    """Inequality system over (t, a_1..a_r) normalized to multiplicity 1."""

    def __init__(self, var_names, constraints, note=None):
        self.var_names = list(var_names)
        self.constraints = list(constraints)
        self.note = note

    @property
    def nvars(self):
        return len(self.var_names)

    def to_json(self):
        return {
            "variables": ["t"] + self.var_names,
            "constraints": [
                {"label": c.label,
                 "t": format_rational(c.t_coeff),
                 "a": [format_rational(x) for x in c.a_coeffs],
                 "rhs": format_rational(c.rhs)}
                for c in self.constraints],
        }


def build_system(points, curves, labels=None, attested=()):
    """Bezout inequality system for the points at multiplicity 1 and verified curves.

    Repeated curves are rejected first, then unverified ones: lines are
    verified, conics iff irreducible, cubics and beyond only when their index
    is in attested.  One degree constraint t - sum(d_j a_j) >= 0 plus, for
    every curve j, d_j*t + sum_l(sum_i m_ij m_il - d_j d_l) a_l >= sum_i m_ij,
    with m_ij the multiplicity of curve j at point i.  Relaxing the
    decomposition integers to nonnegative rationals only enlarges the feasible
    set, so the minimum stays a valid lower bound.
    """
    seen = set()
    for idx, curve in enumerate(curves):
        if curve in seen:
            raise ProportionalCurvesError("curve %d repeats an earlier curve" % idx)
        seen.add(curve)
    labels = labels or ["curve %d" % (idx + 1) for idx in range(len(curves))]
    for idx, curve in enumerate(curves):
        if not (curve.degree == 1
                or (curve.degree == 2 and is_irreducible_conic(curve))
                or (curve.degree > 2 and idx in attested)):
            raise UnverifiedCurveError("curve %r lacks verification" % labels[idx])
    degs = [c.degree for c in curves]
    mrows = [[mult_at(c, p) for p in points] for c in curves]
    cons = [Constraint("degree", 1, [-d for d in degs], 0)]
    for j, row in enumerate(mrows):
        coeffs = [sum(a * b for a, b in zip(row, other)) - degs[j] * degs[l]
                  for l, other in enumerate(mrows)]
        cons.append(Constraint(labels[j], degs[j], coeffs, sum(row)))
    return BezoutSystem(labels, cons)


class LowerBoundCertificate:
    """Nonnegative multipliers combining a system's inequalities into t >= bound."""

    def __init__(self, bound, duals, system, primal=None):
        self.bound = Fraction(bound)
        self.duals = [Fraction(d) for d in duals]
        self.system = system
        self.primal = primal

    def to_json(self):
        out = {"bound": format_rational(self.bound),
               "duals": [{"label": c.label, "mult": format_rational(d)}
                         for c, d in zip(self.system.constraints, self.duals)]}
        if self.system.note:
            out["note"] = self.system.note
        return out

    @classmethod
    def parse(cls, obj, system):
        duals = []
        by_label = {d["label"]: parse_rational(d["mult"]) for d in obj["duals"]}
        for c in system.constraints:
            duals.append(by_label.get(c.label, Fraction(0)))
        return cls(parse_rational(obj["bound"]), duals, system)


class VerificationResult:
    def __init__(self, ok, reasons):
        self.ok = ok
        self.reasons = reasons

    def __bool__(self):
        return self.ok


def verify_certificate(cert):
    """Audit a lower-bound certificate independently of any solver.

    The dual combination must have positive t coefficient, nonpositive net
    coefficient on every a_j (absorbed by a_j >= 0), and, after normalizing
    the t coefficient to 1, constant term equal to the claimed bound.
    Multipliers are accepted up to overall positive scaling.
    """
    reasons = []
    sys_ = cert.system
    if len(cert.duals) != len(sys_.constraints):
        return VerificationResult(False, ["dual count differs from constraint count"])
    if any(d < 0 for d in cert.duals):
        reasons.append("negative multiplier")
    t_total = sum(d * c.t_coeff for d, c in zip(cert.duals, sys_.constraints))
    if t_total <= 0:
        reasons.append("combined t coefficient is not positive")
        return VerificationResult(False, reasons)
    for j in range(sys_.nvars):
        net = sum(d * c.a_coeffs[j] for d, c in zip(cert.duals, sys_.constraints))
        if net > 0:
            reasons.append("variable %s has positive net coefficient %s"
                           % (sys_.var_names[j], net))
    const = sum(d * c.rhs for d, c in zip(cert.duals, sys_.constraints)) / t_total
    if const != cert.bound:
        reasons.append("combination yields %s, certificate claims %s"
                       % (format_rational(const), format_rational(cert.bound)))
    return VerificationResult(not reasons, reasons)


def _simplex_max(obj, rows, rhs):
    """Maximize obj.y for rows.y <= rhs, y >= 0 (rhs >= 0), by Bland's rule.

    Returns (value, y, reduced_slack) where reduced_slack holds the final
    objective-row entries under the slack columns.
    """
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
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise LPInternalError("pivot limit exceeded")
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j
                break
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
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    y = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            y[b] = tab[i][width]
    value = sum(o * yy for o, yy in zip(obj, y))
    reduced_slack = [cost[k + i] for i in range(m)]
    return value, y, reduced_slack


def solve_min_ratio(system):
    """Minimize t over the system by exact simplex on the dual.

    The dual starts feasible at y = 0, so no phase-1 is needed.  The optimal
    multipliers are returned as a certificate together with the primal point,
    and both sides are re-checked before returning.
    """
    k = len(system.constraints)
    nv = 1 + system.nvars
    # dual: maximize b.y subject to A^T y <= c, y >= 0 with c = e_t
    obj = [c.rhs for c in system.constraints]
    rows = []
    rhs = []
    rows.append([c.t_coeff for c in system.constraints])
    rhs.append(Fraction(1))
    for j in range(system.nvars):
        rows.append([c.a_coeffs[j] for c in system.constraints])
        rhs.append(Fraction(0))
    value, duals, primal = _simplex_max(obj, rows, rhs)
    cert = LowerBoundCertificate(value, duals, system, primal=tuple(primal))
    _audit_solution(system, cert)
    return cert


def _audit_solution(system, cert):
    x = cert.primal
    if len(x) != 1 + system.nvars or any(v < 0 for v in x):
        raise LPInternalError("primal point malformed")
    for c in system.constraints:
        lhs = c.t_coeff * x[0] + sum(a * v for a, v in zip(c.a_coeffs, x[1:]))
        if lhs < c.rhs:
            raise LPInternalError("primal point violates %r" % c.label)
    if x[0] != cert.bound:
        raise LPInternalError("primal objective differs from dual value")
    check = verify_certificate(cert)
    if not check:
        raise LPInternalError("optimal duals fail verification: %s" % check.reasons)
