"""Bezout-decomposition inequality systems and exact rational LP certificates."""

from fractions import Fraction
from math import lcm

from .geometry import contains, is_irreducible_conic, is_smooth_cubic
from .linalg import format_rational, parse_rational, require_int


class UnverifiedCurveError(ValueError):
    pass


class ProportionalCurvesError(ValueError):
    pass


class LPInternalError(RuntimeError):
    pass


class Constraint:
    """Affine inequality t_coeff*t + sum(a_coeffs[j]*a_j) >= rhs, all ints.

    Integer data keeps the simplex fraction-free; a Fraction or a bool raises
    TypeError rather than being floor-divided later.
    """

    __slots__ = ("label", "t_coeff", "a_coeffs", "rhs")

    def __init__(self, label, t_coeff, a_coeffs, rhs):
        self.label = label
        self.t_coeff = require_int(t_coeff, "t coefficient")
        self.a_coeffs = tuple(require_int(c, "a coefficient") for c in a_coeffs)
        self.rhs = require_int(rhs, "right-hand side")


class BezoutSystem:
    """Inequality system over (t, a_1..a_r) normalized to multiplicity 1."""

    def __init__(self, var_names, constraints, note=None):
        self.var_names = list(var_names)
        self.constraints = list(constraints)
        self.note = note

    @property
    def nvars(self):
        return len(self.var_names)


def build_system(points, curves, labels=None):
    """Bezout inequality system for the points at multiplicity 1 and admitted curves.

    Repeated curves are rejected first, then any curve that is not a line,
    an irreducible conic or a smooth cubic (a smooth cubic is irreducible).
    One degree constraint t - sum(d_j a_j) >= 0 plus, for every curve j,
    d_j*t + sum_l(sum_i m_ij m_il - d_j d_l) a_l >= sum_i m_ij, with m_ij the
    multiplicity of curve j at point i.  Relaxing the decomposition integers
    to nonnegative rationals only enlarges the feasible set, so the minimum
    stays a valid lower bound.

    Every admitted curve is smooth, so m_ij is 1 where the curve vanishes
    and 0 elsewhere.  A point of multiplicity >= 2 is a common zero of the
    three first partials.  A line's partials are its coefficients, not all
    zero.  A conic's are its symmetric matrix times the point, and that
    matrix is nonsingular exactly when the conic is irreducible, so it sends
    no point to zero.  A smooth cubic's partials share no zero by
    definition.  With no curve through any point every right-hand side is 0
    and the system bounds nothing, so it is rejected with a ValueError.
    """
    seen = set()
    for idx, curve in enumerate(curves):
        if curve in seen:
            raise ProportionalCurvesError("curve %d repeats an earlier curve" % idx)
        seen.add(curve)
    labels = labels or ["curve %d" % (idx + 1) for idx in range(len(curves))]
    for idx, c in enumerate(curves):
        if not (c.degree == 1 or (c.degree == 2 and is_irreducible_conic(c))
                or (c.degree == 3 and is_smooth_cubic(c))):
            raise UnverifiedCurveError("curve %r is not a line, an irreducible conic "
                                       "or a smooth cubic" % labels[idx])
    degs = [c.degree for c in curves]
    mrows = [[int(contains(c, p)) for p in points] for c in curves]
    if not any(map(any, mrows)):
        raise ValueError("no curve passes through any of the points")
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


def _over_common_denominator(values):
    """(nums, den) with nums[i] / den == values[i], den the least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def verify_certificate(cert):
    """Audit a lower-bound certificate independently of any solver.

    The dual combination must have positive t coefficient, nonpositive net
    coefficient on every a_j (absorbed by a_j >= 0), and, after normalizing
    the t coefficient to 1, constant term equal to the claimed bound.
    Multipliers are accepted up to overall positive scaling, so they are
    scaled once by their common denominator and the sums run over ints.
    """
    reasons = []
    sys_ = cert.system
    if len(cert.duals) != len(sys_.constraints):
        return VerificationResult(False, ["dual count differs from constraint count"])
    duals, den = _over_common_denominator(cert.duals)
    if any(d < 0 for d in duals):
        reasons.append("negative multiplier")
    t_total = sum(d * c.t_coeff for d, c in zip(duals, sys_.constraints))
    if t_total <= 0:
        reasons.append("combined t coefficient is not positive")
        return VerificationResult(False, reasons)
    for j in range(sys_.nvars):
        net = sum(d * c.a_coeffs[j] for d, c in zip(duals, sys_.constraints))
        if net > 0:
            reasons.append("variable %s has positive net coefficient %s"
                           % (sys_.var_names[j], Fraction(net, den)))
    const = Fraction(sum(d * c.rhs for d, c in zip(duals, sys_.constraints)), t_total)
    if const != cert.bound:
        reasons.append("combination yields %s, certificate claims %s"
                       % (format_rational(const), format_rational(cert.bound)))
    return VerificationResult(not reasons, reasons)


def _simplex_max(obj, rows, rhs):
    """Maximize obj.y for rows.y <= rhs, y >= 0 (int data, rhs >= 0), by Bland's rule.

    Returns (value, y, reduced_slack) as Fractions, where reduced_slack holds
    the final objective-row entries under the slack columns.

    The pivoting is fraction-free (Edmonds, J. Res. NBS 71B, 1967): the
    tableau and cost row hold ints over one common denominator den, the
    previous pivot.  A pivot leaves its own row as it is and maps every other
    row x to (x*piv - f*y) // den, with f the row's entry in the pivot column
    and y the pivot row; the division is exact, since every entry is a minor
    of the initial tableau.  Pivots are positive, so den is too: signs, and
    ratios compared by cross-multiplication, read as on the rational tableau,
    and the pivot sequence is the one exact rational pivoting takes.
    """
    m = len(rows)
    k = len(obj)
    width = k + m
    tab = []
    for i in range(m):
        row = list(rows[i]) + [0] * m + [rhs[i]]
        row[k + i] = 1
        tab.append(row)
    cost = [-c for c in obj] + [0] * (m + 1)
    basis = list(range(k, k + m))
    den = 1
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
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # ratio_i < ratio_leave, both pivot entries positive
                lhs = tab[i][width] * tab[leave][enter]
                rhs_ = tab[leave][width] * a
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise LPInternalError("dual LP unbounded: primal system infeasible")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            if i != leave:
                tab[i] = _pivot_row(tab[i], prow, enter, piv, den)
        cost = _pivot_row(cost, prow, enter, piv, den)
        basis[leave] = enter
        den = piv
    y = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            y[b] = Fraction(tab[i][width], den)
    value = Fraction(sum(obj[b] * tab[i][width] for i, b in enumerate(basis) if b < k), den)
    reduced_slack = [Fraction(cost[k + i], den) for i in range(m)]
    return value, y, reduced_slack


def _pivot_row(row, prow, enter, piv, den):
    """One fraction-free row update: (x*piv - f*y) // den over the row."""
    f = row[enter]
    if f:
        return [(x * piv - f * y) // den for x, y in zip(row, prow)]
    if piv == den:
        return row
    return [x * piv // den for x in row]


def solve_min_ratio(system):
    """Minimize t over the system by exact simplex on the dual.

    The dual starts feasible at y = 0, so no phase-1 is needed.  The optimal
    multipliers are returned as a certificate together with the primal point,
    and both sides are re-checked before returning.
    """
    cons = system.constraints
    # dual: maximize b.y subject to A^T y <= c, y >= 0 with c = e_t
    obj = [c.rhs for c in cons]
    rows = [[c.t_coeff for c in cons]] + [[c.a_coeffs[j] for c in cons]
                                          for j in range(system.nvars)]
    rhs = [1] + [0] * system.nvars
    value, duals, primal = _simplex_max(obj, rows, rhs)
    cert = LowerBoundCertificate(value, duals, system, primal=tuple(primal))
    _audit_solution(system, cert)
    return cert


def _audit_solution(system, cert):
    """Check the primal point against every constraint and the dual value, and
    the duals by verify_certificate; the point is scaled once to ints."""
    x = cert.primal
    if len(x) != 1 + system.nvars or any(v < 0 for v in x):
        raise LPInternalError("primal point malformed")
    nums, den = _over_common_denominator(x)
    t, rest = nums[0], nums[1:]
    for c in system.constraints:
        if c.t_coeff * t + sum(a * v for a, v in zip(c.a_coeffs, rest)) < c.rhs * den:
            raise LPInternalError("primal point violates %r" % c.label)
    if x[0] != cert.bound:
        raise LPInternalError("primal objective differs from dual value")
    check = verify_certificate(cert)
    if not check:
        raise LPInternalError("optimal duals fail verification: %s" % check.reasons)
