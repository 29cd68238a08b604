"""Decision tables mapping point configurations to certified constants or brackets.

Each table matcher returns a `Row` (a list of candidate rows for one family)
naming the auxiliary curves of its LP and the divisor of its upper bound, or
None when its family does not apply.  Unmatched inputs get the `_fallback` row,
whose upper bound is a sweep.  `_certify` is the only place where rows meet
the LP and the upper-bound check.
"""

from fractions import Fraction
from itertools import combinations

from .bezout import UnverifiedCurveError, build_system, solve_min_ratio
from .engine import Engine, FormalDivisor, verify_upper
from .fatpoints import FatPointScheme, interpolation_matrix
from .geometry import (GeometryError, PlaneCurve, conic_through, cubic_with_double_point,
                       incidence_profile, is_smooth_cubic, line_through)
from .linalg import format_rational, nullspace

RULES = {
    "all-collinear": "every point lies on one line; the constant is 1",
    "all-but-one-collinear": "exactly n-1 points on a line; the constant is (2n-3)/(n-1)",
    "all-but-two-collinear": "exactly n-2 points on a line; the constant is 2",
    "residual-triple-collinear": "n-3 points on a line and the three residual "
                                 "points collinear off it; the constant is 2",
    "line7/three-side-points": "four points on the carrier line, three of them on "
                               "the sides of the residual triangle; 16/7",
    "line7/two-side-points": "exactly two carrier points on triangle sides; 7/3",
    "line7/one-side-point": "exactly one carrier point on a triangle side; 17/7",
    "line-n/extended-free-points": "at least four carrier points avoid the "
                                   "triangle sides; 5/2",
    "line8/three-side-points": "three side points and two free carrier points; 7/3",
    "line8/two-side-points": "two side points and three free carrier points; 17/7",
    "line9/three-side-points": "three side points and three free carrier points; 17/7",
    "conic6/three-concurrent-chords": "six points on an irreducible conic, the "
                                      "external point on three concurrent chords; 7/3",
    "conic6/generic-external": "six points on an irreducible conic, external point "
                               "on at most two chords; 5/2",
    "conic7/three-concurrent-chords": "seven conic points, external point on three "
                                      "concurrent chords; 5/2",
    "conic7/two-chords": "seven conic points, external point on exactly two chords; 13/5",
    "conic7/one-chord": "seven conic points, external point on exactly one chord; 13/5",
    "conic7/no-chord": "seven conic points, external point on no chord; at least 13/5",
    "conic8/four-concurrent-chords": "eight conic points, external point on four "
                                     "concurrent chords; 5/2",
    "conic8/low-concurrency": "eight conic points, no four concurrent chords at the "
                              "external point; at least 13/5",
    "conic-many/external": "nine or more conic points plus an external point; "
                           "at least 13/5, never 5/2",
    "cubic9/smooth": "nine points on a smooth (hence irreducible) cubic; exactly 3",
    "nine/7conic+2/plain-external": "seven conic points, some external point off "
                                    "every triple-chord intersection; at least 13/5",
    "nine/7conic+2/common-chord-overlap3": "both externals on concurrent chord "
                                           "triples sharing a chord, extra chords "
                                           "covering five conic points; at least 45/17",
    "nine/7conic+2/common-chord-overlap4": "both externals on concurrent chord "
                                           "triples sharing a chord, extra chords "
                                           "covering four conic points; at least 18/7",
    "nine/7conic+2/disjoint-triples": "both externals on concurrent chord triples "
                                      "with no common chord; at least 122/43",
    "nine/6conic+3/line-avoids-conic": "six conic points and three on a line missing "
                                       "the conic; exactly 3",
    "nine/6conic+3/one-shared-point": "the carrier line meets the conic in one of "
                                      "the six points; between 58/23 and 3",
    "nine/6conic+3/two-shared/free-point-plain": "a line point off the chord "
                                                 "arrangement, its conic missing the "
                                                 "other line points; at least 13/5",
    "nine/6conic+3/two-shared/free-point-conjugate": "a line point off the chord "
                                                     "arrangement, its conic hitting "
                                                     "a second line point; at least 53/21",
    "nine/6conic+3/two-shared/all-on-single-chords": "all three line points on single "
                                                     "chords of the four off-line conic "
                                                     "points; at least 13/5",
    "nine/6conic+3/two-shared/one-double-chord-point": "one line point at a chord "
                                                       "crossing, the other two on the "
                                                       "complementary chord pair; exactly 13/5",
    "nine/6conic+3/two-shared/two-double-chord-points": "two line points at chord "
                                                        "crossings; at least 59/23",
    "nine/5conic+4line": "five conic points and four on a line; LP floor above 14/5",
    "fallback/bounds": "no table row matched; generated-curve LP plus sweep bracket",
}


UNSETTLED = "exact value not settled for this family"
OFF_TABLE = "chord pattern outside the tabulated figures; certified LP bound reported"
SUBSET_NOTES = {7: "restricted to a seven-point subset",
                8: "restricted to an eight-point subset"}
# most auxiliary curves the fallback LP takes: lines first, then conics
AUX_CAP = 40


class InconsistencyError(RuntimeError):
    """A certified lower bound exceeded a certified upper bound."""


class ClassificationResult:
    """Family verdict with exact value or bracket and attached certificates."""

    def __init__(self, family, exact, lower, upper, certificates, notes):
        self.family = family
        self.exact = exact
        self.lower = lower
        self.upper = upper
        self.certificates = certificates
        self.notes = list(notes)

    @property
    def citations(self):
        return [(self.family, RULES[self.family])]

    def to_json(self):
        value = ({"exact": format_rational(self.exact)} if self.exact is not None
                 else {"lower": format_rational(self.lower),
                       "upper": format_rational(self.upper)})
        certs = {}
        lower_cert = self.certificates.get("lower")
        if lower_cert is not None:
            certs["lower"] = lower_cert.to_json()
        upper = self.certificates.get("upper")
        if upper is not None:
            ratio, divisor = upper
            certs["upper"] = {"ratio": format_rational(ratio),
                              "divisor": divisor.to_json()}
        sweep_entries = self.certificates.get("sweep")
        if sweep_entries:
            certs["sweep"] = [e.to_json() for e in sweep_entries]
        return {"family": self.family, "value": value,
                "citations": [{"loc": loc, "quote": quote}
                              for loc, quote in self.citations],
                "certificates": certs, "notes": self.notes}


class Row:
    """A matched table row: LP curves for the lower bound, a divisor for the upper.

    value is the table constant when exact, else the table floor (None when
    the table states none).  subset restricts the LP to some of the points;
    the divisor of multiplicity m always covers all of them.  A row with no
    divisor takes its upper bound from a sweep.
    """

    def __init__(self, rule, value, curves, labels, divisor, m, exact=True,
                 subset=None, notes=()):
        self.rule = rule
        self.value = value
        self.exact = exact
        self.curves = curves
        self.labels = labels
        self.divisor = divisor
        self.m = m
        self.subset = subset
        self.notes = list(notes)


def _lp_lower(points, curves, labels, subset=None):
    """LP bound over all the points, or over subset when one is given."""
    system = build_system(subset or points, curves, labels)
    if subset and len(subset) < len(points):
        system.note = SUBSET_NOTES[len(subset)]
    return solve_min_ratio(system)


def _certify(points, rows, m_max):
    """Certify a row, or the candidate row with the highest LP bound.

    The upper bound is the row's divisor, or without one the least ratio of a
    sweep to m_max hinted by the LP bound.  A table row's verdict is exact
    only when the LP bound and the upper bound both equal the table value;
    a row with no value is exact when its two bounds meet.  Otherwise the two
    certificates bracket it.
    """
    if isinstance(rows, Row):
        rows = [rows]
    cert, row = max(((_lp_lower(points, r.curves, r.labels, r.subset), r)
                     for r in rows),
                    key=lambda pair: pair[0].bound)
    if row.divisor is None:
        trace = Engine().sweep(points, m_max, lower_hint=cert.bound)
        upper = min(e.ratio for e in trace)
        certificates = {"lower": cert, "sweep": trace}
    else:
        divisor = FormalDivisor(row.divisor, row.m)
        upper = verify_upper(divisor, FatPointScheme.uniform(points, row.m))
        certificates = {"lower": cert, "upper": (upper, divisor)}
    if cert.bound > upper:
        raise InconsistencyError("lower %s exceeds upper %s"
                                 % (format_rational(cert.bound), format_rational(upper)))
    notes = list(row.notes)
    exact = None
    if row.exact and cert.bound == upper and (row.value is None or row.value == upper):
        exact = upper
    elif row.exact and row.value is not None:
        notes.append("certificates bracket [%s, %s] instead of the table value %s"
                     % (format_rational(cert.bound), format_rational(upper),
                        format_rational(row.value)))
    elif row.value is not None and cert.bound != row.value:
        notes.append("certified LP bound %s differs from the table floor %s"
                     % (format_rational(cert.bound), format_rational(row.value)))
    return ClassificationResult(row.rule, exact, cert.bound, upper, certificates, notes)


def classify(points, m_max=2):
    """Match a configuration against the decision tables, certifying the verdict.

    Matchers are tried in order of increasing generality (collinear families,
    conic-plus-external families, nine-point cubic and conic/line splits); the
    first match wins.  A matcher whose construction turns out degenerate is
    skipped, and the reason is appended to the notes of the final result.
    Unmatched inputs go to generated-curve LP bounds plus a sweep of depth
    m_max.  Every exact verdict carries a verified multiplier certificate and
    a verified divisor construction of the same value.
    """
    points = list(points)
    if len(points) < 2:
        raise GeometryError("need at least two points")
    prof = incidence_profile(points)
    rejected = []
    for matcher in MATCHERS:
        try:
            rows = matcher(points, prof)
            if rows:
                res = _certify(points, rows, m_max)
                break
        except (GeometryError, UnverifiedCurveError) as exc:
            rejected.append("%s rejected: %s" % (matcher.__name__.lstrip("_"), exc))
    else:
        res = _certify(points, _fallback(prof), m_max)
    res.notes += rejected
    return res


# ---------------------------------------------------------------- collinear table

def _table_collinear(points, prof):
    n = len(points)
    k = prof.max_collinear
    if n < 7 or k < n - 3:
        return None
    line = prof.witness_line
    on = prof.lines[line]
    on_line = [points[i] for i in on]
    rest_idx = [i for i in range(n) if i not in on]
    rest = [points[i] for i in rest_idx]

    if k == n:
        return Row("all-collinear", Fraction(1), [line], ["L"], [(line, 1)], 1)

    if k == n - 1:
        spokes = [line_through(rest[0], p) for p in on_line]
        return Row("all-but-one-collinear", Fraction(2 * n - 3, n - 1), [line] + spokes,
                   ["L"] + ["Q-spoke %d" % i for i in range(len(spokes))],
                   [(line, n - 2)] + [(s, 1) for s in spokes], n - 1)

    cross = line_through(rest[0], rest[1])
    if k == n - 2 or rest_idx[2] in prof.lines[cross]:
        rule = "all-but-two-collinear" if k == n - 2 else "residual-triple-collinear"
        return Row(rule, Fraction(2), [line, cross], ["L", "residual line"],
                   [(line, 1), (cross, 1)], 1)

    # n - 3 carrier points and a residual triangle q1 q2 q3
    q1, q2, q3 = rest
    sides = [line_through(q2, q3), line_through(q1, q3), cross]
    side_labels = ["side 1", "side 2", "side 3"]
    side_pts = [points[i] for i in on if any(i in prof.lines[s] for s in sides)]
    free = [p for p in on_line if p not in side_pts]
    # each side meets the carrier once, so q <= 3; with k >= 4 the rows
    # below cover every (q, k) with fewer than four free carrier points
    q = len(side_pts)

    if k - q >= 4:
        return Row("line-n/extended-free-points", Fraction(5, 2), sides + [line],
                   side_labels + ["L"], [(s, 1) for s in sides] + [(line, 2)], 2,
                   subset=free[:4] + rest)

    if (q, k) == (3, 4):
        spokes = [line_through(free[0], qq) for qq in rest]
        return Row("line7/three-side-points", Fraction(16, 7), sides + [line] + spokes,
                   side_labels + ["L", "spoke 1", "spoke 2", "spoke 3"],
                   [(s, 1) for s in spokes] + [(s, 3) for s in sides] + [(line, 4)], 7)

    if (q, k) in ((3, 5), (2, 4)):
        conic = conic_through(rest + free[:2])
        if q == 2:
            rule, subset = "line7/two-side-points", None
        else:
            rule, subset = ("line8/three-side-points",
                            [p for p in points if p != side_pts[0]])
        return Row(rule, Fraction(7, 3), sides + [line, conic],
                   side_labels + ["L", "conic"],
                   [(s, 1) for s in sides] + [(conic, 1), (line, 2)], 3, subset=subset)

    # the remaining rows all certify 17/7 through the three-free-point systems
    rule = {(1, 4): "line7/one-side-point", (2, 5): "line8/two-side-points",
            (3, 6): "line9/three-side-points"}[(q, k)]
    conics = [conic_through(rest + [free[i], free[j]])
              for i, j in ((1, 2), (0, 2), (0, 1))]
    return Row(rule, Fraction(17, 7), conics + sides + [line],
               ["conic 1", "conic 2", "conic 3"] + side_labels + ["L"],
               [(c, 1) for c in conics] + [(s, 2) for s in sides] + [(line, 5)], 7,
               subset=free + rest + side_pts[:1])


# ---------------------------------------------------------- conic + external table

def _chords(points, prof, i, among):
    """prof.chords(i, among) with the members as points."""
    return [(ln, [points[k] for k in mem]) for ln, mem in prof.chords(i, among)]


def _aux_for_low_concurrency(conic_pts, q, conic, chords):
    """Curves certifying 13/5 for seven conic points and an external q on the
    chords (at most two) through it."""
    c = len(chords)
    if c == 2:
        (k1, e1), (k2, e2) = chords
        others = [p for p in conic_pts if p not in e1 and p not in e2]
        c1 = conic_through([e2[0]] + others + [q])
        c2 = conic_through([e2[1]] + others + [q])
        return ([c1, c2, k1, k2, conic],
                ["conic 1", "conic 2", "chord 1", "chord 2", "carrier"])
    if c == 1:
        (k1, e1), = chords
        others = [p for p in conic_pts if p not in e1]
        curves = [conic_through([others[j] for j in range(5) if j != i] + [q])
                  for i in range(5)]
        return (curves + [k1, conic],
                ["conic %d" % (i + 1) for i in range(5)] + ["chord", "carrier"])
    spokes = [line_through(p, q) for p in conic_pts[:3]]
    c1 = conic_through(conic_pts[3:] + [q])
    return ([c1] + spokes + [conic],
            ["conic 1", "spoke 1", "spoke 2", "spoke 3", "carrier"])


def _aux_for_type2(conic_pts, q, conic, chords):
    c = len(chords)
    if c == 0:
        pairs = [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5)]
        curves = [conic_through([conic_pts[i] for i in idx] + [q]) for idx in pairs]
        return curves + [conic], ["conic 1", "conic 2", "conic 3", "carrier"]
    if c == 1:
        k1, e1 = chords[0]
        others = [p for p in conic_pts if p not in e1]
        return [k1, conic_through(others + [q]), conic], ["chord", "conic 1", "carrier"]
    (k1, e1), (k2, e2) = chords[:2]
    leftover = [p for p in conic_pts if p not in e1 and p not in e2]
    return ([k1, k2, line_through(leftover[0], q), line_through(leftover[1], q), conic],
            ["chord 1", "chord 2", "spoke 1", "spoke 2", "carrier"])


def _seven_point_subset(conic_pts, chords, q):
    """Seven conic points keeping at most two chords through the external point."""
    kept_chords = chords[:2]
    kept = []
    for _, mem in kept_chords:
        kept.extend(mem)
    for _, mem in chords[2:]:
        kept.append(mem[0])
    chord_members = {p for _, mem in chords for p in mem}
    for p in conic_pts:
        if len(kept) >= 7:
            break
        if p not in chord_members:
            kept.append(p)
    if len(kept) < 7:
        raise GeometryError("cannot build the seven-point subset")
    kept = kept[:7]
    return kept + [q], kept


def _table_conic_external(points, prof):
    # the profile lists only conics through six or more points, so n >= 7
    n = len(points)
    group = next(((members, conic) for members, conic in prof.conic_subsets
                  if len(members) == n - 1), None)
    if group is None:
        return None
    members, conic = group
    conic_pts = [points[i] for i in members]
    qi = next(i for i in range(n) if i not in members)
    q = points[qi]
    chords = _chords(points, prof, qi, members)
    c = len(chords)

    if n == 7 and c >= 3:
        lines = [ln for ln, _ in chords[:3]]
        return Row("conic6/three-concurrent-chords", Fraction(7, 3), lines + [conic],
                   ["chord 1", "chord 2", "chord 3", "carrier"],
                   [(ln, 1) for ln in lines] + [(conic, 2)], 3)
    if n == 7:
        cubic = cubic_with_double_point(conic_pts, q)
        curves, labels = _aux_for_type2(conic_pts, q, conic, chords)
        return Row("conic6/generic-external", Fraction(5, 2), curves, labels,
                   [(cubic, 1), (conic, 1)], 2)

    if n == 8 and c >= 3:
        kept = chords[:2]
        widow_chord, widow_members = chords[2]
        leftover = [p for p in conic_pts if all(p not in mem for _, mem in chords)]
        spoke = line_through(leftover[0], q)
        return Row("conic7/three-concurrent-chords", Fraction(5, 2),
                   [kept[0][0], kept[1][0], line_through(widow_members[0], q), spoke,
                    conic],
                   ["chord 1", "chord 2", "spoke 1", "spoke 2", "carrier"],
                   [(kept[0][0], 1), (kept[1][0], 1), (widow_chord, 1), (spoke, 1),
                    (conic, 3)], 4,
                   subset=([p for _, mem in kept for p in mem] + [widow_members[0]]
                           + leftover + [q]))
    if n == 8:
        curves, labels = _aux_for_low_concurrency(conic_pts, q, conic, chords)
        if c == 2:
            (k1, _), (k2, _) = chords
            return Row("conic7/two-chords", Fraction(13, 5), curves, labels,
                       [(curves[0], 1), (curves[1], 1), (k1, 2), (k2, 1), (conic, 3)], 5)
        if c == 1:
            (k1, e1), = chords
            others = [p for p in conic_pts if p not in e1]
            cub1 = cubic_with_double_point(others + [e1[0]], q)
            cub2 = cubic_with_double_point(others + [e1[1]], q)
            return Row("conic7/one-chord", Fraction(13, 5), curves, labels,
                       [(cub1, 1), (cub2, 1), (k1, 1), (conic, 3)], 5)
        return Row("conic7/no-chord", Fraction(13, 5), curves, labels,
                   [(conic, 1), (line_through(q, conic_pts[0]), 1)], 1,
                   exact=False, notes=[UNSETTLED])

    if n == 9 and c >= 4:
        kept = chords[:2]
        widows = [chords[2][1][0], chords[3][1][0]]
        return Row("conic8/four-concurrent-chords", Fraction(5, 2),
                   [kept[0][0], kept[1][0], line_through(widows[0], q),
                    line_through(widows[1], q), conic],
                   ["chord 1", "chord 2", "spoke 1", "spoke 2", "carrier"],
                   [(ln, 1) for ln, _ in chords[:4]] + [(conic, 3)], 4,
                   subset=[p for _, mem in kept for p in mem] + widows + [q])

    subset_pts, sub_conic_pts = _seven_point_subset(conic_pts, chords, q)
    # the subset keeps chords[:2] whole and one end of every other chord
    curves, labels = _aux_for_low_concurrency(sub_conic_pts, q, conic, chords[:2])
    rule = "conic8/low-concurrency" if n == 9 else "conic-many/external"
    return Row(rule, Fraction(13, 5), curves, labels,
               [(conic, 1), (line_through(q, conic_pts[0]), 1)], 1, exact=False,
               subset=subset_pts, notes=[UNSETTLED])


# ----------------------------------------------------------------- nine-point table

def _cubic9(points, prof):
    if len(points) != 9:
        return None
    cubics = nullspace(interpolation_matrix(FatPointScheme.uniform(points, 1), 3))
    if len(cubics) != 1:
        return None
    cubic = PlaneCurve(3, cubics[0])
    if not is_smooth_cubic(cubic):
        return None
    return Row("cubic9/smooth", Fraction(3), [cubic], ["cubic"], [(cubic, 1)], 1)


def _nine_seven_two(points, prof):
    # a profile conic holds every input point on it, so both externals are off it
    group = next((g for g in prof.conic_subsets if len(g[0]) == 7), None)
    if len(points) != 9 or group is None:
        return None
    members, conic = group
    conic_pts = [points[i] for i in members]
    i1, i2 = [i for i in range(len(points)) if i not in members]
    e1, e2 = points[i1], points[i2]
    chords1 = _chords(points, prof, i1, members)
    chords2 = _chords(points, prof, i2, members)
    divisor = [(conic, 1), (line_through(e1, e2), 1)]
    if len(chords1) <= 2 or len(chords2) <= 2:
        plainer, chords = (e1, chords1) if len(chords1) <= 2 else (e2, chords2)
        curves, labels = _aux_for_low_concurrency(conic_pts, plainer, conic, chords)
        return Row("nine/7conic+2/plain-external", Fraction(13, 5), curves, labels,
                   divisor, 1, exact=False, subset=conic_pts + [plainer],
                   notes=[UNSETTLED])
    all_chords = list(dict.fromkeys(ln for ln, _ in chords1 + chords2))
    curves = [conic] + all_chords
    labels = ["carrier"] + ["chord %d" % (i + 1) for i in range(len(all_chords))]
    common = {ln for ln, _ in chords1} & {ln for ln, _ in chords2}
    if common:
        ends1 = {p for ln, mem in chords1 if ln not in common for p in mem}
        ends2 = {p for ln, mem in chords2 if ln not in common for p in mem}
        if len(ends1 & ends2) == 3:
            rule, floor = "nine/7conic+2/common-chord-overlap3", Fraction(45, 17)
        else:
            rule, floor = "nine/7conic+2/common-chord-overlap4", Fraction(18, 7)
        return Row(rule, floor, curves, labels, divisor, 1, exact=False,
                   notes=[UNSETTLED])
    missed1 = [p for p in conic_pts if all(p not in mem for _, mem in chords1)]
    missed2 = [p for p in conic_pts if all(p not in mem for _, mem in chords2)]
    floor, note = None, OFF_TABLE
    if missed1 and missed2 and missed1[0] != missed2[0]:
        floor, note = Fraction(122, 43), UNSETTLED
    return Row("nine/7conic+2/disjoint-triples", floor, curves, labels, divisor, 1,
               exact=False, notes=[note])


def _nine_six_three(points, prof):
    if len(points) != 9:
        return None
    for members, conic in prof.conic_subsets:
        if len(members) == 6:
            rows = _nine63_rows(points, prof, members, conic)
            if rows:
                return rows
    return None


def _nine63_rows(points, prof, members, conic):
    # the three points off the conic must lie on one line, which meets the
    # irreducible conic in at most two of its six points
    line_idx = [i for i in range(len(points)) if i not in members]
    line_pts = [points[i] for i in line_idx]
    ln = line_through(line_pts[0], line_pts[1])
    on_ln = prof.lines[ln]
    if line_idx[2] not in on_ln:
        return None
    shared = [i for i in members if i in on_ln]
    divisor = [(conic, 1), (ln, 1)]
    if not shared:
        return Row("nine/6conic+3/line-avoids-conic", Fraction(3), [conic, ln],
                   ["carrier", "line"], divisor, 1)
    if len(shared) == 1:
        return Row("nine/6conic+3/one-shared-point", Fraction(58, 23), [conic, ln],
                   ["carrier", "line"], divisor, 1, exact=False, notes=[UNSETTLED])
    four = [points[i] for i in members if i not in on_ln]
    chord_map = {(i, j): line_through(four[i], four[j])
                 for i, j in combinations(range(4), 2)}
    on_chords = {p: [key for key, cv in chord_map.items() if i in prof.lines[cv]]
                 for i, p in zip(line_idx, line_pts)}
    off_h = [p for p in line_pts if not on_chords[p]]
    diag = [p for p in line_pts if len(on_chords[p]) >= 2]

    def on_conic(cv):
        # the companion conics have no three of their five points collinear,
        # so each is irreducible and a key of prof.conics
        return [points[k] for k in prof.conics[cv]]

    if off_h:
        return _nine63_sub1(conic, ln, four, line_pts, off_h, on_conic)
    if not diag:
        return _nine63_sub2(conic, ln, four, line_pts, on_chords, on_conic)
    if len(diag) == 1:
        return _nine63_sub3(conic, ln, line_pts, chord_map, on_chords, diag[0])
    return _nine63_sub4(conic, ln, line_pts, chord_map, on_chords, diag)


def _nine63_sub1(conic, ln, four, line_pts, off_h, on_conic):
    # a point off every chord of `four` leaves no three of the five collinear,
    # so each companion conic is unique and irreducible
    rows = []
    for e in off_h:
        second = conic_through(four + [e])
        if any(p != e and p in line_pts for p in on_conic(second)):
            rule, floor = "nine/6conic+3/two-shared/free-point-conjugate", Fraction(53, 21)
        else:
            rule, floor = "nine/6conic+3/two-shared/free-point-plain", Fraction(13, 5)
        rows.append(Row(rule, floor, [conic, second, ln],
                        ["carrier", "companion conic", "line"], [(conic, 1), (ln, 1)], 1,
                        exact=False, notes=[UNSETTLED]))
    return rows


def _nine63_sub2(conic, ln, four, line_pts, on_chords, on_conic):
    for pa, pb in combinations(line_pts, 2):
        common = set(on_chords[pa][0]) & set(on_chords[pb][0])
        if common:
            j = common.pop()
            i = (set(on_chords[pa][0]) - {j}).pop()
            kq = (set(on_chords[pb][0]) - {j}).pop()
            e = (set(range(4)) - {i, j, kq}).pop()
            break
    else:
        return None
    # each line point lies on one chord, never on a chord among four[i, kq, e]
    second = conic_through([four[i], four[kq], four[e], pa, pb])
    if four[j] in on_conic(second):
        return None
    return Row("nine/6conic+3/two-shared/all-on-single-chords", Fraction(13, 5),
               [conic, second, ln], ["carrier", "companion conic", "line"],
               [(conic, 1), (ln, 1)], 1, exact=False, notes=[UNSETTLED])


def _nine63_sub3(conic, ln, line_pts, chord_map, on_chords, dbl):
    rule = "nine/6conic+3/two-shared/one-double-chord-point"
    rest_pairs = [on_chords[p][0] for p in line_pts if p != dbl]
    if set(rest_pairs[0]) | set(rest_pairs[1]) == set(range(4)):
        d1, d2 = (chord_map[key] for key in on_chords[dbl][:2])
        c8, c9 = (chord_map[key] for key in rest_pairs)
        return Row(rule, Fraction(13, 5), [conic, ln, c8, c9, d1, d2],
                   ["carrier", "line", "single chord 1", "single chord 2",
                    "double chord 1", "double chord 2"],
                   [(d1, 1), (d2, 1), (c8, 2), (c9, 2), (ln, 3), (conic, 2)], 5,
                   notes=["companion mirrored configuration certified identically"])
    return Row(rule, None, [conic, ln], ["carrier", "line"], [(conic, 1), (ln, 1)], 1,
               exact=False, notes=[OFF_TABLE])


def _nine63_sub4(conic, ln, line_pts, chord_map, on_chords, diag):
    # three diagonal points of a quadrangle are never collinear over Q
    single = next(p for p in line_pts if p not in diag)
    d1a, d1b = (chord_map[key] for key in on_chords[diag[0]][:2])
    d2a, d2b = (chord_map[key] for key in on_chords[diag[1]][:2])
    s1 = chord_map[on_chords[single][0]]
    return Row("nine/6conic+3/two-shared/two-double-chord-points", Fraction(59, 23),
               [conic, ln, d1a, d1b, d2a, d2b, s1],
               ["carrier", "line", "cross 1a", "cross 1b", "cross 2a", "cross 2b",
                "single chord"],
               [(conic, 1), (ln, 1)], 1, exact=False, notes=[UNSETTLED])


def _nine_five_four(points, prof):
    if len(points) != 9:
        return None
    for members, ln in prof.collinear_groups:
        if len(members) != 4:
            continue
        # an irreducible conic through the five others that misses the line points
        others = tuple(i for i in range(len(points)) if i not in members)
        conic = next((c for c, on in prof.conics.items() if on == others), None)
        if conic is None:
            continue
        return Row("nine/5conic+4line", Fraction(23, 8), [conic, ln], ["carrier", "line"],
                   [(conic, 1), (ln, 1)], 1, exact=False,
                   notes=["table floor 14/5; the LP optimum 23/8 is the certified bound"])
    return None


MATCHERS = [_table_collinear, _table_conic_external, _cubic9, _nine_seven_two,
            _nine_six_three, _nine_five_four]


# ------------------------------------------------------------------------ fallback

def _fallback(prof):
    """The row for unmatched inputs: up to AUX_CAP curves, the lines by point
    count, then the conics, and no divisor, so `_certify` sweeps for the upper
    bound.

    The conics are those through six or more points when there are any, else
    every irreducible conic through five; ties keep the profile's order.  Two
    distinct points span a line, so the curve list is never empty.
    """
    lines = sorted(prof.lines, key=lambda ln: -len(prof.lines[ln]))
    conics = ([c for _, c in prof.conic_subsets]
              or sorted(prof.conics, key=lambda c: -len(prof.conics[c])))
    curves = (lines + conics)[:AUX_CAP]
    labels = ["%s %d" % ("line" if c.degree == 1 else "conic", i + 1)
              for i, c in enumerate(curves)]
    return Row("fallback/bounds", None, curves, labels, None, None,
               notes=["no decision-table row matched; generated-curve bounds"])
