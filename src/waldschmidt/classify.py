"""Decision tables mapping point configurations to certified constants or brackets."""

from fractions import Fraction
from itertools import combinations

from .bezout import AuxCurveSet, build_system, solve_min_ratio
from .engine import Engine, FormalDivisor, conclude, verify_upper
from .fatpoints import FatPointScheme, interpolation_matrix
from .geometry import (DuplicatePointError, GeometryError, NonUniqueConicError,
                       PlaneCurve, conic_through, contains,
                       cubic_with_double_point, incidence_profile,
                       irreducible_conics, is_irreducible_conic, is_smooth_cubic,
                       line_through, q_collinear_set)
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


class ClassificationResult:
    """Family verdict with exact value or bracket and attached certificates."""

    def __init__(self, family, exact, lower, upper, citations, certificates, notes):
        self.family = family
        self.exact = exact
        self.lower = lower
        self.upper = upper
        self.citations = citations
        self.certificates = certificates
        self.notes = list(notes)

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


def _cite(rule):
    return [(rule, RULES[rule])]


def _lp_lower(points, curves, labels, attested=(), subset_note=None):
    scheme = FatPointScheme.uniform(points, 1)
    aux = AuxCurveSet.build(scheme, curves, labels=labels, attested=attested)
    system = build_system(scheme, aux)
    if subset_note:
        system.note = subset_note
    return solve_min_ratio(system)


def _upper(divisor_terms, m, points):
    divisor = FormalDivisor(divisor_terms, m)
    ratio = verify_upper(divisor, FatPointScheme.uniform(points, m))
    return ratio, divisor


def _result(rule, value, cert, upper_pair, notes=()):
    """Exact result when both certificates meet the table value, else a bracket."""
    ratio, divisor = upper_pair
    notes = list(notes)
    if cert.bound == value and ratio == value:
        return ClassificationResult(rule, value, value, value, _cite(rule),
                                    {"lower": cert, "upper": upper_pair}, notes)
    notes.append("certificates bracket [%s, %s] instead of the table value %s"
                 % (format_rational(cert.bound), format_rational(ratio),
                    format_rational(value)))
    return ClassificationResult(rule, None, cert.bound, ratio, _cite(rule),
                                {"lower": cert, "upper": upper_pair}, notes)


def _interval(rule, claimed_lower, cert, upper_pair, notes=()):
    ratio, _ = upper_pair
    notes = list(notes)
    if claimed_lower is not None and cert.bound != claimed_lower:
        notes.append("certified LP bound %s differs from the table floor %s"
                     % (format_rational(cert.bound), format_rational(claimed_lower)))
    return ClassificationResult(rule, None, cert.bound, ratio, _cite(rule),
                                {"lower": cert, "upper": upper_pair}, notes)


def classify(points, m_max=2, aux_cap=40, conic_cap=12):
    """Match a configuration against the decision tables, certifying the verdict.

    Tables are tried in order of increasing generality (collinear families,
    conic-plus-external families, nine-point conic/line splits); the first
    match wins.  Unmatched inputs go to generated-curve LP bounds plus a sweep
    of depth m_max.  Every exact verdict carries a verified multiplier
    certificate and a verified divisor construction of the same value.
    """
    points = list(points)
    if len(points) < 2:
        raise GeometryError("need at least two points")
    if len(set(points)) != len(points):
        raise DuplicatePointError("points must be pairwise distinct")
    prof = incidence_profile(points, conic_cap=conic_cap)
    n = len(points)

    if n >= 7 and prof.max_collinear >= n - 3:
        res = _table_collinear(points, prof)
        if res is not None:
            return res
    if n >= 7:
        res = _table_conic_external(points, prof)
        if res is not None:
            return res
    if n == 9:
        res = _table_nine(points, prof)
        if res is not None:
            return res
    return _fallback(points, prof, m_max, aux_cap)


# ---------------------------------------------------------------- collinear table

def _table_collinear(points, prof):
    n = len(points)
    k = prof.max_collinear
    line = prof.witness_line
    on_line = [p for p in points if contains(line, p)]
    rest = [p for p in points if not contains(line, p)]

    if k == n:
        cert = _lp_lower(points, [line], ["L"])
        up = _upper([(line, 1)], 1, points)
        return _result("all-collinear", Fraction(1), cert, up)

    if k == n - 1:
        q = rest[0]
        spokes = [line_through(q, p) for p in on_line]
        cert = _lp_lower(points, [line] + spokes,
                         ["L"] + ["Q-spoke %d" % i for i in range(len(spokes))])
        up = _upper([(line, n - 2)] + [(s, 1) for s in spokes], n - 1, points)
        return _result("all-but-one-collinear", Fraction(2 * n - 3, n - 1), cert, up)

    if k == n - 2:
        cross = line_through(rest[0], rest[1])
        cert = _lp_lower(points, [line, cross], ["L", "residual line"])
        up = _upper([(line, 1), (cross, 1)], 1, points)
        return _result("all-but-two-collinear", Fraction(2), cert, up)

    # k == n - 3
    q1, q2, q3 = rest
    if contains(line_through(q1, q2), q3):
        cross = line_through(q1, q2)
        cert = _lp_lower(points, [line, cross], ["L", "residual line"])
        up = _upper([(line, 1), (cross, 1)], 1, points)
        return _result("residual-triple-collinear", Fraction(2), cert, up)

    sides = [line_through(q2, q3), line_through(q1, q3), line_through(q1, q2)]
    side_pts = q_collinear_set(on_line, (q1, q2, q3))
    free = [p for p in on_line if p not in side_pts]
    q = len(side_pts)
    kk = len(on_line)
    side_labels = ["side 1", "side 2", "side 3"]

    if kk - q >= 4:
        subset = free[:4] + rest
        cert = _lp_lower(subset, sides + [line], side_labels + ["L"],
                         subset_note="restricted to a seven-point subset")
        up = _upper([(sides[0], 1), (sides[1], 1), (sides[2], 1), (line, 2)], 2, points)
        return _result("line-n/extended-free-points", Fraction(5, 2), cert, up)

    try:
        if q == 3 and kk == 4:
            p4 = free[0]
            spokes = [line_through(p4, qq) for qq in rest]
            curves = sides + [line] + spokes
            labels = side_labels + ["L", "spoke 1", "spoke 2", "spoke 3"]
            cert = _lp_lower(points, curves, labels)
            up = _upper([(spokes[0], 1), (spokes[1], 1), (spokes[2], 1),
                         (sides[0], 3), (sides[1], 3), (sides[2], 3), (line, 4)],
                        7, points)
            return _result("line7/three-side-points", Fraction(16, 7), cert, up)

        if (q == 3 and kk == 5) or (q == 2 and kk == 4):
            conic = conic_through(rest + free[:2])
            if not is_irreducible_conic(conic):
                raise NonUniqueConicError("degenerate auxiliary conic")
            if q == 2:
                subset, note = points, None
                rule = "line7/two-side-points"
            else:
                subset = [p for p in points if p != side_pts[0]]
                note = "restricted to a seven-point subset"
                rule = "line8/three-side-points"
            cert = _lp_lower(subset, sides + [line, conic],
                             side_labels + ["L", "conic"], subset_note=note)
            up = _upper([(sides[0], 1), (sides[1], 1), (sides[2], 1),
                         (conic, 1), (line, 2)], 3, points)
            return _result(rule, Fraction(7, 3), cert, up)

        if (q, kk) in ((1, 4), (2, 5), (3, 6)):
            # remaining rows all certify 17/7 through the three-free-point systems
            if len(free) != 3:
                return None
            conics = [conic_through(rest + [free[i], free[j]])
                      for i, j in ((1, 2), (0, 2), (0, 1))]
            for c in conics:
                if not is_irreducible_conic(c):
                    raise NonUniqueConicError("degenerate auxiliary conic")
            subset = free + rest + side_pts[:1]
            note = None
            if q > 1:
                note = "restricted to a seven-point subset"
            rule = {(1, 4): "line7/one-side-point",
                    (2, 5): "line8/two-side-points",
                    (3, 6): "line9/three-side-points"}.get((q, kk))
            if rule is None:
                return None
            cert = _lp_lower(subset, conics + sides + [line],
                             ["conic 1", "conic 2", "conic 3"] + side_labels + ["L"],
                             subset_note=note)
            up = _upper([(conics[0], 1), (conics[1], 1), (conics[2], 1),
                         (sides[0], 2), (sides[1], 2), (sides[2], 2), (line, 5)],
                        7, points)
            return _result(rule, Fraction(17, 7), cert, up)
    except (NonUniqueConicError, GeometryError):
        return None
    return None


# ---------------------------------------------------------- conic + external table

def _chords_through(q, conic_pts):
    chords = {}
    for a, b in combinations(conic_pts, 2):
        ln = line_through(a, b)
        if contains(ln, q):
            chords.setdefault(ln, set()).update((a, b))
    return [(ln, sorted(members, key=conic_pts.index))
            for ln, members in sorted(chords.items(),
                                      key=lambda kv: min(conic_pts.index(p)
                                                         for p in kv[1]))]


def _aux_for_low_concurrency(conic_pts, q, conic):
    """Curves certifying 13/5 for seven conic points and an external on <=2 chords."""
    chords = _chords_through(q, conic_pts)
    c = len(chords)
    if c == 2:
        (k1, e1), (k2, e2) = chords
        others = [p for p in conic_pts if p not in e1 and p not in e2]
        c1 = conic_through([e2[0]] + others + [q])
        c2 = conic_through([e2[1]] + others + [q])
        curves = [c1, c2, k1, k2, conic]
        labels = ["conic 1", "conic 2", "chord 1", "chord 2", "carrier"]
    elif c == 1:
        (k1, e1), = chords
        others = [p for p in conic_pts if p not in e1]
        curves = []
        labels = []
        for i in range(5):
            sub = [others[j] for j in range(5) if j != i] + [q]
            curves.append(conic_through(sub))
            labels.append("conic %d" % (i + 1))
        curves += [k1, conic]
        labels += ["chord", "carrier"]
    else:
        spokes = [line_through(p, q) for p in conic_pts[:3]]
        c1 = conic_through(conic_pts[3:] + [q])
        curves = [c1] + spokes + [conic]
        labels = ["conic 1", "spoke 1", "spoke 2", "spoke 3", "carrier"]
    for cv in curves:
        if cv.degree == 2 and not is_irreducible_conic(cv):
            raise NonUniqueConicError("degenerate auxiliary conic")
    return curves, labels


def _table_conic_external(points, prof):
    n = len(points)
    group = next(((members, conic) for members, conic in prof.conic_subsets
                  if len(members) == n - 1), None)
    if group is None:
        return None
    members, conic = group
    conic_pts = [points[i] for i in members]
    q = next(p for i, p in enumerate(points) if i not in members)
    chords = _chords_through(q, conic_pts)
    c = len(chords)

    try:
        if n == 7:
            if c >= 3:
                curves = [ln for ln, _ in chords[:3]] + [conic]
                cert = _lp_lower(points, curves,
                                 ["chord 1", "chord 2", "chord 3", "carrier"])
                up = _upper([(chords[0][0], 1), (chords[1][0], 1),
                             (chords[2][0], 1), (conic, 2)], 3, points)
                return _result("conic6/three-concurrent-chords", Fraction(7, 3), cert, up)
            cubic = cubic_with_double_point(conic_pts, q)
            up = _upper([(cubic, 1), (conic, 1)], 2, points)
            curves, labels = _aux_for_type2(conic_pts, q, conic, chords)
            cert = _lp_lower(points, curves, labels)
            return _result("conic6/generic-external", Fraction(5, 2), cert, up)

        if n == 8:
            if c >= 3:
                kept = chords[:2]
                widow_chord, widow_members = chords[2]
                leftover = [p for p in conic_pts
                            if all(p not in mem for _, mem in chords)]
                subset_pts = ([p for _, mem in kept for p in mem]
                              + [widow_members[0]] + leftover + [q])
                curves = [kept[0][0], kept[1][0],
                          line_through(widow_members[0], q),
                          line_through(leftover[0], q), conic]
                labels = ["chord 1", "chord 2", "spoke 1", "spoke 2", "carrier"]
                cert = _lp_lower(subset_pts, curves, labels,
                                 subset_note="restricted to a seven-point subset")
                up = _upper([(kept[0][0], 1), (kept[1][0], 1), (widow_chord, 1),
                             (line_through(leftover[0], q), 1), (conic, 3)],
                            4, points)
                return _result("conic7/three-concurrent-chords", Fraction(5, 2), cert, up)
            curves, labels = _aux_for_low_concurrency(conic_pts, q, conic)
            cert = _lp_lower(points, curves, labels)
            if c == 2:
                (k1, e1), (k2, e2) = chords
                up = _upper([(curves[0], 1), (curves[1], 1), (k1, 2), (k2, 1),
                             (conic, 3)], 5, points)
                return _result("conic7/two-chords", Fraction(13, 5), cert, up)
            if c == 1:
                (k1, e1), = chords
                others = [p for p in conic_pts if p not in e1]
                cub1 = cubic_with_double_point(others + [e1[0]], q)
                cub2 = cubic_with_double_point(others + [e1[1]], q)
                up = _upper([(cub1, 1), (cub2, 1), (k1, 1), (conic, 3)], 5, points)
                return _result("conic7/one-chord", Fraction(13, 5), cert, up)
            up = _upper([(conic, 1), (line_through(q, conic_pts[0]), 1)], 1, points)
            return _interval("conic7/no-chord", Fraction(13, 5), cert, up,
                             notes=["exact value not settled for this family"])

        # n >= 9
        if n == 9 and c >= 4:
            kept = chords[:2]
            widows = [chords[2][1][0], chords[3][1][0]]
            subset_pts = [p for _, mem in kept for p in mem] + widows + [q]
            curves = [kept[0][0], kept[1][0], line_through(widows[0], q),
                      line_through(widows[1], q), conic]
            cert = _lp_lower(subset_pts, curves,
                             ["chord 1", "chord 2", "spoke 1", "spoke 2", "carrier"],
                             subset_note="restricted to a seven-point subset")
            up = _upper([(chords[0][0], 1), (chords[1][0], 1), (chords[2][0], 1),
                         (chords[3][0], 1), (conic, 3)], 4, points)
            return _result("conic8/four-concurrent-chords", Fraction(5, 2), cert, up)

        subset_pts, sub_conic_pts = _seven_point_subset(conic_pts, chords, q)
        curves, labels = _aux_for_low_concurrency(sub_conic_pts, q, conic)
        cert = _lp_lower(subset_pts, curves, labels,
                         subset_note="restricted to an eight-point subset")
        up = _upper([(conic, 1), (line_through(q, conic_pts[0]), 1)], 1, points)
        rule = "conic8/low-concurrency" if n == 9 else "conic-many/external"
        return _interval(rule, Fraction(13, 5), cert, up,
                         notes=["exact value not settled for this family"])
    except (NonUniqueConicError, GeometryError):
        return None


def _aux_for_type2(conic_pts, q, conic, chords):
    c = len(chords)
    if c == 0:
        pairs = [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5)]
        curves = [conic_through([conic_pts[i] for i in idx] + [q]) for idx in pairs]
        curves.append(conic)
        labels = ["conic 1", "conic 2", "conic 3", "carrier"]
    elif c == 1:
        k1, e1 = chords[0]
        others = [p for p in conic_pts if p not in e1]
        curves = [k1, conic_through(others + [q]), conic]
        labels = ["chord", "conic 1", "carrier"]
    else:
        (k1, e1), (k2, e2) = chords[:2]
        leftover = [p for p in conic_pts if p not in e1 and p not in e2]
        curves = [k1, k2, line_through(leftover[0], q), line_through(leftover[1], q),
                  conic]
        labels = ["chord 1", "chord 2", "spoke 1", "spoke 2", "carrier"]
    for cv in curves:
        if cv.degree == 2 and not is_irreducible_conic(cv):
            raise NonUniqueConicError("degenerate auxiliary conic")
    return curves, labels


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


# ----------------------------------------------------------------- nine-point table

def _table_nine(points, prof):
    cubics = nullspace(interpolation_matrix(FatPointScheme.uniform(points, 1), 3))
    if len(cubics) == 1:
        cubic = PlaneCurve(3, cubics[0])
        if is_smooth_cubic(cubic):
            cert = _lp_lower(points, [cubic], ["cubic"], attested=(0,))
            up = _upper([(cubic, 1)], 1, points)
            return _result("cubic9/smooth", Fraction(3), cert, up)

    by_size = {}
    for members, conic in prof.conic_subsets:
        by_size.setdefault(len(members), []).append((members, conic))

    if 7 in by_size:
        res = _nine_seven_two(points, by_size[7][0])
        if res is not None:
            return res
    if 6 in by_size:
        for members, conic in by_size[6]:
            res = _nine_six_three(points, prof, (members, conic))
            if res is not None:
                return res
    res = _nine_five_four(points, prof)
    if res is not None:
        return res
    return None


def _nine_seven_two(points, group):
    members, conic = group
    conic_pts = [points[i] for i in members]
    ext = [p for i, p in enumerate(points) if i not in members]
    if len(ext) != 2:
        return None
    e1, e2 = ext
    if contains(conic, e1) or contains(conic, e2):
        return None
    try:
        chords1 = _chords_through(e1, conic_pts)
        chords2 = _chords_through(e2, conic_pts)
        up = _upper([(conic, 1), (line_through(e1, e2), 1)], 1, points)
        if len(chords1) <= 2 or len(chords2) <= 2:
            plainer = e1 if len(chords1) <= 2 else e2
            sub_conic = conic_pts
            curves, labels = _aux_for_low_concurrency(sub_conic, plainer, conic)
            cert = _lp_lower(sub_conic + [plainer], curves, labels,
                             subset_note="restricted to an eight-point subset")
            return _interval("nine/7conic+2/plain-external", Fraction(13, 5), cert, up,
                             notes=["exact value not settled for this family"])
        lines1 = {ln for ln, _ in chords1}
        lines2 = {ln for ln, _ in chords2}
        common = lines1 & lines2
        all_chords = []
        labels = []
        seen = set()
        for idx, (ln, _) in enumerate(chords1 + chords2):
            if ln not in seen:
                seen.add(ln)
                all_chords.append(ln)
                labels.append("chord %d" % len(all_chords))
        cert = _lp_lower(points, [conic] + all_chords, ["carrier"] + labels)
        if common:
            ends1 = {p for ln, mem in chords1 if ln not in common for p in mem}
            ends2 = {p for ln, mem in chords2 if ln not in common for p in mem}
            overlap = len(ends1 & ends2)
            if overlap == 3:
                rule = "nine/7conic+2/common-chord-overlap3"
                floor = Fraction(45, 17)
            else:
                rule = "nine/7conic+2/common-chord-overlap4"
                floor = Fraction(18, 7)
            return _interval(rule, floor, cert, up,
                             notes=["exact value not settled for this family"])
        missed1 = [p for p in conic_pts
                   if all(p not in mem for _, mem in chords1)]
        missed2 = [p for p in conic_pts
                   if all(p not in mem for _, mem in chords2)]
        if missed1 and missed2 and missed1[0] != missed2[0]:
            rule = "nine/7conic+2/disjoint-triples"
            return _interval(rule, Fraction(122, 43), cert, up,
                             notes=["exact value not settled for this family"])
        return _interval("nine/7conic+2/disjoint-triples", None, cert, up,
                         notes=["chord pattern outside the tabulated figures; "
                                "certified LP bound reported"])
    except (NonUniqueConicError, GeometryError):
        return None


def _nine_six_three(points, prof, group):
    members, conic = group
    conic_pts = [points[i] for i in members]
    line_pts = [p for i, p in enumerate(points) if i not in members]
    if len(line_pts) != 3:
        return None
    ln = line_through(line_pts[0], line_pts[1])
    if not contains(ln, line_pts[2]):
        return None
    if any(contains(conic, p) for p in line_pts):
        return None
    shared = [p for p in conic_pts if contains(ln, p)]

    try:
        if not shared:
            cert = _lp_lower(points, [conic, ln], ["carrier", "line"])
            up = _upper([(conic, 1), (ln, 1)], 1, points)
            return _result("nine/6conic+3/line-avoids-conic", Fraction(3), cert, up)
        up3 = _upper([(conic, 1), (ln, 1)], 1, points)
        if len(shared) == 1:
            cert = _lp_lower(points, [conic, ln], ["carrier", "line"])
            return _interval("nine/6conic+3/one-shared-point", Fraction(58, 23),
                             cert, up3, notes=["exact value not settled for this family"])
        if len(shared) != 2:
            return None
        four = [p for p in conic_pts if p not in shared]
        chord_map = {}
        for i, j in combinations(range(4), 2):
            chord_map[(i, j)] = line_through(four[i], four[j])
        on_chords = {}
        for p in line_pts:
            on_chords[p] = [key for key, cv in chord_map.items() if contains(cv, p)]
        off_h = [p for p in line_pts if not on_chords[p]]
        diag = [p for p in line_pts if len(on_chords[p]) >= 2]

        if off_h:
            return _nine63_sub1(points, conic, ln, four, line_pts, off_h, up3)
        if not diag:
            return _nine63_sub2(points, conic, ln, four, line_pts, on_chords, up3)
        if len(diag) == 1:
            return _nine63_sub3(points, conic, ln, four, line_pts, chord_map,
                                on_chords, diag[0], up3)
        return _nine63_sub4(points, conic, ln, four, line_pts, chord_map,
                            on_chords, diag, up3)
    except (NonUniqueConicError, GeometryError):
        return None


def _nine63_sub1(points, conic, ln, four, line_pts, off_h, up3):
    best = None
    best_rule = None
    for e in off_h:
        try:
            second = conic_through(four + [e])
        except NonUniqueConicError:
            continue
        if not is_irreducible_conic(second):
            continue
        hits = [p for p in line_pts if p != e and contains(second, p)]
        rule = ("nine/6conic+3/two-shared/free-point-plain" if not hits
                else "nine/6conic+3/two-shared/free-point-conjugate")
        cert = _lp_lower(points, [conic, second, ln],
                         ["carrier", "companion conic", "line"])
        if best is None or cert.bound > best.bound:
            best, best_rule = cert, rule
    if best is None:
        return None
    floor = (Fraction(13, 5) if best_rule.endswith("plain") else Fraction(53, 21))
    return _interval(best_rule, floor, best, up3,
                     notes=["exact value not settled for this family"])


def _nine63_sub2(points, conic, ln, four, line_pts, on_chords, up3):
    pick = None
    for pa, pb in combinations(line_pts, 2):
        (ia, ja) = on_chords[pa][0]
        (ib, jb) = on_chords[pb][0]
        shared = set((ia, ja)) & set((ib, jb))
        if shared:
            j = shared.pop()
            i = (set((ia, ja)) - {j}).pop()
            kq = (set((ib, jb)) - {j}).pop()
            e = (set(range(4)) - {i, j, kq}).pop()
            pick = (pa, pb, i, kq, e, j)
            break
    if pick is None:
        return None
    pa, pb, i, kq, e, j = pick
    second = conic_through([four[i], four[kq], four[e], pa, pb])
    if not is_irreducible_conic(second) or contains(second, four[j]):
        return None
    cert = _lp_lower(points, [conic, second, ln],
                     ["carrier", "companion conic", "line"])
    rule = "nine/6conic+3/two-shared/all-on-single-chords"
    return _interval(rule, Fraction(13, 5), cert, up3,
                     notes=["exact value not settled for this family"])


def _nine63_sub3(points, conic, ln, four, line_pts, chord_map, on_chords, dbl, up3):
    rest = [p for p in line_pts if p != dbl]
    dbl_pairs = on_chords[dbl]
    rest_pairs = [on_chords[p][0] for p in rest]
    used = set(rest_pairs[0]) | set(rest_pairs[1])
    rule = "nine/6conic+3/two-shared/one-double-chord-point"
    if len(used) == 4 and len(set(rest_pairs[0]) & set(rest_pairs[1])) == 0:
        d1, d2 = (chord_map[dbl_pairs[0]], chord_map[dbl_pairs[1]])
        c8, c9 = (chord_map[rest_pairs[0]], chord_map[rest_pairs[1]])
        cert = _lp_lower(points, [conic, ln, c8, c9, d1, d2],
                         ["carrier", "line", "single chord 1", "single chord 2",
                          "double chord 1", "double chord 2"])
        up = _upper([(d1, 1), (d2, 1), (c8, 2), (c9, 2), (ln, 3), (conic, 2)],
                    5, points)
        return _result(rule, Fraction(13, 5), cert, up,
                       notes=["companion mirrored configuration certified "
                              "identically"])
    cert = _lp_lower(points, [conic, ln], ["carrier", "line"])
    return _interval(rule, None, cert, up3,
                     notes=["chord pattern outside the tabulated figures; "
                            "certified LP bound reported"])


def _nine63_sub4(points, conic, ln, four, line_pts, chord_map, on_chords, diag, up3):
    single = [p for p in line_pts if p not in diag][0]
    if len(on_chords[single]) != 1:
        return None
    d1a, d1b = (chord_map[k] for k in on_chords[diag[0]][:2])
    d2a, d2b = (chord_map[k] for k in on_chords[diag[1]][:2])
    s1 = chord_map[on_chords[single][0]]
    cert = _lp_lower(points, [conic, ln, d1a, d1b, d2a, d2b, s1],
                     ["carrier", "line", "cross 1a", "cross 1b", "cross 2a",
                      "cross 2b", "single chord"])
    rule = "nine/6conic+3/two-shared/two-double-chord-points"
    return _interval(rule, Fraction(59, 23), cert, up3,
                     notes=["exact value not settled for this family"])


def _nine_five_four(points, prof):
    for members, _ in prof.collinear_groups:
        if len(members) == 4:
            line_pts = [points[i] for i in members]
            others = [p for i, p in enumerate(points) if i not in members]
            if len(others) != 5:
                continue
            try:
                conic = conic_through(others)
            except NonUniqueConicError:
                continue
            if not is_irreducible_conic(conic):
                continue
            ln = line_through(line_pts[0], line_pts[1])
            if any(contains(conic, p) for p in line_pts):
                continue
            if any(contains(ln, p) for p in others):
                continue
            cert = _lp_lower(points, [conic, ln], ["carrier", "line"])
            up = _upper([(conic, 1), (ln, 1)], 1, points)
            return _interval("nine/5conic+4line", Fraction(23, 8), cert, up,
                             notes=["table floor 14/5; the LP optimum 23/8 is "
                                    "the certified bound"])
    return None


# ------------------------------------------------------------------------ fallback

def _auto_aux(points, prof, aux_cap):
    curves = []
    labels = []
    counts = {}
    order = {}
    for (i, j), ln in sorted(prof.pairwise_lines.items()):
        if ln not in counts:
            counts[ln] = sum(1 for p in points if contains(ln, p))
            order[ln] = len(order)
    line_counts = sorted(counts.items(), key=lambda kv: (-kv[1], order[kv[0]]))
    for ln, cnt in line_counts:
        if len(curves) >= aux_cap:
            break
        curves.append(ln)
        labels.append("line %d" % len(curves))
    # the profile keeps only >=6-point conics and is capped; without one of
    # those, every irreducible conic through five points is a candidate
    groups = prof.conic_subsets or irreducible_conics(points, prof.collinear_groups)
    conic_counts = sorted(((len(members), conic) for members, conic in groups),
                          key=lambda t: -t[0])
    for cnt, conic in conic_counts:
        if len(curves) >= aux_cap:
            break
        curves.append(conic)
        labels.append("conic %d" % len(curves))
    return curves, labels


def _fallback(points, prof, m_max, aux_cap):
    curves, labels = _auto_aux(points, prof, aux_cap)
    if not curves:
        raise GeometryError("no auxiliary curves available")
    cert = _lp_lower(points, curves, labels)
    engine = Engine()
    trace = engine.sweep(points, m_max, lower_hint=cert.bound)
    result = conclude([cert], [], trace)
    notes = ["no decision-table row matched; generated-curve bounds"]
    res = ClassificationResult("fallback/bounds", result.exact, result.lower,
                               result.upper, _cite("fallback/bounds"),
                               {"lower": cert, "sweep": trace}, notes)
    return res
