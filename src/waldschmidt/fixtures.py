"""Deterministic rational-coordinate instances of the supported configurations."""

from fractions import Fraction
from functools import lru_cache

from .geometry import (PlaneCurve, ProjPoint, chords_through, contains,
                       is_smooth_cubic, q_collinear_set)


class FixtureError(RuntimeError):
    pass


class UnknownFixtureError(KeyError):
    pass


class Expected:
    """Either an exact value or a certified lower bound for the family."""

    def __init__(self, kind, value):
        assert kind in ("exact", "lower")
        self.kind = kind
        self.value = Fraction(value)

    def to_json(self):
        return {self.kind: "%s" % self.value}


class FixtureSpec:
    def __init__(self, name, points, expected, rule, notes=()):
        self.name = name
        self.points = list(points)
        self.expected = expected
        self.rule = rule
        self.notes = list(notes)

    def to_json(self):
        out = {"name": self.name,
               "points": [p.to_json() for p in self.points],
               "rule": self.rule}
        if self.expected is not None:
            out["expected"] = self.expected.to_json()
        if self.notes:
            out["notes"] = self.notes
        return out


# the standard conic x0*x2 = x1^2 used by every conic-based fixture
STANDARD_CONIC = PlaneCurve(2, [0, 0, 1, -1, 0, 0])
# the standard line x2 = 0 used by the line-based fixtures
STANDARD_LINE = PlaneCurve(1, [0, 0, 1])

_TRIANGLE = (ProjPoint(0, 0, 1), ProjPoint(1, 0, 1), ProjPoint(0, 1, 1))


def conic_point(t):
    t = Fraction(t)
    return ProjPoint(t * t, t, 1)


def conic_chord(s, t):
    """Chord of the standard conic through the parameter-s and parameter-t points."""
    s, t = Fraction(s), Fraction(t)
    return PlaneCurve(1, [1, -(s + t), s * t])


def _line_family(name, on_line_params, expected, rule, notes=()):
    pts = [ProjPoint(a, b, 0) for a, b in on_line_params] + list(_TRIANGLE)
    _check_distinct(pts)
    qs = _TRIANGLE
    qc = q_collinear_set(pts[:-3], qs)
    return FixtureSpec(name, pts, expected, rule, notes), len(qc)


def _check_distinct(pts):
    if len(set(pts)) != len(pts):
        raise FixtureError("fixture points are not pairwise distinct")


def _check_on_conic(pts):
    for p in pts:
        if not contains(STANDARD_CONIC, p):
            raise FixtureError("%r is not on the standard conic" % (p,))


def _check_off_conic(pts):
    for p in pts:
        if contains(STANDARD_CONIC, p):
            raise FixtureError("%r unexpectedly lies on the standard conic" % (p,))


def _line_fixture(name, params, q_expected, expected, rule):
    spec, q = _line_family(name, params, expected, rule)
    if q != q_expected:
        raise FixtureError("%s: expected %d side points, found %d"
                           % (name, q_expected, q))
    return spec


def _conic_fixture(name, ts, q, c_expected, expected, rule, notes=()):
    pts = [conic_point(t) for t in ts]
    _check_on_conic(pts)
    _check_off_conic([q])
    all_pts = pts + [q]
    _check_distinct(all_pts)
    c = len(chords_through(q, pts))
    if c != c_expected:
        raise FixtureError("%s: expected concurrency %d, found %d" % (name, c_expected, c))
    return FixtureSpec(name, all_pts, expected, rule, notes)


CUBIC9_CURVE = PlaneCurve(3, [1, 0, 0, 0, 0, -1, 0, -1, -1, 0])


def _directional(curve, direction, at):
    """Directional derivative of the form along `direction`, evaluated at `at`."""
    return sum(d * curve.derivative_value(beta, at)
               for d, beta in zip(direction.coords, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
               if d)


def _chord_third(curve, a, b):
    c1 = _directional(curve, b, a)
    c2 = _directional(curve, a, b)
    if c2 == 0:
        return None
    # residual intersection of the chord: parameter -c1/c2 on a + s*b
    x = [c2 * a.coords[i] - c1 * b.coords[i] for i in range(3)]
    if all(v == 0 for v in x):
        return None
    return ProjPoint(*x)


def _tangent_third(curve, a):
    grad = [curve.derivative_value(beta, a)
            for beta in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    if all(g == 0 for g in grad):
        return None
    ln = PlaneCurve(1, grad)
    u = None
    for e in (ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1),
              ProjPoint(1, 1, 0), ProjPoint(1, 0, 1), ProjPoint(0, 1, 1)):
        if contains(ln, e) and e != a:
            u = e
            break
    if u is None:
        l0, l1, l2 = ln.coeffs
        cand = [ProjPoint(l1, -l0, 0) if (l0 or l1) else None,
                ProjPoint(0, l2, -l1) if (l1 or l2) else None]
        for e in cand:
            if e is not None and e != a:
                u = e
                break
    fu = curve.evaluate(u)
    if fu == 0:
        return None
    c2 = _directional(curve, a, u)
    x = [fu * a.coords[i] - c2 * u.coords[i] for i in range(3)]
    if all(v == 0 for v in x):
        return None
    return ProjPoint(*x)


def _cubic9_points():
    """Nine rational points on the fixed smooth cubic by chord-tangent iteration.

    A few extra points are generated and the nine of smallest height kept, so
    the m <= 4 sweeps stay within modest integer sizes.
    """
    pts = [ProjPoint(0, 0, 1), ProjPoint(1, 0, 1)]
    for _ in range(12):
        if len(pts) >= 12:
            break
        new = []
        for a in pts:
            t = _tangent_third(CUBIC9_CURVE, a)
            if t is not None and t not in pts and t not in new:
                new.append(t)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                t = _chord_third(CUBIC9_CURVE, pts[i], pts[j])
                if t is not None and t not in pts and t not in new:
                    new.append(t)
        if not new:
            break
        pts.extend(new)
    if len(pts) < 9:
        raise FixtureError("chord-tangent iteration stalled below nine points")
    order = {p: i for i, p in enumerate(pts)}
    pts = sorted(pts, key=lambda p: (max(abs(c) for c in p.coords), order[p]))[:9]
    pts.sort(key=lambda p: order[p])
    for p in pts:
        if not contains(CUBIC9_CURVE, p):
            raise FixtureError("generated point %r left the cubic" % (p,))
    if not is_smooth_cubic(CUBIC9_CURVE):
        raise FixtureError("the fixed cubic must be smooth")
    return pts


def _nine72(name, ts, p8, p9, expected_lower, rule, notes=()):
    pts = [conic_point(t) for t in ts]
    _check_on_conic(pts)
    _check_off_conic([p8, p9])
    allp = pts + [p8, p9]
    _check_distinct(allp)
    return FixtureSpec(name, allp, Expected("lower", expected_lower), rule, notes)


def _nine6x(name, conic_ts, line, line_pts, expected, rule, notes=()):
    conic_pts = [conic_point(t) for t in conic_ts]
    _check_on_conic(conic_pts)
    _check_off_conic(line_pts)
    for p in line_pts:
        if not contains(line, p):
            raise FixtureError("%s: %r is off the carrier line" % (name, p))
    allp = conic_pts + list(line_pts)
    _check_distinct(allp)
    return FixtureSpec(name, allp, expected, rule, notes)


F = Fraction


def _build(name):
    key = name.upper()
    if key == "CONIC5":
        pts = [conic_point(t) for t in (0, 1, 2, 3, -1)]
        _check_on_conic(pts)
        return FixtureSpec(name, pts, None, "conic-carrier/five-points")
    if key == "CONIC6+Q":
        return _conic_fixture(name, (0, 1, 2, 3, -1, -2), ProjPoint(1, 0, 1), 1,
                              Expected("exact", F(5, 2)), "conic6/one-external",
                              notes=["external point on exactly one chord"])
    if key == "CONIC6-TYPE1":
        return _conic_fixture(name, (2, F(1, 2), 3, F(1, 3), -2, F(-1, 2)),
                              ProjPoint(-1, 0, 1), 3,
                              Expected("exact", F(7, 3)), "conic6/three-concurrent-chords")
    if key == "CONIC6-TYPE2-I":
        return _conic_fixture(name, (0, 1, 2, 3, -1, -2), ProjPoint(1, 0, 2), 0,
                              Expected("exact", F(5, 2)), "conic6/no-chord")
    if key == "CONIC6-TYPE2-II":
        return _conic_fixture(name, (0, 1, 2, 3, -1, -2), ProjPoint(2, 2, 1), 1,
                              Expected("exact", F(5, 2)), "conic6/one-chord")
    if key == "CONIC6-TYPE2-III":
        return _conic_fixture(name, (0, 1, 2, 3, -1, -2), ProjPoint(3, 3, 2), 2,
                              Expected("exact", F(5, 2)), "conic6/two-chords")
    if key == "CONIC7+Q-CONC3":
        return _conic_fixture(name, (2, F(1, 2), 3, F(1, 3), -2, F(-1, 2), 0),
                              ProjPoint(-1, 0, 1), 3,
                              Expected("exact", F(5, 2)), "conic7/three-concurrent-chords")
    if key == "CONIC7+Q-SUB1":
        return _conic_fixture(name, (0, 1, 2, 3, -1, -2, 4), ProjPoint(3, 3, 2), 2,
                              Expected("exact", F(13, 5)), "conic7/two-chords")
    if key == "CONIC7+Q-SUB2":
        return _conic_fixture(name, (0, 1, 2, 3, -1, -2, 5), ProjPoint(2, 2, 1), 1,
                              Expected("exact", F(13, 5)), "conic7/one-chord")
    if key == "CONIC7+Q-SUB3":
        return _conic_fixture(name, (0, 1, 2, 3, -1, -2, 4), ProjPoint(1, 0, 2), 0,
                              Expected("lower", F(13, 5)), "conic7/no-chord",
                              notes=["lower bound only; exactness open"])
    if key == "CONIC8-CONC4":
        return _conic_fixture(name, (2, F(1, 2), 3, F(1, 3), -2, F(-1, 2), -3, F(-1, 3)),
                              ProjPoint(-1, 0, 1), 4,
                              Expected("exact", F(5, 2)), "conic8/four-concurrent-chords")
    if key == "L4Q3-A":
        return _line_fixture(name, [(1, -1), (0, 1), (1, 0), (1, 1)], 3,
                             Expected("exact", F(16, 7)), "line7/three-side-points")
    if key == "L4Q3-B":
        return _line_fixture(name, [(1, -1), (0, 1), (1, 1), (1, 2)], 2,
                             Expected("exact", F(7, 3)), "line7/two-side-points")
    if key == "L4Q3-C":
        return _line_fixture(name, [(1, 0), (1, 1), (1, 2), (1, 3)], 1,
                             Expected("exact", F(17, 7)), "line7/one-side-point")
    if key == "L4Q3-D":
        return _line_fixture(name, [(1, 1), (1, 2), (1, 3), (1, 4)], 0,
                             Expected("exact", F(5, 2)), "line7/no-side-point")
    if key == "L5Q3-3QC":
        return _line_fixture(name, [(1, -1), (0, 1), (1, 0), (1, 1), (1, 2)], 3,
                             Expected("exact", F(7, 3)), "line8/three-side-points")
    if key == "L5Q3-Y":
        return _line_fixture(name, [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)], 2,
                             Expected("exact", F(17, 7)), "line8/two-side-points")
    if key == "L6Q3-Z":
        return _line_fixture(name, [(1, 0), (0, 1), (1, -1), (1, 1), (1, 2), (1, 3)], 3,
                             Expected("exact", F(17, 7)), "line9/three-side-points")
    if key.startswith("LNQ3-52(") and key.endswith(")"):
        n = int(key[8:-1])
        if n < 8 or n > 12:
            raise UnknownFixtureError(name)
        params = [(1, a) for a in range(1, n - 2)]
        return _line_fixture(name, params, 0,
                             Expected("exact", F(5, 2)), "line-n/extended-free-points")
    if key == "CUBIC9":
        pts = _cubic9_points()
        return FixtureSpec(name, pts, Expected("exact", 3), "cubic9/smooth",
                           notes=["points generated by chord-tangent iteration "
                                  "from (0:0:1) and (1:0:1)"])
    if key == "NINE-72":
        return _nine72(name, (0, 1, 2, 3, -1, -2, 4), ProjPoint(1, 0, 2),
                       ProjPoint(1, 0, 3), F(13, 5), "nine/7conic+2/plain-external")
    if key == "NINE-72-COMMON-I":
        return _nine72(name, (-2, F(-1, 2), 2, F(1, 2), 3, F(1, 3), F(-3, 26)),
                       ProjPoint(-1, 0, 1), ProjPoint(-3, -2, 8), F(45, 17),
                       "nine/7conic+2/common-chord-overlap3")
    if key == "NINE-72-COMMON-II":
        return _nine72(name, (3, F(1, 3), 2, F(1, 2), F(1, 7), 7, -3),
                       ProjPoint(-1, 0, 1), ProjPoint(5, 3, 5), F(18, 7),
                       "nine/7conic+2/common-chord-overlap4")
    if key == "NINE-72-NOCOMMON":
        return _nine72(name, (2, F(1, 2), 3, F(1, 3), -2, F(-1, 2), F(11, 57)),
                       ProjPoint(-1, 0, 1), ProjPoint(-1, 13, 31), F(122, 43),
                       "nine/7conic+2/disjoint-triples")
    if key == "NINE-63A":
        return _nine6x(name, (0, 1, 2, 3, -1, -2), STANDARD_LINE,
                       [ProjPoint(1, 1, 0), ProjPoint(1, 2, 0), ProjPoint(1, 3, 0)],
                       Expected("exact", 3), "nine/6conic+3/line-avoids-conic")
    if key == "NINE-63B":
        line = PlaneCurve(1, [2, -1, -1])
        return _nine6x(name, (0, 1, 2, 3, -1, -2), line,
                       [ProjPoint(0, 1, -1), ProjPoint(1, 2, 0), ProjPoint(2, 1, 3)],
                       Expected("lower", F(58, 23)), "nine/6conic+3/one-shared-point")
    if key in ("NINE-63C-SUB1I", "NINE-63C-SUB1II", "NINE-63C-SUB2",
               "NINE-63C-SUB3", "NINE-63C-SUB4"):
        return _nine63c(name, key)
    if key == "NINE-54":
        conic_pts = [conic_point(t) for t in (0, 1, 2, 3, -1)]
        line_pts = [ProjPoint(1, a, 0) for a in (1, 2, 3, 4)]
        _check_on_conic(conic_pts)
        _check_off_conic(line_pts)
        allp = conic_pts + line_pts
        _check_distinct(allp)
        return FixtureSpec(name, allp, Expected("lower", F(14, 5)),
                           "nine/5conic+4line",
                           notes=["stated lower bound 14/5; the LP optimum is 23/8"])
    raise UnknownFixtureError(name)


def _nine63c(name, key):
    line = PlaneCurve(1, [1, 0, -1])  # x0 = x2, through the t=1 and t=-1 points
    if key == "NINE-63C-SUB3":
        conic_ts = (1, -1, 0, 2, 3, F(1, 5))
        line_pts = [ProjPoint(2, 1, 2), ProjPoint(3, 1, 3), ProjPoint(11, 7, 11)]
        expected = Expected("exact", F(13, 5))
        rule = "nine/6conic+3/two-shared/one-double-chord-point"
        notes = ["companion mirrored configuration certified identically"]
    elif key == "NINE-63C-SUB1I":
        conic_ts = (1, -1, 0, 2, 3, -2)
        line_pts = [ProjPoint(1, 2, 1), ProjPoint(1, 3, 1), ProjPoint(1, 4, 1)]
        expected = Expected("lower", F(13, 5))
        rule = "nine/6conic+3/two-shared/free-point-plain"
        notes = []
    elif key == "NINE-63C-SUB1II":
        conic_ts = (1, -1, 0, 2, 3, -2)
        line_pts = [ProjPoint(1, 2, 1), ProjPoint(5, -1, 5), ProjPoint(2, 1, 2)]
        expected = Expected("lower", F(53, 21))
        rule = "nine/6conic+3/two-shared/free-point-conjugate"
        notes = []
    elif key == "NINE-63C-SUB2":
        conic_ts = (1, -1, 0, 2, 3, -2)
        line_pts = [ProjPoint(2, 1, 2), ProjPoint(3, 1, 3), ProjPoint(5, 7, 5)]
        expected = Expected("lower", F(13, 5))
        rule = "nine/6conic+3/two-shared/all-on-single-chords"
        notes = []
    else:  # SUB4
        conic_ts = (1, -1, 2, F(1, 2), 3, F(1, 3))
        line_pts = [ProjPoint(5, 7, 5), ProjPoint(7, 5, 7), ProjPoint(5, 4, 5)]
        expected = Expected("lower", F(59, 23))
        rule = "nine/6conic+3/two-shared/two-double-chord-points"
        notes = []
    spec = _nine6x(name, conic_ts, line, line_pts, expected, rule, notes)
    shared = [p for p in spec.points[:6] if contains(line, p)]
    if len(shared) != 2:
        raise FixtureError("%s: exactly two conic points must sit on the line" % name)
    return spec


_CANONICAL = (
    "L4Q3-A", "L4Q3-B", "L4Q3-C", "L4Q3-D",
    "L5Q3-3QC", "L5Q3-Y", "L6Q3-Z",
    "LNQ3-52(8)", "LNQ3-52(9)", "LNQ3-52(10)",
    "CONIC5", "CONIC6+Q",
    "CONIC6-TYPE1", "CONIC6-TYPE2-I", "CONIC6-TYPE2-II", "CONIC6-TYPE2-III",
    "CONIC7+Q-CONC3", "CONIC7+Q-SUB1", "CONIC7+Q-SUB2", "CONIC7+Q-SUB3",
    "CONIC8-CONC4",
    "CUBIC9",
    "NINE-72", "NINE-72-COMMON-I", "NINE-72-COMMON-II", "NINE-72-NOCOMMON",
    "NINE-63A", "NINE-63B",
    "NINE-63C-SUB1I", "NINE-63C-SUB1II", "NINE-63C-SUB2", "NINE-63C-SUB3",
    "NINE-63C-SUB4",
    "NINE-54",
)


def fixture_names():
    return list(_CANONICAL)


@lru_cache(maxsize=None)
def fixture(name):
    """Canonical instance for a registered configuration name."""
    try:
        return _build(name)
    except UnknownFixtureError:
        raise UnknownFixtureError("unknown fixture %r" % name) from None
