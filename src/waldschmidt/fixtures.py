"""Deterministic rational-coordinate instances of the supported configurations."""

from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

from .geometry import PlaneCurve, ProjPoint, contains, is_smooth_cubic, line_through


class FixtureError(RuntimeError):
    pass


class UnknownFixtureError(KeyError):
    pass


class Expected:
    """Either an exact value or a certified lower bound for the family."""

    def __init__(self, kind, value):
        assert kind in ("exact", "lower")
        self.kind = kind
        self.value = F(value)

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
# the smooth cubic x0^3 - x0*x2^2 = x1^2*x2 + x1*x2^2 carrying CUBIC9
CUBIC9_CURVE = PlaneCurve(3, [1, 0, 0, 0, 0, -1, 0, -1, -1, 0])

_TRIANGLE = (ProjPoint(0, 0, 1), ProjPoint(1, 0, 1), ProjPoint(0, 1, 1))


def conic_point(t):
    t = F(t)
    return ProjPoint(t * t, t, 1)


def conic_chord(s, t):
    """Chord of the standard conic through the parameter-s and parameter-t points."""
    s, t = F(s), F(t)
    return PlaneCurve(1, [1, -(s + t), s * t])


def _line(params, sides):
    """Points (a:b:0) on STANDARD_LINE, then the triangle; `sides` of them are on its sides."""
    pts = [ProjPoint(a, b, 0) for a, b in params]
    edges = [line_through(q, r) for q, r in combinations(_TRIANGLE, 2)]
    found = sum(any(contains(e, p) for e in edges) for p in pts)
    if found != sides:
        raise FixtureError("expected %d side points, found %d" % (sides, found))
    return pts + list(_TRIANGLE)


def _conic(ts, extra=(), line=None, chords=None, shared=None):
    """Standard-conic points at parameters ts, then `extra` points off the conic.

    `line` must carry every extra point and exactly `shared` conic points when
    both are given; `chords` is the number of chords through each extra point.
    The conic points lie on STANDARD_CONIC by construction.
    """
    pts = [conic_point(t) for t in ts]
    for q in extra:
        if contains(STANDARD_CONIC, q):
            raise FixtureError("%r unexpectedly lies on the standard conic" % (q,))
        if line is not None and not contains(line, q):
            raise FixtureError("%r is off the carrier line" % (q,))
        if chords is not None:
            # a repeated conic point is reported by fixture(), not as a chord
            on = Counter(line_through(q, p) for p in dict.fromkeys(pts))
            found = sum(k >= 2 for k in on.values())
            if found != chords:
                raise FixtureError("expected concurrency %d, found %d" % (chords, found))
    if shared is not None and sum(contains(line, p) for p in pts) != shared:
        raise FixtureError("exactly %d conic points must sit on the line" % shared)
    return pts + list(extra)


def _cubic(pts):
    """The given points, each checked to lie on the smooth CUBIC9_CURVE."""
    for p in pts:
        if not contains(CUBIC9_CURVE, p):
            raise FixtureError("%r is off the cubic" % (p,))
    if not is_smooth_cubic(CUBIC9_CURVE):
        raise FixtureError("the fixed cubic must be smooth")
    return pts


def _exact(value):
    return Expected("exact", value)


def _lower(value):
    return Expected("lower", value)


_P = ProjPoint
_SIX = (0, 1, 2, 3, -1, -2)
_CONC = (2, F(1, 2), 3, F(1, 3), -2, F(-1, 2))  # chords t, 1/t all meet (-1:0:1)
_SHARED = (1, -1, 0, 2, 3, -2)
_CHORD_1_M1 = conic_chord(1, -1)  # x0 = x2

# name -> (points builder, expected value, rule, notes), in registry order;
# the builders run on first lookup only
_FIXTURES = {
    "L4Q3-A": (lambda: _line([(1, -1), (0, 1), (1, 0), (1, 1)], 3),
               _exact(F(16, 7)), "line7/three-side-points", ()),
    "L4Q3-B": (lambda: _line([(1, -1), (0, 1), (1, 1), (1, 2)], 2),
               _exact(F(7, 3)), "line7/two-side-points", ()),
    "L4Q3-C": (lambda: _line([(1, 0), (1, 1), (1, 2), (1, 3)], 1),
               _exact(F(17, 7)), "line7/one-side-point", ()),
    "L4Q3-D": (lambda: _line([(1, 1), (1, 2), (1, 3), (1, 4)], 0),
               _exact(F(5, 2)), "line7/no-side-point", ()),
    "L5Q3-3QC": (lambda: _line([(1, -1), (0, 1), (1, 0), (1, 1), (1, 2)], 3),
                 _exact(F(7, 3)), "line8/three-side-points", ()),
    "L5Q3-Y": (lambda: _line([(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)], 2),
               _exact(F(17, 7)), "line8/two-side-points", ()),
    "L6Q3-Z": (lambda: _line([(1, 0), (0, 1), (1, -1), (1, 1), (1, 2), (1, 3)], 3),
               _exact(F(17, 7)), "line9/three-side-points", ()),
    "LNQ3-52(8)": (lambda: _line([(1, a) for a in range(1, 6)], 0),
                   _exact(F(5, 2)), "line-n/extended-free-points", ()),
    "LNQ3-52(9)": (lambda: _line([(1, a) for a in range(1, 7)], 0),
                   _exact(F(5, 2)), "line-n/extended-free-points", ()),
    "LNQ3-52(10)": (lambda: _line([(1, a) for a in range(1, 8)], 0),
                    _exact(F(5, 2)), "line-n/extended-free-points", ()),
    "CONIC5": (lambda: _conic((0, 1, 2, 3, -1)),
               None, "conic-carrier/five-points", ()),
    "CONIC6+Q": (lambda: _conic(_SIX, [_P(1, 0, 1)], chords=1),
                 _exact(F(5, 2)), "conic6/one-external",
                 ["external point on exactly one chord"]),
    "CONIC6-TYPE1": (lambda: _conic(_CONC, [_P(-1, 0, 1)], chords=3),
                     _exact(F(7, 3)), "conic6/three-concurrent-chords", ()),
    "CONIC6-TYPE2-I": (lambda: _conic(_SIX, [_P(1, 0, 2)], chords=0),
                       _exact(F(5, 2)), "conic6/no-chord", ()),
    "CONIC6-TYPE2-II": (lambda: _conic(_SIX, [_P(2, 2, 1)], chords=1),
                        _exact(F(5, 2)), "conic6/one-chord", ()),
    "CONIC6-TYPE2-III": (lambda: _conic(_SIX, [_P(3, 3, 2)], chords=2),
                         _exact(F(5, 2)), "conic6/two-chords", ()),
    "CONIC7+Q-CONC3": (lambda: _conic(_CONC + (0,), [_P(-1, 0, 1)], chords=3),
                       _exact(F(5, 2)), "conic7/three-concurrent-chords", ()),
    "CONIC7+Q-SUB1": (lambda: _conic(_SIX + (4,), [_P(3, 3, 2)], chords=2),
                      _exact(F(13, 5)), "conic7/two-chords", ()),
    "CONIC7+Q-SUB2": (lambda: _conic(_SIX + (5,), [_P(2, 2, 1)], chords=1),
                      _exact(F(13, 5)), "conic7/one-chord", ()),
    "CONIC7+Q-SUB3": (lambda: _conic(_SIX + (4,), [_P(1, 0, 2)], chords=0),
                      _lower(F(13, 5)), "conic7/no-chord",
                      ["lower bound only; exactness open"]),
    "CONIC8-CONC4": (lambda: _conic(_CONC + (-3, F(-1, 3)), [_P(-1, 0, 1)], chords=4),
                     _exact(F(5, 2)), "conic8/four-concurrent-chords", ()),
    "CUBIC9": (lambda: _cubic([_P(0, 0, 1), _P(1, 0, 1), _P(1, -1, 1), _P(2, 2, 1),
                               _P(1, 0, -1), _P(2, -3, 1), _P(1, 1, -1), _P(0, 1, 0),
                               _P(2, -5, 8)]),
               _exact(3), "cubic9/smooth",
               ["points generated by chord-tangent iteration from (0:0:1) and (1:0:1)"]),
    "NINE-72": (lambda: _conic(_SIX + (4,), [_P(1, 0, 2), _P(1, 0, 3)]),
                _lower(F(13, 5)), "nine/7conic+2/plain-external", ()),
    "NINE-72-COMMON-I": (lambda: _conic((-2, F(-1, 2), 2, F(1, 2), 3, F(1, 3), F(-3, 26)),
                                        [_P(-1, 0, 1), _P(-3, -2, 8)]),
                         _lower(F(45, 17)), "nine/7conic+2/common-chord-overlap3", ()),
    "NINE-72-COMMON-II": (lambda: _conic((3, F(1, 3), 2, F(1, 2), F(1, 7), 7, -3),
                                         [_P(-1, 0, 1), _P(5, 3, 5)]),
                          _lower(F(18, 7)), "nine/7conic+2/common-chord-overlap4", ()),
    "NINE-72-NOCOMMON": (lambda: _conic(_CONC + (F(11, 57),), [_P(-1, 0, 1), _P(-1, 13, 31)]),
                         _lower(F(122, 43)), "nine/7conic+2/disjoint-triples", ()),
    "NINE-63A": (lambda: _conic(_SIX, [_P(1, 1, 0), _P(1, 2, 0), _P(1, 3, 0)],
                                line=STANDARD_LINE),
                 _exact(3), "nine/6conic+3/line-avoids-conic", ()),
    "NINE-63B": (lambda: _conic(_SIX, [_P(0, 1, -1), _P(1, 2, 0), _P(2, 1, 3)],
                                line=PlaneCurve(1, [2, -1, -1])),
                 _lower(F(58, 23)), "nine/6conic+3/one-shared-point", ()),
    "NINE-63C-SUB1I": (lambda: _conic(_SHARED, [_P(1, 2, 1), _P(1, 3, 1), _P(1, 4, 1)],
                                      line=_CHORD_1_M1, shared=2),
                       _lower(F(13, 5)), "nine/6conic+3/two-shared/free-point-plain", ()),
    "NINE-63C-SUB1II": (lambda: _conic(_SHARED, [_P(1, 2, 1), _P(5, -1, 5), _P(2, 1, 2)],
                                       line=_CHORD_1_M1, shared=2),
                        _lower(F(53, 21)), "nine/6conic+3/two-shared/free-point-conjugate", ()),
    "NINE-63C-SUB2": (lambda: _conic(_SHARED, [_P(2, 1, 2), _P(3, 1, 3), _P(5, 7, 5)],
                                     line=_CHORD_1_M1, shared=2),
                      _lower(F(13, 5)), "nine/6conic+3/two-shared/all-on-single-chords", ()),
    "NINE-63C-SUB3": (lambda: _conic((1, -1, 0, 2, 3, F(1, 5)),
                                     [_P(2, 1, 2), _P(3, 1, 3), _P(11, 7, 11)],
                                     line=_CHORD_1_M1, shared=2),
                      _exact(F(13, 5)), "nine/6conic+3/two-shared/one-double-chord-point",
                      ["companion mirrored configuration certified identically"]),
    "NINE-63C-SUB4": (lambda: _conic((1, -1, 2, F(1, 2), 3, F(1, 3)),
                                     [_P(5, 7, 5), _P(7, 5, 7), _P(5, 4, 5)],
                                     line=_CHORD_1_M1, shared=2),
                      _lower(F(59, 23)), "nine/6conic+3/two-shared/two-double-chord-points",
                      ()),
    "NINE-54": (lambda: _conic((0, 1, 2, 3, -1), [_P(1, a, 0) for a in (1, 2, 3, 4)],
                               line=STANDARD_LINE),
                _lower(F(14, 5)), "nine/5conic+4line",
                ["stated lower bound 14/5; the LP optimum is 23/8"]),
}


def fixture_names():
    return list(_FIXTURES)


@lru_cache(maxsize=None)
def fixture(name):
    """Canonical instance for a registered configuration name, in any letter case."""
    try:
        build, expected, rule, notes = _FIXTURES[name.upper()]
    except KeyError:
        raise UnknownFixtureError("unknown fixture %r" % name) from None
    try:
        points = build()
        if len(set(points)) != len(points):
            raise FixtureError("fixture points are not pairwise distinct")
    except FixtureError as exc:
        raise FixtureError("%s: %s" % (name, exc)) from None
    return FixtureSpec(name, points, expected, rule, notes)
