import json
from pathlib import Path

import pytest

from helpers import chords_through, q_collinear_set
from waldschmidt import fixtures
from waldschmidt.fixtures import (CUBIC9_CURVE, STANDARD_CONIC, STANDARD_LINE, FixtureError,
                                  UnknownFixtureError, conic_chord, conic_point, fixture,
                                  fixture_names)
from waldschmidt.geometry import (ProjPoint, conic_through, contains, is_irreducible_conic,
                                  is_smooth_cubic, line_through)

REQUIRED = [
    "L4Q3-A", "L4Q3-B", "L4Q3-C", "L4Q3-D", "L5Q3-3QC", "L5Q3-Y", "L6Q3-Z",
    "LNQ3-52(8)", "LNQ3-52(9)", "LNQ3-52(10)", "CONIC5", "CONIC6+Q",
    "CONIC6-TYPE1", "CONIC6-TYPE2-I", "CONIC6-TYPE2-II", "CONIC6-TYPE2-III",
    "CONIC7+Q-CONC3", "CONIC7+Q-SUB1", "CONIC7+Q-SUB2", "CONIC7+Q-SUB3",
    "CONIC8-CONC4", "CUBIC9", "NINE-54",
]


def test_registry_contains_required_names():
    names = fixture_names()
    for name in REQUIRED:
        assert name in names


def test_unknown_fixture_raises():
    # LNQ3-52(11) once resolved although no list named it
    for name in ("NO-SUCH-THING", "LNQ3-52(11)"):
        with pytest.raises(UnknownFixtureError):
            fixture(name)


def _registered(build):
    """A call that looks up `build` under a fresh registry name."""
    def call(monkeypatch):
        monkeypatch.setitem(fixtures._FIXTURES, "BROKEN", (build, None, "none", ()))
        fixture("BROKEN")
    return call


# case -> (call that breaks one self-check, the message it must raise)
BROKEN = {
    "line-side-count": (lambda mp: fixtures._line([(1, 1), (1, 2), (1, 3), (1, 4)], 1),
                        "expected 1 side points, found 0"),
    "conic-chord-count": (lambda mp: fixtures._conic((0, 1, 2, 3, -1, -2), [ProjPoint(1, 0, 1)],
                                                     chords=2),
                          "expected concurrency 2, found 1"),
    "external-on-conic": (lambda mp: fixtures._conic((0, 1, 2), [conic_point(5)]),
                          "lies on the standard conic"),
    "extra-off-line": (lambda mp: fixtures._conic((0, 1, 2, 3, -1), [ProjPoint(1, 2, 1)],
                                                  line=STANDARD_LINE),
                       "off the carrier line"),
    "shared-count": (lambda mp: fixtures._conic((1, -1, 0, 2, 3, -2), [ProjPoint(1, 2, 1)],
                                                line=conic_chord(1, -1), shared=3),
                     "exactly 3 conic points"),
    "off-cubic": (lambda mp: fixtures._cubic([ProjPoint(0, 0, 1), ProjPoint(1, 1, 1)]),
                  "off the cubic"),
    "repeated-point": (_registered(lambda: [ProjPoint(0, 0, 1)] * 2),
                       "BROKEN: fixture points are not pairwise distinct"),
    "repeated-conic-point": (
        _registered(lambda: fixtures._conic((0, 0, 1), [ProjPoint(1, 0, 2)], chords=0)),
        "BROKEN: fixture points are not pairwise distinct"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_every_self_check_fires(case, monkeypatch):
    call, message = BROKEN[case]
    with pytest.raises(FixtureError, match=message):
        call(monkeypatch)


def test_registry_matches_snapshot():
    # names in order and every fixture's JSON, byte for byte, as first recorded
    snap = json.loads((Path(__file__).parent / "fixture_snapshot.json").read_text())
    assert fixture_names() == snap["names"]
    for name in fixture_names():
        assert json.dumps(fixture(name).to_json()) == json.dumps(snap["fixtures"][name])
    # a lookup is case-insensitive and keeps the name as given
    alias = dict(snap["fixtures"]["CONIC6+Q"], name="conic6+q")
    assert json.dumps(fixture("conic6+q").to_json()) == json.dumps(alias)


def test_generation_is_deterministic():
    for name in fixture_names():
        a = json.dumps(fixture(name).to_json(), sort_keys=True)
        fixture.cache_clear()
        b = json.dumps(fixture(name).to_json(), sort_keys=True)
        assert a == b


def test_points_pairwise_distinct():
    for name in fixture_names():
        pts = fixture(name).points
        assert len(set(pts)) == len(pts)


def test_conic5_parameters():
    pts = fixture("CONIC5").points
    assert pts == [conic_point(t) for t in (0, 1, 2, 3, -1)]


def test_side_point_counts_match_names():
    for name, expect in (("L4Q3-A", 3), ("L4Q3-B", 2), ("L4Q3-C", 1),
                         ("L4Q3-D", 0), ("L5Q3-3QC", 3), ("L5Q3-Y", 2),
                         ("L6Q3-Z", 3)):
        fx = fixture(name)
        qs = fx.points[-3:]
        assert len(q_collinear_set(fx.points[:-3], qs)) == expect


def test_concurrency_predicates():
    for name, expect in (("CONIC6-TYPE1", 3), ("CONIC6-TYPE2-I", 0),
                         ("CONIC6-TYPE2-II", 1), ("CONIC6-TYPE2-III", 2),
                         ("CONIC7+Q-CONC3", 3), ("CONIC7+Q-SUB1", 2),
                         ("CONIC7+Q-SUB2", 1), ("CONIC7+Q-SUB3", 0),
                         ("CONIC8-CONC4", 4)):
        fx = fixture(name)
        assert len(chords_through(fx.points[-1], fx.points[:-1])) == expect


def test_cubic9_points_on_smooth_cubic():
    fx = fixture("CUBIC9")
    assert len(fx.points) == 9
    assert is_smooth_cubic(CUBIC9_CURVE)
    for p in fx.points:
        assert contains(CUBIC9_CURVE, p)


def test_nine72_chord_patterns():
    fx = fixture("NINE-72-COMMON-I")
    conic_pts, e1, e2 = fx.points[:7], fx.points[7], fx.points[8]
    assert len(chords_through(e1, conic_pts)) == 3
    assert len(chords_through(e2, conic_pts)) == 3
    common = line_through(e1, e2)
    members = [p for p in conic_pts if contains(common, p)]
    assert len(members) == 2

    fx = fixture("NINE-72-NOCOMMON")
    conic_pts, e1, e2 = fx.points[:7], fx.points[7], fx.points[8]
    assert len(chords_through(e1, conic_pts)) == 3
    assert len(chords_through(e2, conic_pts)) == 3
    common = line_through(e1, e2)
    assert sum(1 for p in conic_pts if contains(common, p)) < 2


def test_nine63c_sub1ii_conjugate_pair():
    fx = fixture("NINE-63C-SUB1II")
    four = [p for p in fx.points[:6] if not contains(line_through(fx.points[6],
                                                                  fx.points[7]), p)]
    companion = conic_through(four + [fx.points[6]])
    assert is_irreducible_conic(companion)
    assert contains(companion, fx.points[7])


def test_expected_blocks_serialize():
    fx = fixture("L4Q3-A")
    blob = fx.to_json()
    assert blob["expected"] == {"exact": "16/7"}
    assert blob["points"][0] == ["1", "-1", "0"]
    fx = fixture("NINE-54")
    assert fx.to_json()["expected"] == {"lower": "14/5"}


def test_nine54_line_points_on_standard_line():
    pts = fixture("NINE-54").points
    assert all(contains(STANDARD_LINE, p) for p in pts[5:])
    assert not any(contains(STANDARD_LINE, p) for p in pts[:5])


def test_standard_carriers():
    assert is_irreducible_conic(STANDARD_CONIC)
    for name in ("CONIC6+Q", "CONIC7+Q-SUB1", "CONIC8-CONC4"):
        fx = fixture(name)
        for p in fx.points[:-1]:
            assert contains(STANDARD_CONIC, p)
        assert not contains(STANDARD_CONIC, fx.points[-1])
