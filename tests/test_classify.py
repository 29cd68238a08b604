import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import chords_through, transform_points, unimodular
from waldschmidt.bezout import LowerBoundCertificate, verify_certificate
from waldschmidt.classify import InconsistencyError, classify
from waldschmidt.engine import verify_upper
from waldschmidt.fatpoints import FatPointScheme, alpha
from waldschmidt.fixtures import conic_point, fixture, fixture_names
from waldschmidt.geometry import DuplicatePointError, NonUniqueConicError, ProjPoint
from golden import GOLDEN

F = Fraction

EXPECTED_FAMILY = {
    "L4Q3-A": "line7/three-side-points",
    "L4Q3-B": "line7/two-side-points",
    "L4Q3-C": "line7/one-side-point",
    "L4Q3-D": "line-n/extended-free-points",
    "L5Q3-3QC": "line8/three-side-points",
    "L5Q3-Y": "line8/two-side-points",
    "L6Q3-Z": "line9/three-side-points",
    "LNQ3-52(8)": "line-n/extended-free-points",
    "LNQ3-52(9)": "line-n/extended-free-points",
    "LNQ3-52(10)": "line-n/extended-free-points",
    "CONIC6+Q": "conic6/generic-external",
    "CONIC6-TYPE1": "conic6/three-concurrent-chords",
    "CONIC6-TYPE2-I": "conic6/generic-external",
    "CONIC6-TYPE2-II": "conic6/generic-external",
    "CONIC6-TYPE2-III": "conic6/generic-external",
    "CONIC7+Q-CONC3": "conic7/three-concurrent-chords",
    "CONIC7+Q-SUB1": "conic7/two-chords",
    "CONIC7+Q-SUB2": "conic7/one-chord",
    "CONIC7+Q-SUB3": "conic7/no-chord",
    "CONIC8-CONC4": "conic8/four-concurrent-chords",
    "CUBIC9": "cubic9/smooth",
    "NINE-72": "nine/7conic+2/plain-external",
    "NINE-72-COMMON-I": "nine/7conic+2/common-chord-overlap3",
    "NINE-72-COMMON-II": "nine/7conic+2/common-chord-overlap4",
    "NINE-72-NOCOMMON": "nine/7conic+2/disjoint-triples",
    "NINE-63A": "nine/6conic+3/line-avoids-conic",
    "NINE-63B": "nine/6conic+3/one-shared-point",
    "NINE-63C-SUB1I": "nine/6conic+3/two-shared/free-point-plain",
    "NINE-63C-SUB1II": "nine/6conic+3/two-shared/free-point-conjugate",
    "NINE-63C-SUB2": "nine/6conic+3/two-shared/all-on-single-chords",
    "NINE-63C-SUB3": "nine/6conic+3/two-shared/one-double-chord-point",
    "NINE-63C-SUB4": "nine/6conic+3/two-shared/two-double-chord-points",
    "NINE-54": "nine/5conic+4line",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILY))
def test_fixture_families_and_values(name):
    fx = fixture(name)
    res = classify(fx.points)
    assert res.family == EXPECTED_FAMILY[name]
    if fx.expected.kind == "exact":
        assert res.exact == fx.expected.value
    else:
        assert res.exact is None
        assert res.lower >= fx.expected.value
        assert res.lower <= res.upper


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILY))
def test_exact_verdicts_carry_matching_certificates(name):
    fx = fixture(name)
    res = classify(fx.points)
    cert = res.certificates.get("lower")
    assert cert is not None
    assert verify_certificate(cert)
    assert cert.bound == res.lower
    if res.exact is not None:
        ratio, divisor = res.certificates["upper"]
        assert ratio == res.exact == cert.bound
        again = verify_upper(divisor, FatPointScheme.uniform(fx.points, divisor.m))
        assert again == res.exact


def test_verdicts_match_snapshot():
    # every fixture's classify JSON, and CONIC5's fallback swept to m = 8,
    # byte for byte as first recorded
    snap = json.loads((Path(__file__).parent / "classify_snapshot.json").read_text())
    assert list(snap["fixtures"]) == fixture_names()
    for name in fixture_names():
        got = classify(fixture(name).points).to_json()
        assert json.dumps(got, sort_keys=True) == json.dumps(snap["fixtures"][name],
                                                             sort_keys=True)
    got = classify(fixture("CONIC5").points, m_max=8).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(snap["CONIC5 m_max=8"],
                                                         sort_keys=True)


def test_nine_collinear_points():
    pts = [ProjPoint(1, a, 0) for a in range(9)]
    res = classify(pts)
    assert res.family == "all-collinear"
    assert res.exact == 1


def test_all_but_one_collinear_value():
    for n in (7, 9):
        pts = [ProjPoint(1, a, 0) for a in range(n - 1)] + [ProjPoint(0, 0, 1)]
        res = classify(pts)
        assert res.exact == F(2 * n - 3, n - 1)


def test_all_but_two_and_residual_triple():
    pts = [ProjPoint(1, a, 0) for a in range(6)]
    res = classify(pts + [ProjPoint(0, 0, 1), ProjPoint(0, 1, 1)])
    assert res.family == "all-but-two-collinear"
    assert res.exact == 2
    pts5 = [ProjPoint(1, a, 0) for a in range(5)]
    res = classify(pts5 + [ProjPoint(0, 0, 1), ProjPoint(0, 1, 1), ProjPoint(0, 2, 1)])
    assert res.family == "residual-triple-collinear"
    assert res.exact == 2


def test_conic5_falls_back_to_exact_two():
    res = classify(fixture("CONIC5").points)
    assert res.family == "fallback/bounds"
    assert res.exact == 2


def test_fallback_on_small_generic_set():
    pts = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1),
           ProjPoint(1, 1, 1)]
    res = classify(pts)
    assert res.family == "fallback/bounds"
    assert res.lower <= res.upper


def _fallback_with_bound(monkeypatch, bound):
    """classify(L4Q3-D) through the fallback row alone, its LP replaced by a
    certificate of the golden line7/no-side-point system claiming bound."""
    g = GOLDEN["line7/no-side-point"]
    # the package re-exports the classify function under the module's name
    module = importlib.import_module("waldschmidt.classify")
    monkeypatch.setattr(module, "MATCHERS", [])
    monkeypatch.setattr(module, "_lp_lower", lambda *args, **kwargs:
                        LowerBoundCertificate(bound, g.duals, g.system))
    return classify(fixture("L4Q3-D").points)


# the verdict the removed conclude() built, now the fallback row's through _certify
def test_conclude_exact_and_interval(monkeypatch):
    res = _fallback_with_bound(monkeypatch, F(5, 2))
    assert res.family == "fallback/bounds"
    assert res.exact == F(5, 2)
    assert res.lower == res.upper == F(5, 2)
    blob = res.to_json()
    assert blob["value"] == {"exact": "5/2"}
    assert blob["certificates"]["sweep"][1] == [2, "5", "5/2", "search"]

    res2 = _fallback_with_bound(monkeypatch, F(2))
    assert res2.exact is None
    assert (res2.lower, res2.upper) == (F(2), F(5, 2))
    assert res2.to_json()["value"] == {"lower": "2", "upper": "5/2"}
    assert res2.notes == ["no decision-table row matched; generated-curve bounds"]


def test_conclude_rejects_inverted_bracket(monkeypatch):
    with pytest.raises(InconsistencyError):
        _fallback_with_bound(monkeypatch, F(4))


def test_rejected_row_is_named_in_notes(monkeypatch):
    def no_unique_conic(pts):
        raise NonUniqueConicError("evaluation matrix has rank < 5")

    # the package re-exports the function classify under the module's name
    module = importlib.import_module("waldschmidt.classify")
    monkeypatch.setattr(module, "conic_through", no_unique_conic)
    res = classify(fixture("L4Q3-B").points)
    assert res.family == "fallback/bounds"
    assert "table_collinear rejected: evaluation matrix has rank < 5" in res.notes


def test_collinear_rows_never_enumerate_conics(monkeypatch):
    def no_conic_search(points, collinear_groups):
        raise AssertionError("a collinear row enumerated conics")

    monkeypatch.setattr(importlib.import_module("waldschmidt.geometry"),
                        "irreducible_conics", no_conic_search)
    res = classify(fixture("LNQ3-52(10)").points)
    assert res.family == "line-n/extended-free-points"
    assert res.exact == F(5, 2)


def test_lp_subset_note_only_for_a_proper_subset():
    # L4Q3-D's seven-point LP subset is the whole input
    lower = classify(fixture("L4Q3-D").points).to_json()["certificates"]["lower"]
    assert "note" not in lower
    lower = classify(fixture("L5Q3-3QC").points).to_json()["certificates"]["lower"]
    assert lower["note"] == "restricted to a seven-point subset"


# eight or more conic points and an external q: the LP keeps two chords
# through q whole and one end of every further chord
@pytest.mark.parametrize("ts, q, chords, family", [
    ((0, 1, 2, 3, -1, -2, 4, 5), (1, 0, 1), 1, "conic8/low-concurrency"),
    ((0, 1, 2, 3, -1, -2, 4, 5), (3, 3, 2), 2, "conic8/low-concurrency"),
    ((2, F(1, 2), 3, F(1, 3), -2, F(-1, 2), 0, 5), (-1, 0, 1), 3,
     "conic8/low-concurrency"),
    ((0, 1, 2, 3, 4, 5, 6, -1, -2), (1, 0, 1), 1, "conic-many/external"),
])
def test_seven_point_subset_keeps_chords_through_q(ts, q, chords, family):
    conic_pts = [conic_point(t) for t in ts]
    q = ProjPoint(*q)
    assert len(chords_through(q, conic_pts)) == chords
    points = conic_pts + [q]
    res = classify(points)
    assert res.family == family
    assert (res.lower, res.upper) == (F(13, 5), 3)
    assert verify_certificate(res.certificates["lower"])
    for m in (1, 2, 3):
        assert res.lower <= F(alpha(FatPointScheme.uniform(points, m)).alpha, m)


@pytest.mark.parametrize("name", fixture_names())
def test_table_rows_agree_with_golden_floors(name):
    res = classify(fixture(name).points)
    g = GOLDEN.get(res.family)
    if g is not None and g.equality:
        assert res.lower == g.bound
    elif g is not None:
        assert res.lower >= g.bound
    assert not any("differs from the table floor" in note
                   or "instead of the table value" in note for note in res.notes)


def test_duplicate_points_rejected():
    p = ProjPoint(1, 2, 1)
    with pytest.raises(DuplicatePointError):
        classify([p, p, ProjPoint(0, 1, 0)])


def test_projective_invariance_sample():
    rng = random.Random(42)
    for name in ("L4Q3-B", "CONIC6-TYPE1", "NINE-63C-SUB3"):
        fx = fixture(name)
        base = classify(fx.points)
        for _ in range(10):
            t = unimodular(rng)
            res = classify(transform_points(t, fx.points))
            assert res.family == base.family
            assert res.exact == base.exact
            assert res.lower == base.lower


def side_configuration(q, k):
    """Carrier points with q of them on triangle sides and k total."""
    side_params = [(1, -1), (0, 1), (1, 0)][:q]
    free_params = [(1, a) for a in range(1, k - q + 1)]
    pts = [ProjPoint(a, b, 0) for a, b in side_params + free_params]
    pts += [ProjPoint(0, 0, 1), ProjPoint(1, 0, 1), ProjPoint(0, 1, 1)]
    return pts


TABLE_VALUES = {
    (3, 4): F(16, 7), (3, 5): F(7, 3), (3, 6): F(17, 7),
    (2, 4): F(7, 3), (2, 5): F(17, 7),
    (1, 4): F(17, 7),
    (0, 4): F(5, 2), (0, 5): F(5, 2), (1, 5): F(5, 2), (0, 6): F(5, 2),
    (2, 6): F(5, 2), (1, 6): F(5, 2), (3, 7): F(5, 2), (0, 7): F(5, 2),
}


@pytest.mark.parametrize("q,k", sorted(TABLE_VALUES))
def test_side_point_table_is_exhaustive(q, k):
    pts = side_configuration(q, k)
    res = classify(pts)
    assert res.exact == TABLE_VALUES[(q, k)]
