"""Acceptance suite: one summary line per criterion, exact equalities throughout.

Two sub-claims about degree-5 sections at multiplicity 2 for the concurrent
chord families are provably unattainable; the strict-xfail tests below state
them faithfully and carry the impossibility argument.  Every other criterion
is asserted at full strength.
"""

import random
from fractions import Fraction

import pytest

from helpers import lp_min_t_by_vertices, transform_points, unimodular
from waldschmidt import cli
from waldschmidt.bezout import solve_min_ratio, verify_certificate
from waldschmidt.classify import classify
from waldschmidt.engine import Engine
from waldschmidt.fatpoints import (FatPointScheme, hilbert_function,
                                   interpolation_matrix)
from waldschmidt.fixtures import fixture, fixture_names
from waldschmidt.geometry import ProjPoint
from golden import GOLDEN, golden_names
from waldschmidt.linalg import rank_exact, rank_modular

F = Fraction
PRIMES = (1000003, 1000033, 1000037)

ENGINE = Engine()


def report(criterion, ok, detail):
    print("[criterion %s] %s: %s" % (criterion, "PASS" if ok else "FAIL", detail))


# ------------------------------------------------------------------ criterion 1

ROW_FIXTURES = {
    F(16, 7): ["L4Q3-A"],
    F(7, 3): ["L4Q3-B", "L5Q3-3QC"],
    F(17, 7): ["L4Q3-C", "L5Q3-Y", "L6Q3-Z"],
    F(5, 2): ["L4Q3-D", "LNQ3-52(8)", "LNQ3-52(9)", "LNQ3-52(10)"],
}


def collinear_rows(n):
    carrier = [ProjPoint(1, a, 0) for a in range(n)]
    yield carrier, F(1)
    yield carrier[:n - 1] + [ProjPoint(0, 0, 1)], F(2 * n - 3, n - 1)
    yield carrier[:n - 2] + [ProjPoint(0, 0, 1), ProjPoint(0, 1, 1)], F(2)
    yield (carrier[:n - 3]
           + [ProjPoint(0, 0, 1), ProjPoint(0, 1, 1), ProjPoint(0, 2, 1)]), F(2)


def test_criterion1_section2_table():
    failures = []
    for n in range(7, 11):
        for pts, value in collinear_rows(n):
            res = classify(pts)
            if res.exact != value:
                failures.append("n=%d expected %s got %r" % (n, value, res.exact))
            scheme = FatPointScheme.uniform(pts, 1)
            for d in (n - 1, n + 2):
                if hilbert_function(scheme, d) != n:
                    failures.append("n=%d hilbert(%d) != %d" % (n, d, n))
    for value, names in ROW_FIXTURES.items():
        for name in names:
            pts = fixture(name).points
            res = classify(pts)
            if res.exact != value:
                failures.append("%s expected %s got %r" % (name, value, res.exact))
            n = len(pts)
            scheme = FatPointScheme.uniform(pts, 1)
            for d in (n - 1, n + 2):
                if hilbert_function(scheme, d) != n:
                    failures.append("%s hilbert(%d) != %d" % (name, d, n))
    report(1, not failures,
           "section-2 table rows classify exactly and Hilbert functions "
           "stabilize at n%s" % ("" if not failures else "; " + "; ".join(failures)))
    assert not failures


# ------------------------------------------------------------------ criterion 2

SWEEP_ENDPOINTS = [
    ("L4Q3-A", 7, 16, F(16, 7)),
    ("L4Q3-B", 3, 7, F(7, 3)),
    ("L4Q3-C", 7, 17, F(17, 7)),
    ("L4Q3-D", 2, 5, F(5, 2)),
    ("CONIC6-TYPE1", 3, 7, F(7, 3)),
    ("CONIC7+Q-SUB1", 5, 13, F(13, 5)),
]


def test_criterion2_sweep_endpoints():
    failures = []
    for name, m, want, hint in SWEEP_ENDPOINTS:
        got = ENGINE.alpha_uniform(fixture(name).points, m, lower_hint=hint).alpha
        if got != want:
            failures.append("%s m=%d alpha=%d != %d" % (name, m, got, want))
    report(2, not failures,
           "sweep endpoints match (alpha(2 CONIC8-CONC4) excluded: the stated "
           "value 5 is unattainable, see the strict-xfail test and notes)"
           + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures


@pytest.mark.xfail(strict=True,
                   reason="stated endpoint alpha(2X)=5 is impossible: any "
                          "degree-5 form with nine double points must contain "
                          "the carrier conic (crossing count 16 > 10) and the "
                          "residual cubic cannot exist; the true value is 6 and "
                          "5/2 is attained at m=4 instead")
def test_criterion2_defect_conic8_conc4_alpha_at_m2():
    got = ENGINE.alpha_uniform(fixture("CONIC8-CONC4").points, 2,
                               lower_hint=F(5, 2)).alpha
    report(2, got == 5, "alpha(2 CONIC8-CONC4) stated 5, computed %d" % got)
    assert got == 5


# ------------------------------------------------------------------ criterion 3

def test_criterion3_golden_lp_systems():
    failures = []
    for name in golden_names():
        g = GOLDEN[name]
        cert = solve_min_ratio(g.system)
        oracle = lp_min_t_by_vertices(g.system)
        if cert.bound != oracle:
            failures.append("%s simplex %s != oracle %s" % (name, cert.bound, oracle))
        if cert.bound < g.bound:
            failures.append("%s optimum %s below stated %s" % (name, cert.bound, g.bound))
        if g.equality and cert.bound != g.bound:
            failures.append("%s expected equality at %s, got %s"
                            % (name, g.bound, cert.bound))
        if not verify_certificate(g.certificate()):
            failures.append("%s known multipliers rejected" % name)
    nine54 = solve_min_ratio(GOLDEN["nine/5conic+4line"].system).bound
    if nine54 != F(23, 8):
        failures.append("5conic+4line optimum %s != 23/8" % nine54)
    report(3, not failures,
           "golden systems: optima certified (5conic+4line optimum 23/8 > 14/5), "
           "known multiplier vectors all verify"
           + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures


# ------------------------------------------------------------------ criterion 4

EXACT_FIXTURES = [n for n in fixture_names()
                  if fixture(n).expected is not None
                  and fixture(n).expected.kind == "exact"]
DENOMINATOR_DEFECTS = ("CONIC7+Q-CONC3", "CONIC8-CONC4")


def test_criterion4_certified_exactness_closure():
    failures = []
    for name in EXACT_FIXTURES:
        fx = fixture(name)
        v = fx.expected.value
        res = classify(fx.points)
        cert = res.certificates.get("lower")
        upper = res.certificates.get("upper")
        if res.exact != v or cert is None or upper is None:
            failures.append("%s did not certify %s" % (name, v))
            continue
        ratio, divisor = upper
        if not (cert.bound == ratio == v and verify_certificate(cert)):
            failures.append("%s certificates disagree" % name)
            continue
        att_m = divisor.m if name in DENOMINATOR_DEFECTS else v.denominator
        trace = ENGINE.sweep(fx.points, att_m, lower_hint=v)
        if trace[att_m - 1].alpha != v * att_m:
            failures.append("%s sweep misses %s at m=%d" % (name, v, att_m))
        if any(e.ratio < v for e in trace):
            failures.append("%s sweep dipped below the certified value" % name)
    report(4, not failures,
           "exact fixtures carry equal lower/upper certificates and attaining "
           "sweeps (attainment at the construction multiplicity for the two "
           "concurrent-chord families, see notes)"
           + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures


@pytest.mark.parametrize("name", DENOMINATOR_DEFECTS)
@pytest.mark.xfail(strict=True,
                   reason="the sweep cannot attain 5/2 at m=2 for these "
                          "families: alpha(2X)=6 by the carrier-conic crossing "
                          "argument; attainment happens at m=4")
def test_criterion4_defect_attainment_at_reduced_denominator(name):
    fx = fixture(name)
    v = fx.expected.value
    trace = ENGINE.sweep(fx.points, v.denominator, lower_hint=v)
    assert trace[v.denominator - 1].alpha == v * v.denominator


def test_criterion4_check_exits_zero_on_registry():
    cfg = cli.RunConfig(m_max=2)
    code = cli.cmd_check(None, None, True, cfg)
    report(4, code == 0, "check over the full fixture registry exits %d" % code)
    assert code == 0


# ------------------------------------------------------------------ criterion 5

@pytest.fixture(scope="module")
def swept():
    """Classification plus sweeps to m=4 for every fixture, shared downstream."""
    data = {}
    for name in fixture_names():
        pts = fixture(name).points
        res = classify(pts)
        trace = ENGINE.sweep(pts, 4, lower_hint=res.lower)
        data[name] = (res, trace)
    return data


def test_criterion5_projective_invariance(swept):
    rng = random.Random(0)
    failures = []
    for name in fixture_names():
        base, trace = swept[name]
        pts = fixture(name).points
        for _ in range(100):
            t = unimodular(rng)
            moved = transform_points(t, pts)
            res = classify(moved)
            if (res.family, res.exact, res.lower, res.upper) != (
                    base.family, base.exact, base.lower, base.upper):
                failures.append("%s not invariant under %r" % (name, t))
                break
            a1 = ENGINE.alpha_uniform(moved, 1, lower_hint=res.lower).alpha
            if a1 != trace[0].alpha:
                failures.append("%s alpha(1X) changed under %r" % (name, t))
                break
    report(5, not failures,
           "classification and alpha invariant under 100 unimodular transforms "
           "per fixture" + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures


def test_criterion5_alpha_growth_and_subadditivity(swept):
    failures = []
    for name, (res, trace) in swept.items():
        alphas = {e.m: e.alpha for e in trace}
        for m in (1, 2, 3):
            if alphas[m + 1] < alphas[m] + 1:
                failures.append("%s growth fails at m=%d" % (name, m))
        for m1 in (1, 2):
            for m2 in (1, 2):
                if m1 + m2 <= 4 and alphas[m1 + m2] > alphas[m1] + alphas[m2]:
                    failures.append("%s subadditivity fails at %d+%d"
                                    % (name, m1, m2))
    report(5, not failures, "alpha growth and subadditivity hold for m <= 4"
           + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures


def test_criterion5_modular_rank_agreement(swept):
    failures = []
    for name, (res, trace) in swept.items():
        pts = fixture(name).points
        for e in trace[:2]:
            mat = interpolation_matrix(FatPointScheme.uniform(pts, e.m), e.alpha)
            exact = rank_exact(mat)
            for p in PRIMES:
                if rank_modular(mat, p) != exact:
                    failures.append("%s m=%d modular rank mismatch at %d"
                                    % (name, e.m, p))
    report(5, not failures,
           "modular and exact ranks agree at %d primes on every touched matrix"
           % len(PRIMES)
           + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures


def test_criterion5_lp_soundness(swept):
    failures = []
    for name, (res, trace) in swept.items():
        for e in trace:
            if e.ratio < res.lower:
                failures.append("%s ratio below LP bound at m=%d" % (name, e.m))
    report(5, not failures, "alpha(mX)/m >= certified LP bound for m <= 4"
           + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures


# ------------------------------------------------------------------ criterion 6

def test_criterion6_cubic9():
    fx = fixture("CUBIC9")
    res = classify(fx.points)
    failures = []
    if res.exact != 3:
        failures.append("classification %r" % res.exact)
    for m in (1, 2, 3, 4):
        got = ENGINE.alpha_uniform(fx.points, m, lower_hint=F(3)).alpha
        if got != 3 * m:
            failures.append("alpha(%dX)=%d != %d" % (m, got, 3 * m))
    report(6, not failures, "CUBIC9 classifies to exact 3 and alpha(mX)=3m "
           "for m <= 4" + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures
