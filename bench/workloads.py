"""Seeded inputs, ops and reference checks for the benchmark workloads.

Every workload is a closed loop: one op at a time, the next starting when the
previous returns.  The seed only picks the unimodular images; the library
sees nothing but the generated points.
"""

import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

from waldschmidt.fixtures import fixture, fixture_names
from waldschmidt.geometry import transform_point

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SWEEP_M = 4           # sweep-hinted computes alpha(mX) for m = 1..SWEEP_M
CLASSIFY_ROUNDS = 5   # images of each fixture in one classify-images pass

# Resolved at call time, so the tracer's wrappers are seen while installed.
_classify = importlib.import_module("waldschmidt.classify")
_engine = importlib.import_module("waldschmidt.engine")
_fatpoints = importlib.import_module("waldschmidt.fatpoints")
_bezout = importlib.import_module("waldschmidt.bezout")
_geometry = importlib.import_module("waldschmidt.geometry")


def unimodular(rng, size=4):
    """Random 3x3 integer matrix of determinant +-1, a product of `size` elementary moves."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(size):
        kind = rng.randrange(3)
        i, j = rng.sample(range(3), 2)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(3):
                m[i][k] += c * m[j][k]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            for k in range(3):
                m[i][k] = -m[i][k]
    return m


class Input:
    __slots__ = ("name", "points", "hint")

    def __init__(self, name, points, hint=None):
        self.name = name
        self.points = points
        self.hint = hint

    def height(self):
        return max(abs(c) for p in self.points for c in p.coords)


def _images(seed, rounds):
    """`rounds` rounds over the registry, each fixture mapped by a fresh unimodular matrix."""
    rng = random.Random(seed)
    fixtures = [fixture(n) for n in fixture_names()]
    out = []
    for _ in range(rounds):
        for fx in fixtures:
            t = unimodular(rng)
            out.append(Input(fx.name, [transform_point(t, p) for p in fx.points]))
    return out


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["fixtures"]


# ------------------------------------------------------------------ classify

def _check_classify(inp, res, ref, verified):
    want = ref[inp.name]
    bad = []
    if res.family != want["family"]:
        bad.append("family %s, reference %s" % (res.family, want["family"]))
    if "exact" in want:
        if res.exact != Fraction(want["exact"]):
            bad.append("exact %s, reference %s" % (res.exact, want["exact"]))
    elif (res.exact is not None or res.lower != Fraction(want["lower"])
          or res.upper != Fraction(want["upper"])):
        bad.append("bracket [%s, %s], reference [%s, %s]"
                   % (res.lower, res.upper, want["lower"], want["upper"]))
    lower = res.certificates.get("lower")
    if lower is None or not _bezout.verify_certificate(lower) or lower.bound != res.lower:
        bad.append("lower certificate does not verify")
    upper = res.certificates.get("upper")
    if upper is not None:
        ratio, divisor = upper
        scheme = _fatpoints.FatPointScheme.uniform(inp.points, divisor.m)
        if _engine.verify_upper(divisor, scheme) != ratio or ratio != res.upper:
            bad.append("upper divisor does not verify")
    sweep = res.certificates.get("sweep") or []
    if [e.alpha for e in sweep] != want["alpha"][:len(sweep)]:
        bad.append("fallback sweep %s, reference %s"
                   % ([e.alpha for e in sweep], want["alpha"]))
    if upper is None and not sweep:
        bad.append("no upper certificate")
    return bad


# --------------------------------------------------------------------- sweep

def _check_witness(ar, inp, m, verified):
    """mult_at at every point; `verified` holds (input, curve, m) already found good."""
    w = ar.witness
    if w.degree != ar.alpha:
        return ["witness degree %d, alpha %d" % (w.degree, ar.alpha)]
    if (inp, w, m) in verified:
        return []
    low = [p for p in inp.points if _geometry.mult_at(w, p) < m]
    if low:
        return ["witness multiplicity below %d at %r" % (m, low)]
    verified.add((inp, w, m))
    return []


def _check_sweep(inp, res, ref, verified):
    engine, entries = res
    want = ref[inp.name]["alpha"]
    got = [e.alpha for e in entries]
    if got != want:
        return ["sweep %s, reference %s" % (got, want)]
    bad = []
    for e in entries:
        # A memo hit: the AlphaResult the op computed, witness included.
        ar = engine.alpha_uniform(inp.points, e.m, inp.hint)
        bad += _check_witness(ar, inp, e.m, verified)
    return bad


# ----------------------------------------------------------------- workloads

def _build_classify(seed):
    return _images(seed, CLASSIFY_ROUNDS)


def _build_sweep(seed):
    # Registered fixtures as they are: this workload's inputs ignore the seed.
    inputs = []
    for name in fixture_names():
        fx = fixture(name)
        hint = _classify.classify(fx.points).lower
        inputs.append(Input(name, fx.points, hint))
    return inputs


def _op_classify(inp):
    return _classify.classify(inp.points)


def _op_sweep(inp):
    # A fresh Engine per op, so its memo cannot turn a repeat into a no-op.
    engine = _engine.Engine()
    return engine, engine.sweep(inp.points, SWEEP_M, lower_hint=inp.hint)


class Workload:
    def __init__(self, name, build, op, check):
        self.name = name
        self.build = build
        self.op = op
        self.check = check


WORKLOADS = {w.name: w for w in [
    Workload("classify-images", _build_classify, _op_classify, _check_classify),
    Workload("sweep-hinted", _build_sweep, _op_sweep, _check_sweep),
]}
