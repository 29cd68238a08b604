"""Command-line front end: classify, alpha, sweep, lower, upper, fixture, check."""

import argparse
import json
import sys

from .bezout import build_system, solve_min_ratio, verify_certificate
from .classify import classify
from .engine import (Engine, FormalDivisor, InsufficientMultiplicityError,
                     verify_upper)
from .fatpoints import FatPointScheme, alpha, degree_floor
from .fixtures import UnknownFixtureError, fixture, fixture_names
from .geometry import GeometryError, PlaneCurve, conic_through, line_through
from .linalg import format_rational

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class RunConfig:
    def __init__(self, m_max=8, output="text"):
        if m_max < 1:
            raise ValueError("m_max must be >= 1")
        self.m_max = m_max
        self.output = output


class InputError(ValueError):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))


def _parse_points(obj):
    if not isinstance(obj, dict) or "points" not in obj:
        raise InputError('input must be an object with a "points" field')
    try:
        scheme = FatPointScheme.parse(obj)
    except (GeometryError, ValueError, KeyError, TypeError) as exc:
        raise InputError("bad points: %s" % exc)
    return scheme


def _emit(payload, cfg, text_lines):
    if cfg.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_classify(path, cfg):
    scheme = _parse_points(_load_json(path))
    res = classify(list(scheme.points), m_max=cfg.m_max)
    payload = res.to_json()
    lines = ["family: %s" % res.family]
    if res.exact is not None:
        lines.append("exact: %s" % format_rational(res.exact))
    else:
        lines.append("interval: [%s, %s]" % (format_rational(res.lower),
                                             format_rational(res.upper)))
    for note in res.notes:
        lines.append("note: %s" % note)
    _emit(payload, cfg, lines)
    return EXIT_OK


def cmd_alpha(path, m, cfg):
    scheme_in = _parse_points(_load_json(path))
    if m is None:
        if not scheme_in.is_uniform():
            raise InputError("alpha needs -m when the multiplicities differ")
        m = scheme_in.mults[0]
    scheme = FatPointScheme.uniform(scheme_in.points, m)
    result = alpha(scheme)
    payload = result.to_json()
    lines = ["alpha(%dX) = %d" % (m, result.alpha),
             "witness degree: %d" % result.witness.degree,
             "trace: %s" % " ".join("d=%d:%d" % (d, dim)
                                    for d, dim in result.h0_trace)]
    _emit(payload, cfg, lines)
    return EXIT_OK


def cmd_sweep(path, cfg):
    scheme = _parse_points(_load_json(path))
    trace = Engine().sweep(list(scheme.points), cfg.m_max)
    best = min(e.ratio for e in trace)
    payload = {"sweep": [e.to_json() for e in trace],
               "minimum": format_rational(best)}
    lines = ["m=%d alpha=%d ratio=%s" % (e.m, e.alpha, format_rational(e.ratio))
             for e in trace] + ["minimum: %s" % format_rational(best)]
    _emit(payload, cfg, lines)
    return EXIT_OK


def cmd_lower(path, aux_path, cfg):
    scheme = _parse_points(_load_json(path))
    aux_spec = _load_json(aux_path)
    if isinstance(aux_spec, dict):
        aux_spec = aux_spec.get("aux", aux_spec.get("curves"))
    if not isinstance(aux_spec, list):
        raise InputError("aux file must hold a list of curve specs")
    try:
        curves, labels, attested = _parse_aux_spec(aux_spec, scheme.points)
        system = build_system(scheme.points, curves, labels, attested)
    except (GeometryError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise InputError("bad aux specs: %s" % exc)
    cert = solve_min_ratio(system)
    check = verify_certificate(cert)
    payload = {"certificate": cert.to_json(), "verified": bool(check)}
    lines = ["bound: %s" % format_rational(cert.bound)]
    lines += ["dual %s: %s" % (c.label, format_rational(d))
              for c, d in zip(system.constraints, cert.duals) if d]
    lines.append("verified: %s" % bool(check))
    _emit(payload, cfg, lines)
    return EXIT_OK


def _point(pts, i):
    """pts[i] for an index from an input file: a non-bool int in [0, len(pts))."""
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(pts):
        raise InputError("point index %r is not an integer in [0, %d)" % (i, len(pts)))
    return pts[i]


def _count(value, what, least):
    """A multiplicity or coefficient from an input file: a non-bool int >= least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError("%s %r is not an integer >= %d" % (what, value, least))
    return value


def _parse_aux_spec(spec_list, pts):
    """(curves, labels, attested indices) from JSON specs over point indices."""
    curves = []
    labels = []
    attested = set()
    for idx, spec in enumerate(spec_list):
        if not isinstance(spec, dict):
            raise InputError("aux spec %d is not an object" % idx)
        kind = spec["type"]
        if kind == "line":
            i, j = spec["through"]
            curves.append(line_through(_point(pts, i), _point(pts, j)))
            labels.append("line(%d,%d)" % (i, j))
        elif kind == "conic":
            ids = spec["through"]
            curves.append(conic_through([_point(pts, i) for i in ids]))
            labels.append("conic(%s)" % ",".join(str(i) for i in ids))
        elif kind == "explicit":
            curves.append(PlaneCurve.parse(spec))
            labels.append(spec.get("label", "explicit %d" % idx))
            if spec.get("attest_irreducible"):
                attested.add(idx)
        else:
            raise InputError("unknown aux curve type %r" % kind)
    return curves, labels, attested


def _parse_divisor(obj, scheme, m_flag):
    if not isinstance(obj, dict) or "terms" not in obj:
        raise InputError('divisor file needs a "terms" list')
    m = m_flag if m_flag is not None else obj.get("m")
    if m is None:
        raise InputError("multiplicity m missing (flag or divisor file)")
    m = _count(m, "m", 1)
    pts = scheme.points
    terms = []
    try:
        for term in obj["terms"]:
            coeff = _count(term["coeff"], "coeff", 0)
            if "curve" in term:
                curve = PlaneCurve.parse(term["curve"])
            elif "line" in term:
                i, j = term["line"]
                curve = line_through(_point(pts, i), _point(pts, j))
            elif "conic" in term:
                curve = conic_through([_point(pts, i) for i in term["conic"]])
            else:
                raise InputError("term needs curve, line, or conic")
            terms.append((curve, coeff))
    except (GeometryError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise InputError("bad divisor: %s" % exc)
    return FormalDivisor(terms, m)


def cmd_upper(path, divisor_path, m, cfg):
    scheme = _parse_points(_load_json(path))
    divisor = _parse_divisor(_load_json(divisor_path), scheme, m)
    try:
        ratio = verify_upper(divisor, FatPointScheme.uniform(scheme.points,
                                                             divisor.m))
    except InsufficientMultiplicityError as exc:
        print("rejected: %s" % exc)
        return EXIT_CHECK_FAILED
    payload = {"ratio": format_rational(ratio), "m": divisor.m,
               "degree": divisor.degree}
    _emit(payload, cfg, ["upper bound: %s (degree %d at multiplicity %d)"
                         % (format_rational(ratio), divisor.degree, divisor.m)])
    return EXIT_OK


def cmd_fixture(name, cfg):
    try:
        fx = fixture(name)
    except UnknownFixtureError:
        print("unknown fixture %r; known: %s" % (name, ", ".join(fixture_names())))
        return EXIT_INPUT_ERROR
    payload = fx.to_json()
    lines = ["%s: %d points" % (fx.name, len(fx.points))]
    if fx.expected:
        lines.append("expected: %s" % json.dumps(fx.expected.to_json()))
    _emit(payload, cfg, lines)
    return EXIT_OK


def check_points(points, cfg, expected=None):
    """Classify, then re-derive both sides independently; returns problem list.

    Each alpha(mX) is searched from its certified floor, which alpha checks
    one degree below; so a lower bound that is too high shows up as an alpha
    below the floor.
    """
    problems = []
    res = classify(points, m_max=min(cfg.m_max, 2))
    lower_cert = res.certificates.get("lower")
    if lower_cert is not None and not verify_certificate(lower_cert):
        problems.append("lower certificate failed independent verification")
    if res.exact is not None:
        value = res.exact
        # the divisor's multiplicity attains the value; a fallback's sweep
        # attains it at its denominator
        depth = value.denominator
        upper = res.certificates.get("upper")
        if upper is not None:
            _, divisor = upper
            depth = divisor.m
            try:
                again = verify_upper(divisor, FatPointScheme.uniform(points, depth))
                if again != value:
                    problems.append("upper construction ratio %s != %s"
                                    % (format_rational(again), format_rational(value)))
            except InsufficientMultiplicityError as exc:
                problems.append("upper construction rejected on recheck: %s" % exc)
        if lower_cert is not None and lower_cert.bound != value:
            problems.append("lower bound %s != exact value %s"
                            % (format_rational(lower_cert.bound),
                               format_rational(value)))
    else:
        if res.lower > res.upper:
            problems.append("inverted interval")
        depth = min(cfg.m_max, 2)
    for m in range(1, depth + 1):
        floor = degree_floor(res.lower, m)
        found = alpha(FatPointScheme.uniform(points, m), min_degree=floor).alpha
        if found < floor:
            problems.append("alpha(%dX) = %d is below the certified floor %d"
                            % (m, found, floor))
        if m == depth and res.exact is not None and found != res.exact * m:
            problems.append("alpha(%dX) = %d does not attain %s"
                            % (m, found, format_rational(res.exact)))
    if expected is not None:
        if expected.kind == "exact":
            if res.exact != expected.value:
                problems.append("expected exact %s, classified %s"
                                % (format_rational(expected.value),
                                   "exact %s" % format_rational(res.exact)
                                   if res.exact is not None else
                                   "[%s, %s]" % (format_rational(res.lower),
                                                 format_rational(res.upper))))
        else:
            if res.exact is not None:
                problems.append("expected a bracket, classified exact %s"
                                % format_rational(res.exact))
            elif res.lower < expected.value:
                problems.append("certified lower %s below expected floor %s"
                                % (format_rational(res.lower),
                                   format_rational(expected.value)))
    return res, problems


def cmd_check(path, fixture_name, all_fixtures, cfg):
    jobs = []
    if all_fixtures:
        jobs = [(name, fixture(name)) for name in fixture_names()]
    elif fixture_name:
        jobs = [(fixture_name, fixture(fixture_name))]
    else:
        scheme = _parse_points(_load_json(path))
        jobs = [(path, None)]
        points = list(scheme.points)
    failures = 0
    for label, fx in jobs:
        if fx is not None:
            points = fx.points
            expected = fx.expected
        else:
            expected = None
        res, problems = check_points(points, cfg, expected=expected)
        verdict = ("exact %s" % format_rational(res.exact) if res.exact is not None
                   else "[%s, %s]" % (format_rational(res.lower),
                                      format_rational(res.upper)))
        if problems:
            failures += 1
            print("FAIL %-20s %-46s %s" % (label, res.family, "; ".join(problems)))
        else:
            print("ok   %-20s %-46s %s" % (label, res.family, verdict))
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="waldschmidt",
        description="Exact certificates for initial degrees of uniform fat-point "
                    "schemes in the projective plane.")
    parser.add_argument("--m-max", type=int, default=8)
    parser.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("classify", help="match a configuration to a family")
    p.add_argument("input")
    p = sub.add_parser("alpha", help="initial degree of the uniform scheme")
    p.add_argument("input")
    p.add_argument("-m", type=int, default=None)
    p = sub.add_parser("sweep", help="alpha(mX)/m for m up to m-max")
    p.add_argument("input")
    p = sub.add_parser("lower", help="LP lower bound from auxiliary curves")
    p.add_argument("input")
    p.add_argument("aux")
    p = sub.add_parser("upper", help="verify a formal-divisor upper bound")
    p.add_argument("input")
    p.add_argument("divisor")
    p.add_argument("-m", type=int, default=None)
    p = sub.add_parser("fixture", help="emit a registered configuration")
    p.add_argument("name")
    p = sub.add_parser("check", help="classify and cross-validate")
    p.add_argument("input", nargs="?")
    p.add_argument("--fixture")
    p.add_argument("--all-fixtures", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(m_max=args.m_max, output="json" if args.json else "text")
        if args.command == "classify":
            return cmd_classify(args.input, cfg)
        if args.command == "alpha":
            return cmd_alpha(args.input, args.m, cfg)
        if args.command == "sweep":
            return cmd_sweep(args.input, cfg)
        if args.command == "lower":
            return cmd_lower(args.input, args.aux, cfg)
        if args.command == "upper":
            return cmd_upper(args.input, args.divisor, args.m, cfg)
        if args.command == "fixture":
            return cmd_fixture(args.name, cfg)
        if args.command == "check":
            if not (args.input or args.fixture or args.all_fixtures):
                print("check needs an input file, --fixture, or --all-fixtures")
                return EXIT_INPUT_ERROR
            return cmd_check(args.input, args.fixture, args.all_fixtures, cfg)
        return EXIT_INPUT_ERROR
    except (InputError, UnknownFixtureError, GeometryError, ValueError) as exc:
        print("input error: %s" % exc)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
