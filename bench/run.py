"""Benchmark of the waldschmidt toolkit: closed-loop workloads, one op at a time.

    python3 bench/run.py --workload classify-images --seed 0 --seconds 40 --trace 0

Workloads (why each exists is in BENCHMARK.json):
  classify-images  classify(points) on seeded unimodular images of every fixture
  sweep-hinted     Engine().sweep(points, 4, lower_hint=...) on every fixture

With --trace 0 the timed phase makes whole passes over the inputs until
--seconds of op time have passed and prints the end-to-end metrics.  With
--trace 1 it takes one input per fixture and runs each op once untraced and
once traced (the order alternating), so counts repeat exactly for a seed; it
prints the per-layer metrics and the tracing overhead.  Every result is
checked against bench/reference.json outside the timed region.  The last line
of stdout is one JSON object; a fuller record, and the spans of a traced run,
go to bench/results/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
# Also in workloads.WORKLOADS; listed here so a bad name fails before the import.
WORKLOAD_NAMES = ("classify-images", "sweep-hinted")
MAX_FAILURES_SHOWN = 5


def git_sha():
    """Commit of the checkout, read from .git without leaving it; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(workload_name, seed):
    """Import the library and build the workload's inputs; returns (module, inputs, seconds)."""
    t0 = time.perf_counter()
    import workloads
    inputs = workloads.WORKLOADS[workload_name].build(seed)
    return workloads, inputs, time.perf_counter() - t0


def setup_in_child(workload_name, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def tail(latencies, pass_size):
    """Latency at the highest percentile with ten samples beyond it in one pass.

    The percentile depends only on the pass size, so it is the same whatever
    the number of passes a run makes.
    """
    ordered = sorted(latencies)
    beyond = round(10 * len(ordered) / pass_size)
    return ordered[-1 - beyond], 100 * (pass_size - 10) / pass_size, beyond


def run_untraced(wl, inputs, seconds, checker):
    """Whole passes over `inputs` until `seconds` of op time; each pass is checked untimed."""
    latencies, pass_s = [], []
    clock = time.perf_counter
    while sum(pass_s) < seconds:
        results = []
        start = clock()
        for inp in inputs:
            t0 = clock()
            try:
                res = wl.op(inp)
            except Exception as exc:  # counted as a failed op, the loop goes on
                res = exc
            latencies.append(clock() - t0)
            results.append((inp, res))
        pass_s.append(clock() - start)
        checker.check(results)
    return latencies, pass_s


def _count_alpha(counters, args, ar):
    counters["degrees_tried"] = counters.get("degrees_tried", 0) + len(ar.h0_trace)
    counters["empty_degrees"] = (counters.get("empty_degrees", 0)
                                 + sum(1 for _, dim in ar.h0_trace if dim == 0))


def _count_matrix(counters, args, mat):
    counters["matrix_cells"] = counters.get("matrix_cells", 0) + mat.rows * mat.cols
    bits = max((max(abs(e.numerator).bit_length(), e.denominator.bit_length())
                for e in mat.entries), default=0)
    counters["max_entry_bits"] = max(counters.get("max_entry_bits", 0), bits)


def _count_lp(counters, args, cert):
    counters["lp_constraints"] = (counters.get("lp_constraints", 0)
                                  + len(args[0].constraints))


OBSERVERS = {"fatpoints.alpha": _count_alpha,
             "fatpoints.interpolation_matrix": _count_matrix,
             "bezout.solve_min_ratio": _count_lp}


def run_traced(wl, inputs):
    """Each input once untraced and once traced, alternating which goes first."""
    from tracer import Tracer
    tracer = Tracer(OBSERVERS)
    results = []
    plain_s = traced_s = 0.0
    for i, inp in enumerate(inputs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            try:
                if traced:
                    res, dt = tracer.run_op(i, wl.op, inp)
                else:
                    res = wl.op(inp)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # counted as a failed op, the loop goes on
                res, dt = exc, time.perf_counter() - t0
            if traced:
                traced_s += dt
            else:
                plain_s += dt
            results.append((inp, res))
    return tracer, results, plain_s, traced_s


def layer_metrics(tracer, results, plain_s, traced_s):
    fn = tracer.per_function()
    c = tracer.counters
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def calls_and_self(span, with_calls=True):
        calls, self_s = fn.get(span, (0, 0.0))
        if with_calls:
            put(span + ".calls", calls, "count")
        put(span + ".self_s", self_s, "s")

    classified = [r for _, r in results if hasattr(r, "family")]
    calls_and_self("classify.classify")
    put("classify.fallback_share",
        sum(r.family == "fallback/bounds" for r in classified) / len(classified)
        if classified else 0.0, "ratio")
    for span in ("geometry.incidence_profile", "geometry.conic_through",
                 "geometry.mult_at", "fatpoints.alpha"):
        calls_and_self(span)
    tried = c.get("degrees_tried", 0)
    put("fatpoints.degrees_tried", tried, "count")
    put("fatpoints.empty_degree_share",
        c.get("empty_degrees", 0) / tried if tried else 0.0, "ratio")
    calls_and_self("fatpoints.interpolation_matrix")
    put("fatpoints.matrix_cells", c.get("matrix_cells", 0), "count")
    put("fatpoints.max_entry_bits", c.get("max_entry_bits", 0), "bits")
    calls_and_self("linalg.rank_exact")
    calls_and_self("linalg.nullspace")
    # Never called at this commit; its self time would read 0 on every run.
    put("linalg.rank_modular.calls", fn.get("linalg.rank_modular", (0, 0.0))[0], "count")
    calls_and_self("bezout.build_system", with_calls=False)
    calls_and_self("bezout.solve_min_ratio")
    put("bezout.lp_constraints", c.get("lp_constraints", 0), "count")
    calls_and_self("engine.verify_upper")
    put("engine.alpha_uniform.calls", fn.get("engine.alpha_uniform", (0, 0.0))[0], "count")
    put("engine.memo_hits",
        tracer.count_without_child("engine.alpha_uniform", "fatpoints.alpha"), "count")
    put("trace.overhead_share", (traced_s - plain_s) / plain_s, "ratio")
    return m, fn


class Checker:
    """Checks op results against the reference, outside any timed region."""

    def __init__(self, wl, ref):
        self.wl, self.ref = wl, ref
        self.verified = set()
        self.attempted = self.failed = 0
        self.messages = []
        self.seconds = 0.0

    def check(self, results):
        t0 = time.perf_counter()
        for inp, res in results:
            if isinstance(res, Exception):
                problems = ["raised %r" % res]
            else:
                try:
                    problems = self.wl.check(inp, res, self.ref, self.verified)
                except Exception as exc:  # a check that cannot run is a failed op
                    problems = ["check raised %r" % exc]
            self.attempted += 1
            self.failed += bool(problems)
            self.messages += ["%s: %s" % (inp.name, p) for p in problems]
        self.seconds += time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for set-up samples)")
    args = ap.parse_args(argv)

    if not (SRC / "waldschmidt" / "__init__.py").is_file():
        print("bench: library source not found at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wmod, inputs, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    wl = wmod.WORKLOADS[args.workload]
    heights = [inp.height() for inp in inputs]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "inputs_per_pass": len(inputs),
        "input_height": {"max": max(heights), "median": statistics.median(heights)},
    }

    checker = Checker(wl, wmod.load_reference())
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        # One round: every fixture once, as itself or as one image.
        first_round = inputs[:len({inp.name for inp in inputs})]
        tracer, results, plain_s, traced_s = run_traced(wl, first_round)
        checker.check(results)
        metrics, per_fn = layer_metrics(tracer, results, plain_s, traced_s)
        record["self_s_by_span"] = {k: v[1] for k, v in
                                    sorted(per_fn.items(), key=lambda kv: -kv[1][1])}
        tracer.dump(RESULTS / ("%s-seed%d-spans.json.gz" % (args.workload, args.seed)))
    else:
        setup_samples = [setup_s] + [setup_in_child(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
        latencies, pass_s = run_untraced(wl, inputs, args.seconds, checker)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail_s, tail_pct, beyond = tail(latencies, len(inputs))
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": len(latencies) / sum(pass_s), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        record["setup_samples_s"] = setup_samples
        record["pass_s"] = pass_s
        record["op_tail"] = {"percentile": tail_pct, "samples": len(latencies),
                             "samples_beyond": beyond}

    failed = checker.failed
    record["check_s"] = checker.seconds
    record["attempted"] = checker.attempted
    record["failed"] = failed
    record["failed_share"] = failed / checker.attempted
    record["failures"] = checker.messages[:MAX_FAILURES_SHOWN]
    record["metrics"] = metrics
    out_path = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("workload %s  seed %d  git %s  python %s  nproc %d"
          % (args.workload, args.seed, record["git_sha"], record["python"], record["nproc"]))
    print("inputs per pass %d  height max %d  median %s"
          % (len(inputs), record["input_height"]["max"], record["input_height"]["median"]))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if "op_tail" in record:
        t = record["op_tail"]
        print("  op_tail_ms is p%.1f of %d ops (%d beyond it)"
              % (t["percentile"], t["samples"], t["samples_beyond"]))
    if "self_s_by_span" in record:
        top = list(record["self_s_by_span"].items())[:3]
        print("  largest self times: " + ", ".join("%s %.3f s" % kv for kv in top))
    print("  failed_share %.6g (%d of %d ops)"
          % (record["failed_share"], failed, checker.attempted))
    for msg in record["failures"]:
        print("  FAILED " + msg)
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
