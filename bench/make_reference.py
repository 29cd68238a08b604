"""Write bench/reference.json: each fixture's verdict and alpha(mX) for m = 1..4.

    python3 bench/make_reference.py

Verdicts come from classify on the registered fixture itself, and alpha from
an unhinted search, so the hinted sweep is checked against the exhaustive
path.  Images keep both, by projective invariance.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from waldschmidt import FatPointScheme, alpha, classify, fixture, fixture_names  # noqa: E402
from waldschmidt.linalg import format_rational  # noqa: E402

from workloads import REFERENCE, SWEEP_M  # noqa: E402


def main():
    out = {}
    for name in fixture_names():
        points = fixture(name).points
        res = classify(points)
        entry = {"family": res.family}
        if res.exact is not None:
            entry["exact"] = format_rational(res.exact)
        else:
            entry["lower"] = format_rational(res.lower)
            entry["upper"] = format_rational(res.upper)
        entry["alpha"] = [alpha(FatPointScheme.uniform(points, m)).alpha
                          for m in range(1, SWEEP_M + 1)]
        out[name] = entry
        print(name, entry, flush=True)
    REFERENCE.write_text(json.dumps({"fixtures": out}, indent=1) + "\n")


if __name__ == "__main__":
    main()
