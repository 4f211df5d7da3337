"""Construction size sweep: time both constructions on n+n inputs.

    python3 scripts/sweep.py [--sizes 2 4 6 8]

Run from the repository root; the package is imported from ``src/``.  The
input of size n is ``Complete._draw(random.Random(f"sweep:{n}"), n, n)``
from ``perfbench/workloads.py``: n ascending generators with random
reduced images of 1-12 letters, and n free generators.  For each input,
plain and then irreducible, one JSON line gives the wall time of
``construct_*`` alone and the sha256 of the certificate JSON and of the
completed group file, byte for byte as ``hnnembed embed`` writes them, so
two checkouts can be compared for identical outputs as well as for time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from hnnembed import cli, hnn, parsing  # noqa: E402
from workloads import Complete  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2, 4, 6, 8])
    args = parser.parse_args()
    for n in args.sizes:
        h = Complete._draw(random.Random(f"sweep:{n}"), n, n)
        for construction, construct in (
            ("plain", hnn.construct_embedding),
            ("irreducible", hnn.construct_irreducible_embedding),
        ):
            start = time.perf_counter()
            result = construct(h)
            seconds = time.perf_counter() - start
            row = {
                "n": n,
                "construction": construction,
                "seconds": round(seconds, 3),
                "cert_sha256": _sha256(cli._canonical(cli._certificate_json(result))),
                "g_sha256": _sha256(parsing.hnn_source(cli._full_extension(result))),
            }
            print(json.dumps(row, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
