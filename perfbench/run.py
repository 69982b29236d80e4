"""fcmac benchmark: one seeded workload per run, outputs checked, metrics printed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0

Workloads: experiments, check, graphs (see perfbench/README.md). With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run. The full run
record goes to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One client, one thread: pin BLAS before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("experiments", "check", "graphs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "fcmac" / "__init__.py").is_file():
        print(f"error: fcmac sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fcmac
    if Path(fcmac.__file__).resolve().parent != (SRC / "fcmac").resolve():
        print(f"error: imported fcmac from {fcmac.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import harness
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in record["metrics"].items():
        print(f"{name:<60} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"digest: {json.dumps(record['digest'])}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
