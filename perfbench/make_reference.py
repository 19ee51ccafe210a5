"""Regenerate ``reference.json``: the facts every pool graph proves at this
commit, against which each benchmark run checks its outputs.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run it only when the pools in ``workloads.py`` change, and only for the
workloads whose pools changed: the file is the benchmark's record of the
correct outputs, so regenerating it from a commit that computes something
else would hide the change.  The time of every pool entry goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import REFERENCE, import_dgscert
from workloads import EFFORT, POOL_SEED, WORKLOADS, reference_entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    dg = import_dgscert()
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data.update(pool_seed=POOL_SEED, effort=EFFORT, dgscert_version=dg.__version__)
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        pool = []
        for n in wl.orders:
            for k in range(wl.pool_per_order[n]):
                start = time.perf_counter()
                pool.append(reference_entry(dg, wl, n, k))
                print(f"{name} n={n} k={k} {time.perf_counter() - start:.3f}s", file=sys.stderr, flush=True)
        data[name] = pool
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
