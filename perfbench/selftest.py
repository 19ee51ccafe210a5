"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--limit 8] [--seed 1]

For every workload it makes two traced runs on the first ``--limit``
operations of the seed's corpus, each in its own process, and checks that:

- the exact counters repeat: every ``calls`` count and factor_integer's
  ``partial``, ``in_bits`` and ``cofactor_bits``;
- the traced pass's outputs equal the untraced pass's, and every output
  passed its correctness check;
- the top-level spans plus the benchmark's own loop time account for the
  traced pass's wall time, up to a remainder of at most 2%.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
EXACT_SUFFIXES = (".calls", ".partial", ".in_bits", ".cofactor_bits")
MAX_UNACCOUNTED_SHARE = 0.02


def traced_run(workload: str, seed: int, limit: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1", "--limit", str(limit)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=600)
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace1.json").read_text())
    record.pop("spans")
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = []
    for name in sorted(WORKLOADS):
        first, second = (traced_run(name, args.seed, args.limit) for _ in range(2))
        exact = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(EXACT_SUFFIXES)}
        again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(EXACT_SUFFIXES)}
        if exact != again:
            diff = sorted(k for k in exact if exact[k] != again.get(k))
            problems.append(f"{name}: exact counters differ between runs: {diff}")
        for run in (first, second):
            extra = run["extra"]
            if not extra["traced_matches_untraced"] or run["failures"]:
                problems.append(f"{name}: traced outputs differ from untraced or fail the check: {run['failures'][:3]}")
            share = abs(extra["unaccounted_s"]) / extra["spans_pass_wall_s"]
            if share > MAX_UNACCOUNTED_SHARE:
                problems.append(f"{name}: {share:.1%} of the traced pass is not accounted for")
        calls = sum(v for k, v in exact.items() if k.endswith(".calls"))
        print(f"{name}: {calls} traced calls, counters repeat: {exact == again}, "
              f"unaccounted {first['extra']['unaccounted_s']:.4f} s of {first['extra']['spans_pass_wall_s']:.3f} s")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
