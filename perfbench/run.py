"""dgscert benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload certify_corpus --seed 1 --seconds 60 --trace 0

Workloads (see ``workloads.py``):

- ``certify_corpus``: ``certify_dgs(g, "default")`` on G(n, 1/2), n in {20, 25, 30};
- ``snf_large``: walk matrix, Bareiss determinant and Smith normal form (the
  ``dgscert snf --json`` path), n = 48;
- ``invariants_large``: ``phi_report(g, p)`` (the ``dgscert invariants``
  path), n in {48, 56, 64}, for an odd prime below 100 dividing det W and the
  primes 1000003 and 2^61 - 1.

A pass is the seed's corpus processed once, each graph started when the
previous one finished.  With ``--trace 0`` the run repeats whole passes while
another pass still fits in ``--seconds`` (at least one), checks every output
against ``reference.json``, and prints the end-to-end metrics.  Times are CPU
seconds of the benchmark's own process (``time.process_time``): the program
is single-threaded and CPU-bound, and CPU time leaves out the time the
host's hypervisor takes the virtual CPU away (steal time), which wall time
counts.  An operation's latency is the mean of the middle half of its
latencies over the run's passes, so a burst of contention on a shared host
moves a single repetition and not the result.  Wall times go to the record.
With ``--trace 1`` it makes untraced and traced passes over the same corpus,
alternating, and prints per-layer calls and self times of the first traced
pass; the median difference of the paired passes' wall times is the tracing
overhead.  Human-readable lines come first; the last line of standard output
is the JSON result.  Each run also writes its full record (environment,
metrics, failures, spans) under ``.bench_out/`` in the checkout.

The benchmark loads ``dgscert`` from ``src/`` of the checkout it sits in and
refuses to run without it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer
from workloads import EFFORT, UNDECIDED, WORKLOADS, Op, Workload, build_corpus, check, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".bench_out"

# claims are made on the default seed and must also hold on the hold-out seed
# 7 (see README.md)
DEFAULT_SEED = 1
SETUP_REPEATS = 3
TAIL_MIN_BEYOND = 10
TRACE_PAIRS = 3


def import_dgscert():
    """Import dgscert from this checkout's src/, never from anywhere else.
    Modules of an earlier import are dropped first, so every call runs the
    import, and pays the lazy caches' first fill, as a fresh process does."""
    if not (SRC / "dgscert" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dgscert sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "dgscert" or k.startswith("dgscert.")]:
        del sys.modules[key]
    dgscert = importlib.import_module("dgscert")
    if Path(dgscert.__file__).resolve().parent != SRC / "dgscert":
        raise SystemExit(f"benchmark: dgscert was imported from {dgscert.__file__}, not from {SRC}")
    return dgscert


def set_up(wl: Workload, seed: int) -> tuple[object, list[Op], list[float]]:
    """Import, reference load, corpus generation, prime selection and sieve
    warm-up, repeated; returns the last repetition's package and corpus and
    the CPU time of each repetition."""
    times = []
    for _ in range(SETUP_REPEATS):
        # free the last repetition's modules and corpus, so that they do not
        # set the peak resident memory
        dg = ops = None
        gc.collect()
        start = time.process_time()
        dg = import_dgscert()
        pool = json.loads(REFERENCE.read_text())[wl.name]
        ops = build_corpus(dg, wl, pool, seed)
        if wl.needs_sieve:
            dg.factor_integer(2)
        times.append(time.process_time() - start)
    return dg, ops, times


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)  # CPU seconds per operation
    wall_latencies: list[float] = field(default_factory=list)
    outputs: list[dict | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0


def run_pass(dg, wl: Workload, ops: list[Op]) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for op in ops:
        w0 = time.perf_counter()
        t0 = time.process_time()
        try:
            out = run_op(dg, wl, op)
        except Exception:  # a failed operation is counted, the loop goes on
            out = None
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        t1 = time.process_time()
        result.wall_latencies.append(time.perf_counter() - w0)
        if out is not None:
            reason = check(dg, wl, op, out)
        result.latencies.append(t1 - t0)
        result.outputs.append(out)
        if reason is not None:
            result.failures.append(f"{op.label}: {reason}")
    result.wall = time.perf_counter() - start
    return result


def tail_percentile(ops_per_pass: int) -> int | None:
    """The highest whole percentile with at least TAIL_MIN_BEYOND of one
    pass's operations beyond it, or None below the median."""
    q = (100 * (ops_per_pass - TAIL_MIN_BEYOND)) // ops_per_pass if ops_per_pass else 0
    return q if q > 50 else None


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``: a quarter of them, rounded
    down, is left out at each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def nearest_rank(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "platform": platform.platform(),
    }


def measure(dg, wl: Workload, ops: list[Op], seconds: float) -> tuple[dict, dict]:
    """Untraced closed loop: whole passes while another one fits.  Each
    operation's latency is the middle mean of its latencies over the passes."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(dg, wl, ops))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            break
    lat = [middle_mean([p.latencies[i] for p in passes]) for i in range(len(ops))]
    outs = [o for p in passes for o in p.outputs]
    failures = [f for p in passes for f in p.failures]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "passes": len(passes),
        "ops": len(outs),
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [sum(p.latencies) for p in passes],
        "failures": failures,
        "latencies": [[op.label, t] for p in passes for op, t in zip(ops, p.latencies)],
    }
    q = tail_percentile(len(ops))
    if q is not None:
        extra["op_tail_s"] = (nearest_rank(lat, q), "s")
        extra["op_tail_percentile"] = q
    if wl.name == "certify_corpus":
        undecided = sum(1 for o in outs if o is not None and o["status"] == UNDECIDED)
        extra["undecided_frac"] = (undecided / len(outs), "ratio")
    extra["error_frac"] = (len(failures) / len(outs), "ratio")
    return metrics, extra


def measure_traced(dg, wl: Workload, ops: list[Op]) -> tuple[dict, dict, list[dict]]:
    """Untraced and traced passes over the same corpus, alternating, in
    TRACE_PAIRS pairs.  The per-layer metrics and spans come from the first
    traced pass; the tracing overhead is the median over the pairs of the
    traced pass's wall time minus the untraced one's."""
    plains, traceds, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        plains.append(run_pass(dg, wl, ops))
        tracer = Tracer()
        tracer.install()
        try:
            traceds.append(run_pass(dg, wl, ops))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    failures = [f for p in plains + traceds for f in p.failures]
    failed = sum(len(p.failures) for p in plains)
    mismatched = []
    for traced in traceds:
        differ = [op.label for op, a, b in zip(ops, plains[0].outputs, traced.outputs) if a != b]
        mismatched += differ
        failed += len({f.split(":")[0] for f in traced.failures} | set(differ))
    failures += [f"{label}: traced output differs" for label in mismatched]
    traced, tracer = traceds[0], tracers[0]
    top = tracer.top_level_s()
    loop_s = traced.wall - sum(traced.wall_latencies)
    extra = {
        "ops": len(ops),
        "failures": failures,
        "attempted": 2 * TRACE_PAIRS * len(ops),
        "failed": failed,
        "untraced_wall_s": statistics.median(p.wall for p in plains),
        "traced_wall_s": statistics.median(p.wall for p in traceds),
        "tracing_overhead_s": statistics.median(t.wall - p.wall for p, t in zip(plains, traceds)),
        "spans_pass_wall_s": traced.wall,
        "top_level_spans_s": top,
        "loop_s": loop_s,
        # time in the spans' pass covered neither by a top-level span nor by
        # the benchmark's own loop: glue inside the operation itself
        "unaccounted_s": traced.wall - top - loop_s,
        "traced_matches_untraced": not mismatched,
        "missing_functions": tracer.missing,
    }
    return tracer.layer_metrics(), extra, tracer.dump()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dgscert benchmark (one workload per process)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, help="keep only the first LIMIT operations of the corpus (self-test)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if not REFERENCE.is_file():
        raise SystemExit(f"benchmark: reference file {REFERENCE} is missing")
    dg, ops, setup_times = set_up(wl, args.seed)
    if args.limit is not None:
        ops = ops[: args.limit]
    setup_s = statistics.median(setup_times)

    # the tracing overhead is measured by --trace 1 runs only
    env = {**environment(), "tracing_overhead_s": None}
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "effort": EFFORT,
        "orders": list(wl.orders),
        "trace": args.trace,
        "env": env,
        "setup": {"repetitions_s": setup_times},
    }
    print(f"# {wl.name} seed={args.seed} effort={EFFORT} orders={','.join(map(str, wl.orders))} ops/pass={len(ops)}")
    print(f"# env python={env['python']} nproc={env['nproc']} gmpy2={env['gmpy2']}")

    if args.trace:
        metrics, extra, spans = measure_traced(dg, wl, ops)
        record["spans"] = spans
        env["tracing_overhead_s"] = extra["tracing_overhead_s"]
        attempted, failed = extra["attempted"], extra["failed"]
        for key in ("untraced_wall_s", "traced_wall_s", "tracing_overhead_s", "spans_pass_wall_s", "top_level_spans_s",
                    "loop_s", "unaccounted_s"):
            print(f"# {key} {extra[key]:.4f} s")
        print(f"# traced outputs equal untraced: {extra['traced_matches_untraced']}")
        if extra["missing_functions"]:
            print(f"# not found, not traced: {', '.join(extra['missing_functions'])}")
        for name, (value, unit) in metrics.items():
            share = f"  {value / extra['spans_pass_wall_s']:6.1%} of the traced pass" if name.endswith(".self_s") else ""
            print(f"{name:<40} {value:<12.6g} {unit:<6}{share}")
    else:
        metrics, extra = measure(dg, wl, ops, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        attempted, failed = extra["ops"], len(extra["failures"])
        tail = extra.get("op_tail_percentile")
        print(f"# passes={extra['passes']} ops={extra['ops']} "
              + (f"op_tail_s=p{tail}" if tail else "op_tail_s omitted: fewer than 20 ops per pass"))
        shown = {**metrics, **{k: extra[k] for k in ("op_tail_s", "undecided_frac", "error_frac") if k in extra}}
        for name, (value, unit) in shown.items():
            print(f"{name:<16} {value:.6g} {unit}")
    failures = extra["failures"]
    for line in failures[:20]:
        print(f"# FAILED {line}")

    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  extra={k: v for k, v in extra.items() if k != "failures"}, failures=failures)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
