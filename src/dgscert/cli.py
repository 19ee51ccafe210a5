"""Command-line surface: certification, reports, and the experiments.

Subcommands: certify, snf, invariants, verify-q, mates, table1,
conjecture-scan.  This module only parses arguments, reads graphs and
prints; the work is done by the library (``table1`` and
``conjecture-scan`` run ``dgscert.experiments``).  All randomness is
seeded and every command is deterministic given its flags; the
experiment commands can fan work out to a process pool without changing
their output.

Exit codes: 0 success / certified, 1 input error (usage errors included),
2 not certified or verification failed, 3 internal error: an invariant
violated or any other unexpected exception (a bug, not a property of the
input).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from . import cospec
from .certify import _prime_report, certify_dgs
from .errors import InvariantViolation, _on_graph
from .experiments import ExperimentRow, run_conjecture_scan, run_experiment
from .graphcore import Graph, Graph6Error, parse_adjacency, parse_graph6
from .ntheory import _RHO_BUDGET
from .zlinalg import smith_normal_form, walk_matrix

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CERTIFIED = 2
EXIT_INVARIANT = 3


# ---------------------------------------------------------------------------
# input handling


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _looks_like_adjacency(text: str) -> bool:
    # graph6 bytes are 63..126, never a digit or a sign: a text that starts
    # with one can only be an adjacency matrix, well formed or not
    head = text.lstrip()[:1]
    return head.isdigit() or head in ("+", "-")


def read_graphs(path: str) -> list[Graph]:
    """Load graphs from a file ('-' for stdin): graph6 lines or one
    adjacency matrix in the n-lines-of-0/1 text format, told apart by the
    text itself."""
    text = _read_text(path)
    if _looks_like_adjacency(text):
        return [parse_adjacency(text)]
    graphs = []
    for ln in text.splitlines():
        if ln.strip():
            graphs.append(parse_graph6(ln))
    if not graphs:
        raise ValueError(f"no graphs found in {path!r}")
    return graphs


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_certify(args) -> int:
    graphs = []
    for path in args.input:
        graphs.extend(read_graphs(path))
    all_certified = True
    for g in graphs:
        with _on_graph(g):
            verdict = certify_dgs(g, args.effort)
        all_certified = all_certified and verdict.certified
        if args.text:
            d = verdict.to_json_dict()
            print(f"n={d['n']} status={d['status']} dn={d['dn']} failing_prime={d['failing_prime']}")
            for rep in d["primes"]:
                print(
                    f"  p={rep['p']} nullity={rep['nullity']} sfp={rep['sfp_phi']} eq4={rep['eq4_holds']}"
                )
            if d["notes"]:
                print(f"  notes: {d['notes']}")
        else:
            print(json.dumps(verdict.to_json_dict()))
    return EXIT_OK if all_certified else EXIT_NOT_CERTIFIED


def _cmd_snf(args) -> int:
    for g in read_graphs(args.input):
        with _on_graph(g):
            snf = smith_normal_form(walk_matrix(g))
        if args.json:
            print(
                json.dumps(
                    {
                        "n": g.n,
                        "det_W": str(snf.det_sign * snf.abs_det()),
                        "snf": [str(d) for d in snf.factors],
                        "det_sign": snf.det_sign,
                    }
                )
            )
        else:
            print(",".join(str(d) for d in snf.factors))
    return EXIT_OK


def _cmd_invariants(args) -> int:
    for g in read_graphs(args.input):
        with _on_graph(g):
            rep = _prime_report(g, smith_normal_form(walk_matrix(g)), args.prime)
        if args.json:
            print(json.dumps({"n": g.n, **rep.to_json_dict()}))
        else:
            for key, value in rep.to_json_dict().items():
                print(f"{key}: {value}")
    return EXIT_OK


def _cmd_verify_q(args) -> int:
    g_first, g_second, q = cospec.parse_pair_fixture(_read_text(args.fixture))
    conjugates = cospec.verify_regular_orthogonal(q, g_first, g_second)
    report: dict = {"level": q.level, "conjugates": conjugates}
    ok = conjugates
    if conjugates:
        recovered = cospec.recover_q(g_first, g_second)
        report["recovered_matches"] = recovered.numerators == q.numerators
        ok = ok and report["recovered_matches"]
        report["audit"] = cospec.level_parity_audit(g_first, g_second).to_json_dict()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"level={q.level} conjugates={conjugates} ok={ok}")
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def _cmd_mates(args) -> int:
    result = cospec.enumerate_generalized_cospectral_classes(args.n)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2))
    else:
        print(
            f"n={result.n} graphs={result.total_graphs} iso_classes={result.total_iso_classes} "
            f"mate_families={len(result.mate_families)}"
        )
        for key, reps in sorted(result.mate_families.items(), key=lambda kv: kv[1]):
            print("  " + " ".join(reps))
    return EXIT_OK


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad order list {text!r}") from None
    if not values:
        raise ValueError("empty order list")
    return values


def _experiment_json(args, n_list: list[int], **fields) -> str:
    params = {"n_list": n_list, "samples": args.samples, "seed": args.seed, "effort": args.effort}
    return json.dumps({"params": params, **fields}, indent=2)


def _cmd_table1(args) -> int:
    n_list = _parse_n_list(args.n_list)
    rows, truncated = run_experiment(
        n_list, args.samples, args.seed, args.effort, jobs=args.jobs, time_limit=args.time_limit
    )
    if args.json:
        print(_experiment_json(args, n_list, truncated=truncated, rows=[r.to_json_dict() for r in rows]))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(f.name for f in dataclasses.fields(ExperimentRow))
        writer.writerows(dataclasses.astuple(r) for r in rows)
        if truncated:
            print("# truncated: time limit reached before all orders were sampled")
    return EXIT_OK


def _cmd_conjecture_scan(args) -> int:
    n_list = _parse_n_list(args.n_list)
    rows = run_conjecture_scan(n_list, args.samples, args.seed, args.effort, jobs=args.jobs)
    if args.json:
        total = sum(len(r.findings) for r in rows)
        print(_experiment_json(args, n_list, rows=[r.to_json_dict() for r in rows], total_findings=total))
    else:
        for r in rows:
            print(
                f"n={r.n} samples={r.samples} prime_checks={r.prime_checks} "
                f"deg_matches={r.deg_matches} findings={len(r.findings)}"
            )
            for f in r.findings:
                print(f"  FINDING graph={f.graph6} p={f.p} nullity={f.nullity} deg_sqrt={f.deg_sqrt}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_io_flags(sub) -> None:
    sub.add_argument("input", help="input file ('-' for stdin)")
    sub.add_argument("--json", action="store_true", help="JSON output")


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1, never the "not certified" 2
    that argparse would use.  The subcommand parsers share this class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dgscert", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("certify", help="certify graphs as determined by their generalized spectrum")
    p.add_argument("input", nargs="+", help="input files ('-' for stdin)")
    p.add_argument("--effort", choices=_RHO_BUDGET, default="default")
    p.add_argument("--text", action="store_true", help="human-readable verdicts instead of JSON")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("snf", help="invariant factors of the walk matrix")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_snf)

    p = subs.add_parser("invariants", help="per-prime spectral invariant report")
    _add_io_flags(p)
    p.add_argument("-p", "--prime", type=int, required=True, help="odd prime modulus")
    p.set_defaults(func=_cmd_invariants)

    p = subs.add_parser("verify-q", help="verify a stored conjugating-matrix fixture")
    p.add_argument("fixture", help="pair fixture file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_q)

    p = subs.add_parser("mates", help="exhaustive generalized-cospectral families for small n")
    p.add_argument("-n", type=int, required=True, help="vertex count (at most 7)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mates)

    p = subs.add_parser("table1", help="random-graph certification statistics")
    p.add_argument("--n-list", default="10,15,20")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--effort", choices=_RHO_BUDGET, default="default")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--time-limit", type=float, default=None, help="seconds; partial output is marked")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p.set_defaults(func=_cmd_table1)

    p = subs.add_parser("conjecture-scan", help="scan for violations of the strengthened degree statement")
    p.add_argument("--n-list", default="10,12,14")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--effort", choices=_RHO_BUDGET, default="default")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_conjecture_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Graph6Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InvariantViolation as exc:
        where = "" if exc.graph6 is None else f" (graph {exc.graph6})"
        print(f"internal error: invariant violated: {exc}{where}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
