"""Command-line surface: certification, reports, and the experiment harness.

Subcommands: certify, snf, invariants, verify-q, mates, table1,
conjecture-scan.  All randomness is seeded and every command is
deterministic given its flags; corpus commands can fan work out to a
process pool without changing their output.

Exit codes: 0 success / certified, 1 input error, 2 not certified or
verification failed, 3 internal invariant violated (a bug, not a property
of the input).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import sys
import time
from dataclasses import dataclass

from . import cospec, specinv
from .certify import (
    SQF_PASS,
    STATUS_DGS_BY_MAIN,
    STATUS_FACTORIZATION_INCOMPLETE,
    STATUS_NOT_CONTROLLABLE,
    certify_dgs,
)
from .errors import InvariantViolation
from .fpalg import MODULUS_CAP
from .graphcore import Graph, Graph6Error, derive_seed, emit_graph6, parse_adjacency, parse_graph6, random_graph
from .zlinalg import factor_integer, smith_normal_form, walk_matrix

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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return bool(lines) and all(set(ln.split()) <= {"0", "1"} and ln.split() for ln in lines)


def read_graphs(path: str, fmt: str = "auto") -> list[Graph]:
    """Load graphs from a file ('-' for stdin): graph6 lines or one
    adjacency matrix in the n-lines-of-0/1 text format."""
    text = _read_text(path)
    if fmt == "auto":
        fmt = "adj" if _looks_like_adjacency(text) else "graph6"
    if fmt == "adj":
        return [parse_adjacency(text)]
    graphs = []
    for ln in text.splitlines():
        if ln.strip():
            graphs.append(parse_graph6(ln))
    if not graphs:
        raise ValueError(f"no graphs found in {path!r}")
    return graphs


# ---------------------------------------------------------------------------
# experiment harness


@dataclass(frozen=True)
class ExperimentRow:
    """Per-order tallies of the random-graph certification experiment.

    ``n_incomplete`` counts FACTORIZATION_INCOMPLETE verdicts and
    ``n_not_controllable`` singular walk matrices; a graph whose d_n could
    not be decided is in neither the square-free nor the not-square-free
    share, and these columns say how many there were.
    """

    n: int
    samples: int
    n_squarefree_dn: int
    n_dgs_thm_sqf: int
    n_dgs_thm_main: int
    n_unknown: int
    seed: int
    n_incomplete: int
    n_not_controllable: int

    def __post_init__(self):
        ok = (
            self.n_dgs_thm_sqf <= self.n_dgs_thm_main <= self.n_squarefree_dn
            and self.n_unknown == self.n_squarefree_dn - self.n_dgs_thm_main
            and self.n_squarefree_dn + self.n_not_controllable <= self.samples
            and self.n_incomplete + self.n_not_controllable <= self.samples
        )
        if not ok:
            raise InvariantViolation(f"inconsistent experiment tallies for n={self.n}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "dn_squarefree": self.n_squarefree_dn,
            "dgs_by_sqf_rule": self.n_dgs_thm_sqf,
            "dgs_by_main_rule": self.n_dgs_thm_main,
            "unknown": self.n_unknown,
            "seed": self.seed,
            "incomplete": self.n_incomplete,
            "not_controllable": self.n_not_controllable,
        }


CSV_COLUMNS = [
    "n",
    "samples",
    "dn_squarefree",
    "dgs_by_sqf_rule",
    "dgs_by_main_rule",
    "unknown",
    "seed",
    "incomplete",
    "not_controllable",
]


def _certify_sample(args: tuple[int, int, str]) -> tuple[bool, bool, str]:
    n, seed, effort = args
    verdict = certify_dgs(random_graph(n, seed), effort)
    return bool(verdict.dn_squarefree()), verdict.sqf_check == SQF_PASS, verdict.status


def _pooled_map(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(it) for it in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=8))


def run_experiment(
    n_list, samples: int, seed: int, effort: str = "default", jobs: int = 1, time_limit: float | None = None
) -> tuple[list[ExperimentRow], bool]:
    """Certify ``samples`` random graphs per order; returns (rows, truncated).

    Sample k of order n uses the derived seed (seed, n, k), so results do not
    depend on evaluation order or worker count.
    """
    rows = []
    start = time.monotonic()
    truncated = False
    for n in n_list:
        if time_limit is not None and time.monotonic() - start > time_limit:
            truncated = True
            break
        items = [(n, derive_seed(seed, n, k), effort) for k in range(samples)]
        outcomes = _pooled_map(_certify_sample, items, jobs)
        sq = sum(1 for s, _, _ in outcomes if s)
        sqf = sum(1 for _, f, _ in outcomes if f)
        statuses = [status for _, _, status in outcomes]
        main = statuses.count(STATUS_DGS_BY_MAIN)
        incomplete = statuses.count(STATUS_FACTORIZATION_INCOMPLETE)
        singular = statuses.count(STATUS_NOT_CONTROLLABLE)
        rows.append(ExperimentRow(n, samples, sq, sqf, main, sq - main, seed, incomplete, singular))
    return rows, truncated


@dataclass(frozen=True)
class ScanFinding:
    graph6: str
    p: int
    nullity: int
    deg_sqrt: int
    sqrt_divides_restricted: bool

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "p": str(self.p),
            "nullity": self.nullity,
            "deg_sqrt": self.deg_sqrt,
            "sqrt_divides_restricted": self.sqrt_divides_restricted,
        }


@dataclass
class ScanRow:
    n: int
    samples: int
    graphs_skipped: int
    prime_checks: int
    deg_matches: int
    findings: list[ScanFinding]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "graphs_skipped": self.graphs_skipped,
            "prime_checks": self.prime_checks,
            "deg_matches": self.deg_matches,
            "findings": [f.to_json_dict() for f in self.findings],
        }


def _scan_sample(args: tuple[int, int, str]) -> tuple[int, list[tuple[str, int, int, int, bool, bool]]]:
    n, seed, effort = args
    g = random_graph(n, seed)
    snf = smith_normal_form(walk_matrix(g))
    if snf.dn == 0:
        return 1, []
    odd = snf.dn
    while odd % 2 == 0:
        odd //= 2
    fact = factor_integer(odd, effort)
    records = []
    g6 = emit_graph6(g)
    for p in fact.primes():
        if p >= MODULUS_CAP:
            continue
        rep = specinv.phi_report(g, p)  # proven relations are checked inside
        records.append(
            (
                g6,
                p,
                rep.nullity,
                rep.sqrt_phi.degree,
                rep.sqrt_phi.degree <= rep.nullity,
                rep.sqrt_phi.divides(rep.restricted_charpoly),
            )
        )
    return 0, records


def run_conjecture_scan(n_list, samples: int, seed: int, effort: str = "default", jobs: int = 1) -> list[ScanRow]:
    """Probe the strengthened degree statement on random graphs.

    Proven relations abort the scan when violated; the two conjectural
    statements (deg sqrt <= nullity, and sqrt dividing the restricted
    characteristic polynomial) merely produce findings, because a genuine
    violation is a result worth publishing, not a test failure.
    """
    rows = []
    for n in n_list:
        items = [(n, derive_seed(seed, n, k), effort) for k in range(samples)]
        outcomes = _pooled_map(_scan_sample, items, jobs)
        skipped = sum(s for s, _ in outcomes)
        checks = 0
        matches = 0
        findings = []
        for _, records in outcomes:
            for g6, p, nullity, deg_sqrt, deg_ok, divides in records:
                checks += 1
                if deg_sqrt == nullity:
                    matches += 1
                if not deg_ok or not divides:
                    findings.append(ScanFinding(g6, p, nullity, deg_sqrt, divides))
        rows.append(ScanRow(n, samples, skipped, checks, matches, findings))
    return rows


# ---------------------------------------------------------------------------
# subcommand implementations


@contextlib.contextmanager
def _on_graph(g: Graph):
    """Tag an invariant violation raised inside the block with g's graph6."""
    try:
        yield
    except InvariantViolation as exc:
        if exc.graph6 is None:
            exc.graph6 = emit_graph6(g)
        raise


def _cmd_certify(args) -> int:
    graphs = []
    for path in args.input:
        graphs.extend(read_graphs(path, args.format))
    all_certified = True
    for g in graphs:
        with _on_graph(g):
            verdict = certify_dgs(g, args.effort, autopass_report_limit=args.primes_limit)
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
    for g in read_graphs(args.input, args.format):
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
    for g in read_graphs(args.input, args.format):
        with _on_graph(g):
            rep = specinv.phi_report(g, args.prime)
        if args.json:
            print(json.dumps({"n": g.n, **rep.to_json_dict()}))
        else:
            d = rep.to_json_dict()
            for key in ("p", "nullity", "phi", "sfp_phi", "sqrt_phi", "m_p", "restricted", "eq4_holds"):
                print(f"{key}: {d[key]}")
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
        entry = cospec.level_parity_audit([(g_first, g_second)])[0]
        report["audit"] = entry.to_json_dict()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"level={q.level} conjugates={conjugates} ok={ok}")
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def _cmd_mates(args) -> int:
    result = cospec.enumerate_generalized_cospectral_classes(
        args.n, use_cache=not args.no_cache, cache_dir=args.cache_dir
    )
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


def _cmd_table1(args) -> int:
    n_list = _parse_n_list(args.n_list)
    rows, truncated = run_experiment(
        n_list, args.samples, args.seed, args.effort, jobs=args.jobs, time_limit=args.time_limit
    )
    if args.json:
        print(
            json.dumps(
                {
                    "params": {
                        "n_list": n_list,
                        "samples": args.samples,
                        "seed": args.seed,
                        "effort": args.effort,
                    },
                    "truncated": truncated,
                    "rows": [r.to_json_dict() for r in rows],
                },
                indent=2,
            )
        )
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            d = r.to_json_dict()
            writer.writerow([d[c] for c in CSV_COLUMNS])
        sys.stdout.write(buf.getvalue())
        if truncated:
            print("# truncated: time limit reached before all orders were sampled")
    return EXIT_OK


def _cmd_conjecture_scan(args) -> int:
    n_list = _parse_n_list(args.n_list)
    rows = run_conjecture_scan(n_list, args.samples, args.seed, args.effort, jobs=args.jobs)
    if args.json:
        print(
            json.dumps(
                {
                    "params": {
                        "n_list": n_list,
                        "samples": args.samples,
                        "seed": args.seed,
                        "effort": args.effort,
                    },
                    "rows": [r.to_json_dict() for r in rows],
                    "total_findings": sum(len(r.findings) for r in rows),
                },
                indent=2,
            )
        )
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


def _add_io_flags(sub, single_input: bool = True) -> None:
    if single_input:
        sub.add_argument("input", help="input file ('-' for stdin)")
    sub.add_argument("--format", choices=("auto", "graph6", "adj"), default="auto")
    sub.add_argument("--json", action="store_true", help="JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dgscert", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("certify", help="certify graphs as determined by their generalized spectrum")
    p.add_argument("input", nargs="+", help="input files ('-' for stdin)")
    p.add_argument("--format", choices=("auto", "graph6", "adj"), default="auto")
    p.add_argument("--effort", choices=("low", "default", "high"), default="default")
    p.add_argument("--primes-limit", type=int, default=None, help="cap on reports for automatically passing primes")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, help="JSON verdicts (default)")
    fmt.add_argument("--text", action="store_true", help="human-readable verdicts")
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
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_mates)

    p = subs.add_parser("table1", help="random-graph certification statistics")
    p.add_argument("--n-list", default="10,15,20")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--effort", choices=("low", "default", "high"), default="default")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--time-limit", type=float, default=None, help="seconds; partial output is marked")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p.set_defaults(func=_cmd_table1)

    p = subs.add_parser("conjecture-scan", help="scan for violations of the strengthened degree statement")
    p.add_argument("--n-list", default="10,12,14")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--effort", choices=("low", "default", "high"), default="default")
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


if __name__ == "__main__":
    sys.exit(main())
