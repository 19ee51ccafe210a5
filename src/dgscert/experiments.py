"""The random-graph experiments: the certification statistics behind
``dgscert table1`` and the conjecture scan behind ``dgscert conjecture-scan``.

Sample k of order n is ``random_graph(n, derive_seed(seed, n, k))``, so the
rows do not depend on evaluation order or on the worker count of the
optional process pool.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .certify import (
    SQF_PASS,
    STATUS_DGS_BY_MAIN,
    STATUS_FACTORIZATION_INCOMPLETE,
    STATUS_NOT_CONTROLLABLE,
    _prime_report,
    certify_dgs,
)
from .errors import InvariantViolation, _on_graph
from .graphcore import MAX_VERTICES, derive_seed, emit_graph6, random_graph
from .ntheory import _check_effort, factor_integer
from .zlinalg import smith_normal_form, walk_matrix


@dataclass(frozen=True)
class ExperimentRow:
    """Per-order tallies of the random-graph certification experiment.

    The fields, in order, are the ``table1`` output columns: the JSON keys
    and the CSV header are their names.  ``incomplete`` counts
    FACTORIZATION_INCOMPLETE verdicts and ``not_controllable`` singular walk
    matrices; a graph whose d_n could not be decided is in neither the
    square-free nor the not-square-free share, and these columns say how
    many there were.
    """

    n: int
    samples: int
    dn_squarefree: int
    dgs_by_sqf_rule: int
    dgs_by_main_rule: int
    unknown: int
    seed: int
    incomplete: int
    not_controllable: int

    def __post_init__(self):
        ok = (
            self.dgs_by_sqf_rule <= self.dgs_by_main_rule <= self.dn_squarefree
            and self.unknown == self.dn_squarefree - self.dgs_by_main_rule
            and self.dn_squarefree + self.not_controllable <= self.samples
            and self.incomplete + self.not_controllable <= self.samples
        )
        if not ok:
            raise InvariantViolation(f"inconsistent experiment tallies for n={self.n}")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _certify_sample(args: tuple[int, int, str]) -> tuple[bool, bool, str]:
    n, seed, effort = args
    g = random_graph(n, seed)
    with _on_graph(g):
        verdict = certify_dgs(g, effort)
    return bool(verdict.dn_squarefree()), verdict.sqf_check == SQF_PASS, verdict.status


def _check_run(n_list: list[int], effort: str, samples: int, jobs: int) -> None:
    """Raise ValueError for an order outside 1..MAX_VERTICES, an unknown
    effort, negative samples or jobs < 1."""
    for n in n_list:
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside supported range 1..{MAX_VERTICES}")
    _check_effort(effort)
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _pooled_map(fn, items, jobs: int):
    # a fork-based pool starts all of its workers at the first submit, so
    # never ask for more than there are items
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=8))


def run_experiment(
    n_list, samples: int, seed: int, effort: str = "default", jobs: int = 1, time_limit: float | None = None
) -> tuple[list[ExperimentRow], bool]:
    """Certify ``samples`` random graphs per order; returns (rows, truncated).

    The time limit is checked between orders: the order running when it
    expires still completes.
    """
    n_list = list(n_list)
    _check_run(n_list, effort, samples, jobs)
    if time_limit is not None and not time_limit >= 0:  # NaN too
        raise ValueError(f"time limit must be non-negative, got {time_limit}")
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
        return {**asdict(self), "p": str(self.p)}


@dataclass
class ScanRow:
    n: int
    samples: int
    graphs_skipped: int
    prime_checks: int
    deg_matches: int
    findings: list[ScanFinding]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "findings": [f.to_json_dict() for f in self.findings]}


def _scan_sample(args: tuple[int, int, str]) -> tuple[int, int, int, list[ScanFinding]]:
    """(skipped, prime checks, degree matches, findings) for one graph."""
    n, seed, effort = args
    g = random_graph(n, seed)
    with _on_graph(g):
        snf = smith_normal_form(walk_matrix(g))
        if snf.dn == 0:
            return 1, 0, 0, []
        checks = matches = 0
        findings = []
        for p in factor_integer(snf.dn, effort).primes():
            if p == 2:
                continue
            rep = _prime_report(g, snf, p)  # proven relations are checked inside
            deg_sqrt = rep.sqrt_phi.degree
            divides = rep.sqrt_phi.divides(rep.restricted_charpoly)
            checks += 1
            matches += deg_sqrt == rep.nullity
            if deg_sqrt > rep.nullity or not divides:
                findings.append(ScanFinding(emit_graph6(g), p, rep.nullity, deg_sqrt, divides))
        return 0, checks, matches, findings


def run_conjecture_scan(n_list, samples: int, seed: int, effort: str = "default", jobs: int = 1) -> list[ScanRow]:
    """Probe the strengthened degree statement on random graphs.

    Proven relations abort the scan when violated; the two conjectural
    statements (deg sqrt <= nullity, and sqrt dividing the restricted
    characteristic polynomial) merely produce findings, because a genuine
    violation is a result worth publishing, not a test failure.
    """
    n_list = list(n_list)
    _check_run(n_list, effort, samples, jobs)
    rows = []
    for n in n_list:
        items = [(n, derive_seed(seed, n, k), effort) for k in range(samples)]
        outcomes = _pooled_map(_scan_sample, items, jobs)
        skipped, checks, matches = (sum(o[i] for o in outcomes) for i in range(3))
        findings = [f for o in outcomes for f in o[3]]
        rows.append(ScanRow(n, samples, skipped, checks, matches, findings))
    return rows
