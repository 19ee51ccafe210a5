"""Golden gate: verdict JSON, per-prime report JSON, the exhaustive mate
enumeration and the experiment commands' output stay byte-identical.

The verdict and phi files under ``tests/data`` hold one
``json.dumps(x.to_json_dict())`` line per case, in the order the generators
below produce the cases; the mates file holds one
``EnumerationResult.to_json_dict()`` line per n = 1..7; the table1 and
conjecture-scan files hold the stdout of the seeded command lines in
``TABLE1_RUNS`` and ``SCAN_RUNS``.  Any change to a byte of a verdict, of a
``phi_report``, of a mate family or of an experiment row fails here.  Regenerate them only for an intended output change, and
record that change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from dgscert.certify import certify_dgs, validate_verdict_dict
from dgscert.cli import main
from dgscert.cospec import ENUMERATION_MAX_N, enumerate_generalized_cospectral_classes
from dgscert.fixtures import dgs16_graph, mate9_graph
from dgscert.fpalg import format_poly
from dgscert.graphcore import derive_seed, random_graph
from dgscert.specinv import phi_report
from dgscert.zlinalg import determinant, walk_matrix
from conftest import restricted_charpoly_oracle

DATA = Path(__file__).parent / "data"
VERDICTS = DATA / "golden_verdicts.jsonl"
PHI = DATA / "golden_phi.jsonl"
MATES = DATA / "golden_mates.jsonl"
TABLE1 = DATA / "golden_table1.txt"
SCAN = DATA / "golden_scan.txt"

SEED = 20211018
FIXED_PRIMES = (3, 5, 7, 10**6 + 3, 2**61 - 1)
LARGE_PRIMES = (3, 10**6 + 3, 2**61 - 1)
SMALL_PRIME_LIMIT = 10**6

# seeded experiment runs: default effort, then low effort, where some n = 16
# d_n stay unfactored and most n = 8 walk matrices are singular
TABLE1_RUNS = (
    ["table1", "--n-list", "10,12,14", "--samples", "20", "--json"],
    ["table1", "--n-list", "8,16", "--samples", "10", "--effort", "low", "--json"],
    ["table1", "--n-list", "8,16", "--samples", "10", "--effort", "low"],
)
SCAN_RUNS = (
    ["conjecture-scan", "--n-list", "10,12", "--samples", "10", "--json"],
    ["conjecture-scan", "--n-list", "16,20", "--samples", "10", "--effort", "low", "--json"],
    ["conjecture-scan", "--n-list", "10,12", "--samples", "10"],
)


def _corpus():
    """Both fixtures, then four seeded graphs at each even order 10..20."""
    graphs = [dgs16_graph(), mate9_graph()]
    graphs += [random_graph(n, derive_seed(SEED, n, k)) for n in range(10, 21, 2) for k in range(4)]
    return graphs


def _odd_primes_below(limit: int) -> list[int]:
    # own sieve, so the case list does not move with the factoring ladder's
    # trial-division bound
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return [q for q in range(3, limit, 2) if sieve[q]]


def _phi_cases():
    """(graph, p): the corpus at the fixed primes plus the odd primes below
    10^6 dividing a nonzero det W, then two graphs each at n = 30 and 48."""
    small = _odd_primes_below(SMALL_PRIME_LIMIT)
    for g in _corpus():
        det = determinant(walk_matrix(g))
        extra = [q for q in small if det and det % q == 0 and q not in FIXED_PRIMES]
        for p in FIXED_PRIMES + tuple(extra):
            yield g, p
    for n in (30, 48):
        for k in range(2):
            g = random_graph(n, derive_seed(SEED, n, k))
            for p in LARGE_PRIMES:
                yield g, p


def verdict_lines() -> list[str]:
    return [json.dumps(certify_dgs(g, "default").to_json_dict()) for g in _corpus()]


def phi_lines() -> list[str]:
    return [json.dumps(phi_report(g, p).to_json_dict()) for g, p in _phi_cases()]


def mates_lines(top) -> list[str]:
    """One line per n = 1..7; ``top`` is the n = 7 result, the one costly walk."""
    results = [enumerate_generalized_cospectral_classes(n) for n in range(1, ENUMERATION_MAX_N)]
    return [json.dumps(r.to_json_dict()) for r in results + [top]]


def command_lines(runs) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in runs:
            assert main(argv) == 0, argv
    return out.getvalue().splitlines()


def _assert_same_lines(actual: list[str], path: Path) -> None:
    expected = path.read_text(encoding="utf-8").splitlines()
    assert len(actual) == len(expected), f"{path.name}: {len(actual)} cases, golden file has {len(expected)}"
    for i, (a, e) in enumerate(zip(actual, expected)):
        assert a == e, f"{path.name} line {i + 1} differs:\n  got      {a}\n  expected {e}"


def test_verdicts_byte_identical():
    _assert_same_lines(verdict_lines(), VERDICTS)


def test_golden_verdicts_match_the_schema():
    for line in VERDICTS.read_text(encoding="utf-8").splitlines():
        validate_verdict_dict(json.loads(line))


def test_certified_verdicts_report_every_odd_prime():
    # a DGS_BY_MAIN verdict is a proof only with one report per odd prime of d_n
    certified = 0
    for line in VERDICTS.read_text(encoding="utf-8").splitlines():
        d = json.loads(line)
        if d["status"] == "DGS_BY_MAIN":
            certified += 1
            odd = sorted(int(p) for p, _ in d["dn_factors"] if p != "2")
            assert [int(r["p"]) for r in d["primes"]] == odd, d["dn"]
    assert certified > 0


def test_phi_reports_byte_identical():
    _assert_same_lines(phi_lines(), PHI)


def test_golden_restricted_charpolys_match_the_nullspace_route():
    lines = PHI.read_text(encoding="utf-8").splitlines()
    cases = list(_phi_cases())
    assert len(cases) == len(lines)
    for (g, p), line in zip(cases, lines):
        assert format_poly(restricted_charpoly_oracle(g, p)) == json.loads(line)["restricted"], (g.n, p)


def test_mate_enumeration_byte_identical(mates_n7):
    _assert_same_lines(mates_lines(mates_n7), MATES)


def test_table1_output_byte_identical():
    _assert_same_lines(command_lines(TABLE1_RUNS), TABLE1)


def test_conjecture_scan_output_byte_identical():
    _assert_same_lines(command_lines(SCAN_RUNS), SCAN)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path, lines in (
        (VERDICTS, verdict_lines()),
        (PHI, phi_lines()),
        (MATES, mates_lines(enumerate_generalized_cospectral_classes(ENUMERATION_MAX_N))),
        (TABLE1, command_lines(TABLE1_RUNS)),
        (SCAN, command_lines(SCAN_RUNS)),
    ):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"wrote {len(lines)} lines to {path}")
