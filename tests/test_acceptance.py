"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The random corpora are fixed by hard-coded seeds, so
every run checks the identical set of graphs.
"""

import json
import time
from contextlib import contextmanager

import pytest

from dgscert.certify import (
    SQF_FAIL,
    STATUS_CONDITION_FAILS,
    STATUS_DGS_BY_MAIN,
    certify_dgs,
)
from dgscert.cospec import (
    RationalOrthogonal,
    enumerate_generalized_cospectral_classes,
    iter_isomorphism_classes,
    recover_q,
    verify_regular_orthogonal,
)
from dgscert.experiments import run_conjecture_scan, run_experiment
from dgscert.fixtures import (
    MATE9_Q_LEVEL,
    MATE9_Q_NUMERATORS,
    dgs16_graph,
    mate9_graph,
    mate9_mate_graph,
)
from dgscert.fpalg import char_poly_mod_p, format_poly
from dgscert.graphcore import derive_seed, random_graph
from dgscert.ntheory import factor_integer
from dgscert.specinv import phi_report
from dgscert.zlinalg import determinant, smith_normal_form, walk_matrix
from conftest import reduced_walk_matrix

B16 = 3 * 23 * 29 * 1225550789 * 6442787651
CORPUS_SEED = 20260808


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL - {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {num} PASS - {label} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s"


def test_criterion_1_dgs16_end_to_end():
    with criterion(1, "16-vertex fixture end to end", 5.0):
        g = dgs16_graph()
        snf = smith_normal_form(walk_matrix(g))
        assert snf.factors == (1,) * 8 + (2,) * 6 + (6, 2 * B16)

        fact = factor_integer(B16)
        assert fact.is_complete
        assert fact.prime_powers == ((3, 1), (23, 1), (29, 1), (1225550789, 1), (6442787651, 1))

        rep = phi_report(g, 3)
        assert format_poly(rep.phi) == "x^4+2x^3+2x^2+x+1"
        assert format_poly(rep.sfp_phi) == "x^2+x+2"
        assert rep.nullity == 2

        verdict = certify_dgs(g)
        assert verdict.status == STATUS_DGS_BY_MAIN
        assert verdict.sqf_check == SQF_FAIL


def test_criterion_2_mate9_end_to_end():
    with criterion(2, "9-vertex mate fixture end to end", 5.0):
        g = mate9_graph()
        snf = smith_normal_form(walk_matrix(g))
        assert snf.factors == (1, 1, 1, 1, 1, 2, 2, 30, 30)

        r3, r5 = phi_report(g, 3), phi_report(g, 5)
        assert format_poly(r3.sfp_phi) == "x+2"
        assert format_poly(r5.sfp_phi) == "x^2+x+1"

        verdict = certify_dgs(g)
        assert verdict.status == STATUS_CONDITION_FAILS
        assert verdict.failing_prime == 3

        q = RationalOrthogonal(9, MATE9_Q_NUMERATORS, MATE9_Q_LEVEL)
        assert q.level == 3
        h = mate9_mate_graph()  # raises unless Q^T A Q is a 0/1 adjacency matrix
        assert verify_regular_orthogonal(q, g, h)
        assert recover_q(g, h).numerators == MATE9_Q_NUMERATORS

        assert format_poly(phi_report(g, 3).p_main) == "x^7+2x^6+2x^5+x^4+2x^3+2x^2+x"
        assert format_poly(phi_report(h, 3).p_main) == "x^8+x^7+2x^5+x^4+2x^2+2x"


def test_criterion_3_theorem_invariant_suite():
    with criterion(3, "invariant suite on 200 random graphs (n 10..30)", 600.0):
        for i in range(200):
            n = 10 + i % 21
            g = random_graph(n, derive_seed(CORPUS_SEED, n, i))
            w = walk_matrix(g)
            det = determinant(w)
            snf = smith_normal_form(w)

            # (a) power-of-two divisibility of the determinant
            assert det % 2 ** (n // 2) == 0
            # (b) bounded count of invariant factors equal to 2 mod 4
            assert sum(1 for d in snf.factors if d % 4 == 2) <= n // 2
            assert snf.abs_det() == abs(det)

            primes = {3, 5, 7}
            if det != 0:
                odd = snf.dn
                while odd % 2 == 0:
                    odd //= 2
                primes |= set(factor_integer(odd).primes())

            chi_cache = {}
            for p in sorted(primes):
                # (c), (d), (e), (f) are re-validated inside phi_report;
                # assert them here as well so this suite stands alone
                rep = phi_report(g, p)
                assert rep.sfp_phi.degree <= rep.nullity <= max(rep.phi.degree, 0)
                assert rep.sfp_phi.divides(rep.restricted_charpoly)
                assert rep.restricted_charpoly.divides(rep.phi)
                chi = chi_cache.get(p)
                if chi is None:
                    chi = chi_cache[p] = char_poly_mod_p(g.adjacency(), p)
                assert rep.p_main * rep.restricted_charpoly == chi
                if rep.nullity == 1:
                    assert rep.sfp_phi.degree == 1
                # (g) exact division identity whenever the degrees match
                if rep.eq_degrees_match:
                    assert chi.exact_div(rep.sfp_phi) == rep.p_main
                # (h) reduced walk matrix: integrality and determinant drop
                if det != 0 and rep.nullity >= 1:
                    red = reduced_walk_matrix(g, p)
                    assert abs(det) == p**rep.nullity * abs(determinant(red))


def test_criterion_4_oracle_soundness_small_n(mates_n7):
    with criterion(4, "oracle soundness up to n=7", 900.0):
        certified_total = 0
        for n in range(1, 8):
            # mate families first appear at n = 7, whose walk the session shares
            result = mates_n7 if n == 7 else enumerate_generalized_cospectral_classes(n)
            for rep in iter_isomorphism_classes(n):
                verdict = certify_dgs(rep)
                if verdict.certified:
                    certified_total += 1
                    assert result.is_dgs(rep), f"certified a graph with a mate: {rep}"
        # controllable graphs have trivial automorphism group, so only the
        # single vertex and the asymmetric graphs can be certified: 8 at
        # n = 6 and 152 at n = 7, none in between, a ceiling of 161; the
        # rule certifies 1 + 8 + 88 of them
        assert certified_total >= 97, "soundness check ran on too few certified graphs"
        print(f"  certified representatives checked: {certified_total}")


def test_criterion_5_experiment_statistics():
    with criterion(5, "random-graph statistics at n in {10, 15, 20}", 900.0):
        rows, truncated = run_experiment([10, 15, 20], samples=200, seed=1)
        assert not truncated
        for row in rows:
            # band checks in exact integer arithmetic: 0.15 <= fraction <= 0.40
            assert 100 * row.dn_squarefree >= 15 * row.samples, f"n={row.n}: squarefree fraction below band"
            assert 100 * row.dn_squarefree <= 40 * row.samples, f"n={row.n}: squarefree fraction above band"
            assert row.dgs_by_main_rule >= row.dgs_by_sqf_rule
            # unknown share at most 20% of the squarefree rows
            assert 5 * row.unknown <= row.dn_squarefree, f"n={row.n}: unknown share too high"
            print(f"  n={row.n}: {row.to_json_dict()}")


def test_criterion_6_conjecture_scan(tmp_path):
    with criterion(6, "strengthened-degree conjecture scan", 600.0):
        # the reference case: the fixture satisfies the conjectured equality
        rep = phi_report(dgs16_graph(), 3)
        assert rep.sqrt_phi.degree == 2 == rep.nullity

        rows = run_conjecture_scan([10, 14, 18], samples=70, seed=1)
        total_checks = sum(r.prime_checks for r in rows)
        assert total_checks > 100
        findings = [f.to_json_dict() for r in rows for f in r.findings]
        report_path = tmp_path / "conjecture_findings.json"
        report_path.write_text(json.dumps(findings, indent=2))
        # findings are publishable results, never assertion failures
        print(f"  prime checks: {total_checks}; findings: {len(findings)} (report: {report_path})")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
