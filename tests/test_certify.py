import json

import pytest

from dgscert import certify, ntheory
from dgscert.certify import (
    SQF_FAIL,
    SQF_NOT_RUN,
    SQF_PASS,
    SQF_UNKNOWN,
    STATUS_CONDITION_FAILS,
    STATUS_DGS_BY_MAIN,
    STATUS_FACTORIZATION_INCOMPLETE,
    STATUS_NOT_CONTROLLABLE,
    certify_dgs,
    validate_verdict_dict,
)
from dgscert.fixtures import dgs16_graph, mate9_graph
from dgscert.graphcore import derive_seed, random_graph
from dgscert.ntheory import FactorizationResult, factor_integer
from dgscert.zlinalg import SnfResult, determinant, walk_matrix
from conftest import seeded_corpus
from test_golden import _corpus as golden_corpus

B_FIXTURE = 3 * 23 * 29 * 1225550789 * 6442787651


def check_controllable(g) -> bool:
    """True iff the walk matrix is nonsingular."""
    return determinant(walk_matrix(g)) != 0


class TestControllability:
    def test_single_vertex(self, k1):
        assert check_controllable(k1)

    def test_k2_not_controllable(self, k2):
        assert not check_controllable(k2)

    def test_c4_not_controllable(self, c4):
        # the rotation automorphism forces repeated walk-matrix rows
        assert not check_controllable(c4)


class TestSqfCondition:
    """The half-determinant rule, read as the verdict's ``sqf_check``."""

    def test_dgs16_fails(self):
        # det W = +-2^8 * 3^2 * b: the odd prime 3 already divides d_{n-1}
        v = certify_dgs(dgs16_graph())
        assert v.sqf_check == SQF_FAIL
        assert ntheory._two_adic_valuation(v.det_w) == 8 and v.dn_squarefree()
        assert v.snf.factors[-2] == 6

    def test_mate9_fails(self):
        assert certify_dgs(mate9_graph()).sqf_check == SQF_FAIL

    def test_single_vertex_passes(self, k1):
        assert certify_dgs(k1).sqf_check == SQF_PASS

    def test_passing_graphs_exist_in_corpus(self):
        # random graphs routinely satisfy the half-determinant rule; make
        # sure the PASS path is exercised end to end
        statuses = [certify_dgs(g).sqf_check for g in seeded_corpus(20, 9, 12, seed=0xF00D)]
        assert SQF_PASS in statuses

    def test_unknown_when_odd_part_resists_low_effort(self):
        # frozen seed: structurally eligible graph whose odd determinant
        # part stays partially factored without the rho stage
        g = random_graph(14, derive_seed(31337, 14, 8))
        assert certify_dgs(g, effort="low").sqf_check == SQF_UNKNOWN
        # the rho stage settles it either way
        assert certify_dgs(g, effort="default").sqf_check in (SQF_PASS, SQF_FAIL)


class TestDnFactorization:
    """The verdict's factorization is factor_integer(d_n) itself, 2 included,
    except in the 4 | d_n shortcut, which leaves the odd part unfactored."""

    @pytest.mark.parametrize(
        "corpus, effort",
        [(golden_corpus, "default"), (lambda: seeded_corpus(60, 12, 20, seed=0xD17), "low")],
        ids=["golden", "seeded-low"],
    )
    def test_verdict_holds_the_factorization_of_dn(self, corpus, effort):
        checked = 0
        for g in corpus():
            v = certify_dgs(g, effort)
            if v.dn and v.dn % 4:
                assert v.dn_factorization == factor_integer(v.dn, effort), g.n
                checked += 1
        assert checked >= 10


class TestCompositeSquare:
    """A composite that rho cannot split but that divides d_n twice refutes
    square-freeness, with no prime to name as failing."""

    R = 1225550789 * 6442787651

    @staticmethod
    def _certify_with_dn(monkeypatch, dn):
        # no pool graph has a d_n whose part above the trial bound is a power
        # of a composite, so the invariant factors are replaced by the chain
        # the half-determinant rule asks of n = 16, ending in d_n; the
        # verdict is decided before any per-prime report reads the graph
        snf = SnfResult((1,) * 8 + (2,) * 7 + (dn,), 1)
        monkeypatch.setattr(certify, "smith_normal_form", lambda w: snf)
        return certify_dgs(dgs16_graph())

    def test_capped_rho_reads_condition_fails(self, monkeypatch):
        monkeypatch.setitem(ntheory._RHO_BUDGET, "default", 64)
        v = self._certify_with_dn(monkeypatch, 2 * self.R**2)
        assert v.status == STATUS_CONDITION_FAILS and v.sqf_check == SQF_FAIL
        assert v.failing_prime is None and v.dn_squarefree() is False
        assert v.dn_factorization == FactorizationResult(((2, 1),), self.R**2, ((self.R, 2),))
        assert f"the unfactored composite {self.R} divides it to the power 2" in v.notes[0]
        data = v.to_json_dict()
        validate_verdict_dict(data)
        assert (data["dn_factors"], data["dn_cofactor"], data["failing_prime"]) == ([["2", 1]], str(self.R**2), None)

    def test_split_root_names_the_repeated_prime(self, monkeypatch):
        v = self._certify_with_dn(monkeypatch, 2 * self.R**2)
        assert v.status == STATUS_CONDITION_FAILS and v.failing_prime == 1225550789
        assert v.dn_factorization.is_complete


class TestCertifyFixtures:
    def test_dgs16_certified_by_main_rule(self):
        v = certify_dgs(dgs16_graph())
        assert v.status == STATUS_DGS_BY_MAIN and v.certified
        assert v.sqf_check == SQF_FAIL
        assert v.dn == 2 * B_FIXTURE
        assert v.dn_factorization.is_complete
        assert [p for p, _ in v.dn_factorization.prime_powers] == [2, 3, 23, 29, 1225550789, 6442787651]
        # only p = 3 has nullity 2; every other odd prime passes with
        # nullity 1
        assert [(r.p, r.nullity, r.eq_degrees_match) for r in v.per_prime] == [
            (3, 2, True),
            (23, 1, True),
            (29, 1, True),
            (1225550789, 1, True),
            (6442787651, 1, True),
        ]

    def test_mate9_condition_fails_at_three(self):
        v = certify_dgs(mate9_graph())
        assert v.status == STATUS_CONDITION_FAILS and not v.certified
        assert v.failing_prime == 3
        assert v.sqf_check == SQF_FAIL
        assert v.per_prime[-1].p == 3 and not v.per_prime[-1].eq_degrees_match

    def test_single_vertex_vacuous(self, k1):
        v = certify_dgs(k1)
        assert v.status == STATUS_DGS_BY_MAIN
        assert v.sqf_check == SQF_PASS
        assert v.per_prime == ()

    def test_k2_not_controllable(self, k2):
        v = certify_dgs(k2)
        assert v.status == STATUS_NOT_CONTROLLABLE
        assert v.det_w == 0 and v.dn == 0
        assert v.sqf_check == SQF_NOT_RUN

    def test_low_effort_leaves_factorization_incomplete(self):
        v = certify_dgs(dgs16_graph(), effort="low")
        assert v.status == STATUS_FACTORIZATION_INCOMPLETE
        assert v.dn_factorization.cofactor > 1

    def test_deterministic(self):
        assert certify_dgs(mate9_graph()) == certify_dgs(mate9_graph())

    def test_odd_level_note_when_dn_is_2_mod_4(self):
        v = certify_dgs(dgs16_graph())
        assert v.dn % 4 == 2
        assert any("odd level" in note for note in v.notes)

    @pytest.mark.parametrize(
        "k,status", [(1, STATUS_CONDITION_FAILS), (3, STATUS_NOT_CONTROLLABLE)], ids=["4-divides-dn", "singular"]
    )
    def test_unknown_effort_rejected_before_any_work(self, k, status):
        # neither graph reaches the factoring ladder, which also rejects it
        g = random_graph(12, derive_seed(1, 12, k))
        assert certify_dgs(g).status == status
        with pytest.raises(ValueError, match="unknown effort level 'bogus'"):
            certify_dgs(g, "bogus")


class TestVerdictJson:
    def test_schema_valid_for_all_fixture_outcomes(self, k1, k2):
        for g in (dgs16_graph(), mate9_graph(), k1, k2):
            validate_verdict_dict(certify_dgs(g).to_json_dict())

    def test_big_integers_serialize_as_strings(self):
        d = certify_dgs(dgs16_graph()).to_json_dict()
        assert d["dn"] == str(2 * B_FIXTURE)
        assert isinstance(d["det_W"], str)

    def test_equal_invariant_factors_share_one_string(self):
        # most of the n invariant factors are 1 or 2; a run that keeps many
        # verdicts holds one string per distinct value of each
        d = certify_dgs(dgs16_graph()).to_json_dict()
        assert len(d["snf"]) == 16 and len(set(d["snf"])) < 16
        assert len({id(s) for s in d["snf"]}) == len(set(d["snf"]))
        assert d["dn"] is d["snf"][-1]

    def test_validator_rejects_corruption(self):
        d = certify_dgs(mate9_graph()).to_json_dict()
        bad = dict(d)
        bad["status"] = "MAYBE"
        with pytest.raises(ValueError):
            validate_verdict_dict(bad)
        bad = dict(d)
        bad["dn"] = 30  # must be a string
        with pytest.raises(ValueError):
            validate_verdict_dict(bad)
        bad = dict(d)
        del bad["notes"]
        with pytest.raises(ValueError):
            validate_verdict_dict(bad)
        # ints where the schema wants decimal strings, a boolean n, and the
        # schema's minimum rules: exponent >= 1, integer nullity >= 0; then
        # one case per keyword of the schema checker: the status no verdict
        # carries, n's range, unknown keys, the [prime, exponent] length,
        # whole-string patterns (a "$" also matches before a final newline)
        # and bool, which is not a JSON integer
        for path, value in (
            (("dn_cofactor",), 1),
            (("failing_prime",), 3),
            (("dn_factors", 0, 0), 2),
            (("primes", 0, "p"), 3),
            (("n",), True),
            (("dn_factors", 0, 1), 0),
            (("primes", 0, "nullity"), -1),
            (("primes", 0, "nullity"), 1.0),
            (("snf", 0), "\u00b9"),
            (("primes",), None),
            (("primes", 0), "3"),
            (("dn_factors",), "2 1"),
            (("status",), "DGS_BY_SQF"),
            (("n",), 0),
            (("n",), 65),
            (("extra",), None),
            (("primes", 0, "extra"), None),
            (("dn_factors", 0), ["2"]),
            (("dn_factors", 0), ["2", 1, 1]),
            (("snf", 0), "-3"),
            (("det_W",), "-"),
            (("dn",), "12\n"),
            (("primes", 0, "nullity"), True),
            (("primes", 0, "eq4_holds"), 1),
        ):
            bad = json.loads(json.dumps(d))
            target = bad
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            with pytest.raises(ValueError):
                validate_verdict_dict(bad)
        with pytest.raises(ValueError):
            validate_verdict_dict([d])


class TestCorpusConsistency:
    def test_statuses_partition_and_containment(self):
        # the half-determinant rule can never beat the d_n rule, and the
        # tallies used by the experiment harness must stay consistent
        for g in seeded_corpus(25, 8, 14, seed=0xCAFE):
            v = certify_dgs(g)
            if v.sqf_check == SQF_PASS:
                assert v.status == STATUS_DGS_BY_MAIN
            if v.status == STATUS_DGS_BY_MAIN:
                assert v.dn_squarefree() is True
                assert all(r.eq_degrees_match for r in v.per_prime)
            if v.status == STATUS_NOT_CONTROLLABLE:
                assert v.det_w == 0
            if v.status == STATUS_CONDITION_FAILS:
                assert v.failing_prime is not None

    def test_unknown_statuses_only_with_partial_factorization(self):
        for g in seeded_corpus(10, 10, 12, seed=0xDEAD):
            v = certify_dgs(g, effort="low")
            if v.status == STATUS_FACTORIZATION_INCOMPLETE:
                assert not v.dn_factorization.is_complete

    def test_four_divides_dn_short_circuits(self):
        # the common non-squarefree case must fail fast, with a consistent
        # evidence record (repeated prime 2, half-determinant rule FAIL)
        hits = 0
        for g in seeded_corpus(25, 10, 16, seed=0xFADE):
            v = certify_dgs(g)
            if v.status == STATUS_NOT_CONTROLLABLE or v.dn % 4 != 0:
                continue
            hits += 1
            assert v.status == STATUS_CONDITION_FAILS
            assert v.failing_prime == 2
            assert v.sqf_check == SQF_FAIL
            assert v.dn_squarefree() is False
            assert v.per_prime == ()
        assert hits > 3  # the corpus must actually exercise the branch
