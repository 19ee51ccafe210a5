import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import dgscert
from dgscert import cli, cospec, experiments, fixtures, specinv
from dgscert.certify import (
    STATUS_FACTORIZATION_INCOMPLETE,
    STATUS_NOT_CONTROLLABLE,
    _prime_report,
    certify_dgs,
    validate_verdict_dict,
)
from dgscert.cli import EXIT_INVARIANT, main
from dgscert.errors import InvariantViolation
from dgscert.experiments import ExperimentRow, run_conjecture_scan, run_experiment
from dgscert.graphcore import derive_seed, emit_adjacency, emit_graph6, random_graph
from dgscert.zlinalg import smith_normal_form, walk_matrix
from conftest import BIG_PRIME, BIG_PRIME_GRAPH
from test_fixture_files import REPO_FIXTURES


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    (d / "dgs16.g6").write_text(emit_graph6(fixtures.dgs16_graph()) + "\n")
    (d / "mate9.adj").write_text(emit_adjacency(fixtures.mate9_graph()))
    q = cospec.RationalOrthogonal(9, fixtures.MATE9_Q_NUMERATORS, fixtures.MATE9_Q_LEVEL)
    (d / "pair.txt").write_text(cospec.emit_pair_fixture(fixtures.mate9_graph(), fixtures.mate9_mate_graph(), q))
    (d / "k2.g6").write_text("A_\n")
    (d / "junk.g6").write_text("not graph6 at all!\n")
    return d


class TestCertifyCommand:
    def test_certified_graph_exits_zero(self, fixture_files, capsys):
        code = main(["certify", str(fixture_files / "dgs16.g6")])
        out = capsys.readouterr().out
        verdict = json.loads(out)
        validate_verdict_dict(verdict)
        assert verdict["status"] == "DGS_BY_MAIN"
        assert code == 0

    def test_failing_graph_exits_two(self, fixture_files, capsys):
        code = main(["certify", str(fixture_files / "mate9.adj")])
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "CONDITION_FAILS" and verdict["failing_prime"] == "3"
        assert code == 2

    def test_not_controllable_exits_two(self, fixture_files, capsys):
        code = main(["certify", str(fixture_files / "k2.g6")])
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "NOT_CONTROLLABLE"
        assert code == 2

    def test_bad_input_exits_one(self, fixture_files, capsys):
        code = main(["certify", str(fixture_files / "junk.g6")])
        err = capsys.readouterr().err
        assert code == 1 and "error" in err

    def test_missing_file_exits_one(self, capsys):
        code = main(["certify", "/nonexistent/nothing.g6"])
        assert code == 1

    def test_text_mode(self, fixture_files, capsys):
        code = main(["certify", str(fixture_files / "dgs16.g6"), "--text"])
        out = capsys.readouterr().out
        assert "status=DGS_BY_MAIN" in out and code == 0

    def test_multiple_graphs_one_verdict_per_line(self, tmp_path, capsys):
        batch = tmp_path / "batch.g6"
        batch.write_text("@\nA_\n")  # K_1 certified, K_2 not controllable
        code = main(["certify", str(batch)])
        lines = capsys.readouterr().out.strip().splitlines()
        statuses = [json.loads(ln)["status"] for ln in lines]
        assert statuses == ["DGS_BY_MAIN", "NOT_CONTROLLABLE"]
        assert code == 2  # not every input was certified


class TestInputFormat:
    """The text decides its format: graph6 bytes are 63..126, so a text
    whose first character is a digit or a sign is an adjacency matrix."""

    def test_committed_graph6_fixtures_read_as_graph6(self):
        for name, graph in (("dgs16.g6", fixtures.dgs16_graph()), ("mate9.g6", fixtures.mate9_graph())):
            assert cli.read_graphs(str(REPO_FIXTURES / name)) == [graph]
        assert cli.read_graphs(str(REPO_FIXTURES / "mate9.adj")) == [fixtures.mate9_graph()]

    @pytest.mark.parametrize(
        "text, entry",
        [("0 1\n1 2\n", (1, 1)), ("0 -1\n-1 0\n", (0, 1))],
        ids=["entry-2", "entry-minus-1"],
    )
    def test_malformed_adjacency_names_the_entry(self, tmp_path, capsys, text, entry):
        path = tmp_path / "bad.adj"
        path.write_text(text)
        assert main(["certify", str(path)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: adjacency entry at {entry} is not 0/1\n"

    def test_stray_token_in_adjacency_is_named(self, monkeypatch, capsys):
        # the first character decides: one bad token does not turn the
        # text into graph6
        monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 x\n"))
        assert main(["snf", "-"]) == cli.EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: non-integer token in adjacency matrix: invalid literal for int() with base 10: 'x'\n"
        )


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--bogus", "dgs16.g6"],
            ["invariants", "mate9.adj", "-p", "notanint"],
            ["certify", "dgs16.g6", "--primes-limit", "2"],
            ["certify", "mate9.adj", "--format", "adj"],
            ["certify", "dgs16.g6", "--json"],
            ["snf", "mate9.adj", "--format", "adj"],
        ],
        ids=["unknown-flag", "non-integer-prime", "removed-primes-limit", "removed-format", "removed-certify-json",
             "removed-snf-format"],
    )
    def test_exit_one_not_the_not_certified_two(self, fixture_files, capsys, argv):
        argv = [str(fixture_files / a) if a.endswith((".g6", ".adj")) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == cli.EXIT_INPUT_ERROR
        assert captured.out == "" and captured.err.startswith("usage: dgscert")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: dgscert certify")


class TestSnfCommand:
    def test_text_output_is_comma_joined(self, fixture_files, capsys):
        code = main(["snf", str(fixture_files / "mate9.adj")])
        assert capsys.readouterr().out.strip() == "1,1,1,1,1,2,2,30,30"
        assert code == 0

    def test_json_output(self, fixture_files, capsys):
        main(["snf", str(fixture_files / "mate9.adj"), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["snf"][-1] == "30" and data["n"] == 9

    @pytest.mark.parametrize(
        "graph6, snf", [("A_", ["1", "0"]), ("EhEG", ["1", "0", "0", "0", "0", "0"])]  # K_2 and C_6
    )
    def test_json_singular_walk_matrix_has_sign_zero(self, tmp_path, capsys, graph6, snf):
        path = tmp_path / "g.g6"
        path.write_text(graph6 + "\n")
        assert main(["snf", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"n": len(snf), "det_W": "0", "snf": snf, "det_sign": 0}
        assert '"det_W": "0"' in out and '"det_sign": 0}' in out


class TestInvariantViolationExit:
    @staticmethod
    def _broken(*args, **kwargs):
        raise InvariantViolation("divisibility chain broke")

    @staticmethod
    def _assert_one_line_naming_dgs16(code, capsys):
        captured = capsys.readouterr()
        assert code == EXIT_INVARIANT == 3
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "invariant violated: divisibility chain broke" in line
        assert emit_graph6(fixtures.dgs16_graph()) in line

    @pytest.mark.parametrize("command,target", [("certify", "certify_dgs"), ("snf", "smith_normal_form")])
    def test_own_exit_code_and_one_line_naming_the_graph(self, fixture_files, capsys, monkeypatch, command, target):
        monkeypatch.setattr(cli, target, self._broken)
        code = main([command, str(fixture_files / "dgs16.g6")])
        self._assert_one_line_naming_dgs16(code, capsys)

    def test_invariants_names_the_graph(self, fixture_files, capsys, monkeypatch):
        monkeypatch.setattr(specinv, "phi_report", self._broken)
        code = main(["invariants", str(fixture_files / "dgs16.g6"), "-p", "3"])
        self._assert_one_line_naming_dgs16(code, capsys)

    def test_invariants_checks_the_nullity_against_the_snf(self, fixture_files, capsys, wrong_nullity):
        code = main(["invariants", str(fixture_files / "dgs16.g6"), "-p", "3"])
        (line,) = capsys.readouterr().err.splitlines()
        assert code == EXIT_INVARIANT and "disagrees with the invariant factors at p=3" in line

    def test_invariants_checks_p_main_divides_chi(self, fixture_files, capsys, shifted_m_p):
        code = main(["invariants", str(fixture_files / "dgs16.g6"), "-p", "3", "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_INVARIANT and captured.out == ""
        (line,) = captured.err.splitlines()
        assert "invariant violated: p-main does not divide chi(A) at p=3" in line
        assert line.endswith(f"(graph {emit_graph6(fixtures.dgs16_graph())})")

    def test_invariants_checks_the_rank_of_the_hessenberg_pass(self, fixture_files, capsys, dropped_rank):
        g = fixtures.dgs16_graph()
        for p in (3, 5, 7):
            with pytest.raises(InvariantViolation):
                _prime_report(g, smith_normal_form(walk_matrix(g)), p)
        code = main(["invariants", str(fixture_files / "dgs16.g6"), "-p", "3", "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_INVARIANT and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.endswith(f"(graph {emit_graph6(g)})")

    @pytest.mark.parametrize(
        "command,target", [("table1", "certify_dgs"), ("conjecture-scan", "smith_normal_form")]
    )
    def test_corpus_commands_name_the_sample(self, capsys, monkeypatch, command, target):
        # the breach is raised in the per-sample worker, which tags it with the graph
        monkeypatch.setattr(experiments, target, self._broken)
        code = main([command, "--n-list", "10", "--samples", "3", "--seed", "4", "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_INVARIANT and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.endswith(f"(graph {emit_graph6(random_graph(10, derive_seed(4, 10, 0)))})")

    def test_any_other_exception_is_an_internal_error(self, fixture_files, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "certify_dgs", crash)
        code = main(["certify", str(fixture_files / "dgs16.g6")])
        captured = capsys.readouterr()
        assert code == EXIT_INVARIANT and captured.out == ""
        assert captured.err == "internal error: ZeroDivisionError: division by zero\n"

    def test_graph_tag_survives_the_worker_pickle(self):
        exc = InvariantViolation("divisibility chain broke")
        exc.graph6 = "A_"
        assert pickle.loads(pickle.dumps(exc)).graph6 == "A_"


class TestInvariantsCommand:
    def test_json_report(self, fixture_files, capsys):
        code = main(["invariants", str(fixture_files / "mate9.adj"), "-p", "5", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["sfp_phi"] == "x^2+x+1" and data["eq4_holds"] is True
        assert code == 0

    def test_text_report(self, fixture_files, capsys):
        main(["invariants", str(fixture_files / "mate9.adj"), "-p", "3"])
        out = capsys.readouterr().out
        assert "sfp_phi: x+2" in out

    def test_prime_above_2_62(self, tmp_path, capsys):
        path = tmp_path / "big.g6"
        path.write_text(emit_graph6(random_graph(*BIG_PRIME_GRAPH)) + "\n")
        code = main(["invariants", str(path), "-p", str(BIG_PRIME), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (data["p"], data["nullity"], data["eq4_holds"]) == (str(BIG_PRIME), 1, True)

    def test_even_prime_rejected(self, fixture_files, capsys):
        code = main(["invariants", str(fixture_files / "mate9.adj"), "-p", "2"])
        assert code == 1


class TestVerifyQCommand:
    def test_fixture_passes(self, fixture_files, capsys):
        code = main(["verify-q", str(fixture_files / "pair.txt"), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["level"] == 3 and data["conjugates"] and data["recovered_matches"]
        assert data["audit"]["prime_checks"] == [{"p": "3", "eq4_holds": False, "divides_level": True}]
        assert code == 0

    def test_corrupted_fixture_fails(self, fixture_files, tmp_path, capsys):
        text = (fixture_files / "pair.txt").read_text().splitlines()
        # swap the two graphs so Q no longer conjugates the first to the second
        text[0], text[1] = text[1], text[0]
        bad = tmp_path / "bad_pair.txt"
        bad.write_text("\n".join(text) + "\n")
        code = main(["verify-q", str(bad)])
        assert code == 2


class TestMatesCommand:
    def test_small_run(self, capsys):
        code = main(["mates", "-n", "4", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["total_iso_classes"] == 11 and data["families"] == []
        assert code == 0

    def test_text_summary(self, capsys):
        main(["mates", "-n", "3"])
        out = capsys.readouterr().out
        assert "iso_classes=4" in out

    def test_oracle_reads_and_writes_no_files(self, tmp_path):
        # an unusable home directory and a planted bogus result under it
        # must both leave the output equal to a fresh walk
        fresh = json.dumps(cospec.enumerate_generalized_cospectral_classes(4).to_json_dict(), indent=2) + "\n"
        src = str(Path(dgscert.__file__).resolve().parents[1])

        def run_mates(home: Path):
            env = {**os.environ, "HOME": str(home), "PYTHONPATH": src}
            argv = [sys.executable, "-m", "dgscert.cli", "mates", "-n", "4", "--json"]
            return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)

        home_file = tmp_path / "home_is_a_file"
        home_file.write_text("")
        proc = run_mates(home_file)
        assert proc.returncode == 0 and proc.stdout == fresh, proc.stderr

        planted = tmp_path / "home" / ".cache" / "dgscert" / "mates_n4.json"
        planted.parent.mkdir(parents=True)
        planted.write_text(json.dumps({"n": 4, "total_graphs": 1, "total_iso_classes": 1, "families": []}))
        proc = run_mates(tmp_path / "home")
        assert proc.returncode == 0 and proc.stdout == fresh, proc.stderr

    def test_order_above_budget_is_input_error(self, capsys):
        assert main(["mates", "-n", "8"]) == 1


class TestTable1Command:
    def test_csv_output_and_determinism(self, capsys):
        args = ["table1", "--n-list", "8", "--samples", "12", "--seed", "5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        header, row = first.strip().splitlines()
        assert header == (
            "n,samples,dn_squarefree,dgs_by_sqf_rule,dgs_by_main_rule,unknown,seed,incomplete,not_controllable"
        )
        assert row.startswith("8,12,")

    def test_json_output(self, capsys):
        main(["table1", "--n-list", "8,9", "--samples", "6", "--seed", "5", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in data["rows"]] == [8, 9]
        for r in data["rows"]:
            assert r["dgs_by_sqf_rule"] <= r["dgs_by_main_rule"] <= r["dn_squarefree"]

    def test_bad_n_list(self, capsys):
        assert main(["table1", "--n-list", "ten"]) == 1

    def test_negative_samples_is_input_error(self, capsys):
        assert main(["table1", "--n-list", "8", "--samples", "-1"]) == 1
        assert "samples must be non-negative" in capsys.readouterr().err

    def test_jobs_below_one_is_input_error(self, capsys):
        assert main(["table1", "--n-list", "8", "--samples", "2", "--jobs", "-4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "jobs must be at least 1" in captured.err

    def test_negative_time_limit_is_input_error(self, capsys):
        for limit in ("-1", "nan"):
            assert main(["table1", "--n-list", "8", "--samples", "2", "--time-limit", limit]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "time limit must be non-negative" in captured.err

    def test_order_out_of_range_is_input_error(self, capsys):
        # no graph is drawn with --samples 0, so the order must be checked first
        assert main(["table1", "--n-list", "8,70", "--samples", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "vertex count 70 outside supported range 1..64" in captured.err


class TestConjectureScanCommand:
    def test_runs_clean(self, capsys):
        code = main(["conjecture-scan", "--n-list", "9", "--samples", "8", "--seed", "3", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["total_findings"] == 0
        assert code == 0

    def test_negative_samples_is_input_error(self, capsys):
        assert main(["conjecture-scan", "--n-list", "9", "--samples", "-1", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "samples must be non-negative" in captured.err

    def test_zero_jobs_is_input_error(self, capsys):
        assert main(["conjecture-scan", "--n-list", "9", "--samples", "2", "--jobs", "0", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "jobs must be at least 1" in captured.err

    def test_order_out_of_range_is_input_error(self, capsys):
        assert main(["conjecture-scan", "--n-list", "0", "--samples", "0", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "vertex count 0 outside supported range 1..64" in captured.err


class TestHarnessFunctions:
    def test_run_experiment_row_consistency(self):
        rows, truncated = run_experiment([8], samples=15, seed=11)
        assert not truncated
        (row,) = rows
        assert row.dgs_by_sqf_rule <= row.dgs_by_main_rule <= row.dn_squarefree
        assert row.unknown == row.dn_squarefree - row.dgs_by_main_rule

    def test_run_experiment_worker_pool_matches_serial(self):
        serial, _ = run_experiment([7], samples=10, seed=2, jobs=1)
        pooled, _ = run_experiment([7], samples=10, seed=2, jobs=2)
        assert serial == pooled

    def test_pool_never_outnumbers_the_samples(self, monkeypatch):
        # a stand-in pool that records its size and maps serially, so no
        # process starts and no large worker count reaches the OS
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        serial, _ = run_experiment([7], samples=3, seed=2, jobs=1)
        assert run_experiment([7], samples=3, seed=2, jobs=64)[0] == serial
        run_experiment([7], samples=10, seed=2, jobs=2)
        run_experiment([7], samples=1, seed=2, jobs=64)
        assert asked == [3, 2]

    def test_experiment_row_validates_tallies(self):
        # each row breaks one clause of __post_init__ and keeps the others
        with pytest.raises(InvariantViolation):  # dgs_by_sqf_rule > dgs_by_main_rule
            ExperimentRow(8, 10, 5, 6, 4, 1, 0, 0, 0)
        with pytest.raises(InvariantViolation):  # unknown != dn_squarefree - dgs_by_main_rule
            ExperimentRow(8, 10, 5, 4, 4, 2, 0, 0, 0)
        with pytest.raises(InvariantViolation):  # dn_squarefree + not_controllable > samples
            ExperimentRow(8, 10, 5, 4, 4, 1, 0, 0, 6)
        with pytest.raises(InvariantViolation):  # incomplete + not_controllable > samples
            ExperimentRow(8, 10, 0, 0, 0, 0, 0, 5, 6)

    def test_run_experiment_counts_incomplete_and_not_controllable(self):
        # low effort leaves d_n unfactored on some n = 16 graphs; most n = 8
        # walk matrices are singular
        rows, _ = run_experiment([8, 16], samples=10, seed=1, effort="low")
        for row in rows:
            statuses = [certify_dgs(random_graph(row.n, derive_seed(1, row.n, k)), "low").status for k in range(10)]
            assert row.incomplete == statuses.count(STATUS_FACTORIZATION_INCOMPLETE)
            assert row.not_controllable == statuses.count(STATUS_NOT_CONTROLLABLE)
        assert rows[0].not_controllable > 0 and rows[1].incomplete > 0

    def test_scan_counts(self):
        rows = run_conjecture_scan([9], samples=6, seed=4)
        (row,) = rows
        assert row.prime_checks >= 0 and not row.findings

    def test_scan_checks_the_nullity_against_the_snf(self, wrong_nullity):
        with pytest.raises(InvariantViolation, match="disagrees with the invariant factors"):
            run_conjecture_scan([10, 12], samples=10, seed=1)

    def test_scan_single_vertex_is_vacuous(self):
        # d_1 = 1 has no odd prime factors, so nothing is checked
        (row,) = run_conjecture_scan([1], samples=3, seed=4)
        assert row.prime_checks == 0 and not row.findings

    def test_run_experiment_rejects_unknown_effort(self):
        # no sample reaches the factoring ladder, so only the up-front check can refuse it
        with pytest.raises(ValueError, match="unknown effort level"):
            run_experiment([8], samples=0, seed=1, effort="bogus")

    def test_scan_rejects_unknown_effort(self):
        with pytest.raises(ValueError, match="unknown effort level"):
            run_conjecture_scan([8], samples=0, seed=1, effort="bogus")

    def test_time_limit_truncation(self):
        rows, truncated = run_experiment([8, 9, 10], samples=5, seed=1, time_limit=0.0)
        assert truncated and len(rows) < 3
