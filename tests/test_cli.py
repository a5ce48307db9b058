"""Command-line interface: formats, exit codes, determinism, round trips."""

import hashlib
import json

import pytest

from kmeans_richness import lloyd, verify
from kmeans_richness.cli import main

CONFIG_AA = '{"a": ["1", "3", "3", "1"], "p": ["2", "2", "2"]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_aa(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "a=1,3,3,1; p=2,2,2")
        assert code == 0
        assert out.strip() == "AA; plan: all-must-fail [{2,4,5,7}]"

    def test_add(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "a=1,1,1,1; p=3,3,3")
        assert code == 0
        assert out.startswith("ADD; plan: any-must-fail [S1={2,5,7,8}, S2={1,2,4,7},")

    def test_non_positive_distance(self, capsys):
        code, _, err = run_cli(capsys, "classify", "a=0,1,1,1; p=1,1,1")
        assert code == 2
        assert "non-positive" in err

    def test_invalid_config(self, capsys):
        code, _, err = run_cli(capsys, "classify", "a=5,1,1,1; p=1,1,1")
        assert code == 2
        assert "not valid" in err

    def test_tie_exit(self, capsys):
        code, _, err = run_cli(capsys, "classify", "a=2,2,3,1; p=2,2,2")
        assert code == 2
        assert "tie" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "a=1,3,3,1; p=2,2,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["label"] == "AA"
        assert data["plan"]["candidates"] == [[2, 4, 5, 7]]

    def test_config_from_file(self, capsys, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("a=1,3,3,1; p=2,2,2\n")
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert out.startswith("AA")

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": 5, "p": []}',
            '{"a": ["1", "3", "3", "1"], "p": "222"}',
            '{"k": [2], "a": ["1", "1"], "p": ["2"]}',
        ],
    )
    def test_json_config_fields_malformed(self, capsys, text):
        code, out, err = run_cli(capsys, "classify", text)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1

    def test_json_config_inline(self, capsys):
        text = '{"k": 4, "a": ["1","3","3","1"], "p": ["2","2","2"]}'
        code, out, _ = run_cli(capsys, "classify", text)
        assert code == 0
        assert out.startswith("AA")


class TestSimulateCommand:
    def test_adversarial_run(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "a=1,3,3,1; p=2,2,2", "--seeding", "2,4,5,7")
        assert code == 0
        assert "converged" in out
        assert "differs from the pairing partition" in out

    def test_two_pairs_reach_target(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "a=1,1; p=10", "--seeding", "1,3")
        assert code == 0
        assert "equals the pairing partition" in out

    def test_strict_tie_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "a=2,2; p=2", "--seeding", "1,3")
        assert code == 2
        assert "tie at step" in out

    def test_branch_mode_on_tie(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "a=2,2; p=2", "--seeding", "1,3", "--tie-mode", "branch"
        )
        assert code == 0
        assert "branch" in out

    def test_branch_limit_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(lloyd, "DEFAULT_BRANCH_LIMIT", 1)
        code, out, err = run_cli(
            capsys, "simulate", "a=2,2; p=2", "--seeding", "1,3", "--tie-mode", "branch"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_json_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "a=1,3,3,1; p=2,2,2", "--seeding", "2,4,5,7", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["outcome"]["kind"] == "converged"
        assert data["steps"][1]["centroids"] == ["4/3", "6", "8", "38/3"]

    def test_bad_seeding(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "a=1,1; p=10", "--seeding", "1,x")
        assert code == 2
        assert "seeding" in err


class TestProbabilityCommand:
    def test_k4(self, capsys):
        code, out, _ = run_cli(capsys, "probability", "a=1,3,3,1; p=2,2,2")
        assert code == 0
        assert "violates probabilistic 4-richness" in out

    def test_k1(self, capsys):
        code, out, _ = run_cli(capsys, "probability", "a=1")
        assert code == 0
        assert "success probability: 1 " in out
        assert "no violation witnessed" in out

    def test_k5_enumerates_252(self, capsys):
        code, out, _ = run_cli(capsys, "probability", "a=1,1,1,1,1; p=9,10,11,12", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["total_seedings"] == 252
        assert data["violates_bound"] is True

    def test_invalid(self, capsys):
        code, _, err = run_cli(capsys, "probability", "a=5,1,1,1; p=1,1,1")
        assert code == 2


class TestVerifyCommand:
    def test_small_run_holds(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "AA,ADD", "--samples", "3",
            "--seed", "0", "--output", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["violation_count"] == 0
        assert {r["target"] for r in data["regions"]} == {"AA", "ADD"}

    def test_byte_identical_reports_for_same_seed(self, capsys, tmp_path):
        # the second run also checks a CSV path and makes both directories first
        paths = [tmp_path / "a.json", tmp_path / "new" / "b.json"]
        extra = [(), ("--csv", str(tmp_path / "other" / "b.csv"))]
        for path, more in zip(paths, extra):
            code, _, _ = run_cli(
                capsys,
                "verify", "--k", "4", "--regions", "AA,AB", "--samples", "3",
                "--seed", "42", "--output", str(path), *more,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_summary(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "summary.csv"
        code, _, _ = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "AA", "--samples", "2",
            "--output", str(out_path), "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("region,samples,holds")
        assert lines[1].startswith("k=4:AA,")

    @pytest.mark.parametrize("csv", ["r.json", "./r.json"])
    def test_csv_and_report_same_file_rejected(self, capsys, tmp_path, monkeypatch, csv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "AA", "--samples", "1",
            "--output", "r.json", "--csv", csv,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_violations_exit_1(self, capsys, tmp_path):
        # k=2 makes no adversarial claim: every seeding reaches the pairing
        code, _, _ = run_cli(
            capsys,
            "verify", "--k", "2", "--regions", "all-valid", "--samples", "2",
            "--bound", "4", "--output", str(tmp_path / "r.json"),
        )
        assert code == 1

    def test_k5_lemma_regions(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--k", "5", "--regions", "BD,BE", "--samples", "2",
            "--output", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert [r["target"] for r in data["regions"]] == ["BD", "BE"]
        assert data["violation_count"] == 0

    def test_small_k_labeled_out_of_theorem(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        run_cli(
            capsys,
            "verify", "--k", "3", "--regions", "all-valid", "--samples", "2",
            "--bound", "6", "--output", str(out_path),
        )
        data = json.loads(out_path.read_text())
        assert data["regions"][0]["note"] == "no theorem claim at k<4"

    def test_labeled_region_below_k4_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "verify", "--k", "3", "--regions", "AA", "--samples", "1",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 2

    def test_label_never_returned_at_k_rejected(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "verify", "--k", "5", "--regions", "AA", "--samples", "1",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "args",
        [("--k", "4", "--regions", "AA(2)"), ("--k", "5", "--regions", "BC(1)"),
         ("--k", "4", "--bound", "4294967296")],
        ids=["param_at_k4", "bc_param_below_2", "bound_past_one_word"],
    )
    def test_region_the_sampler_cannot_draw_rejected(self, capsys, tmp_path, args):
        code, out, err = run_cli(
            capsys, "verify", *args, "--samples", "1", "--output", str(tmp_path / "r.json")
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "output, csv",
        [(".", None), ("r.json", "."), ("plain/r.json", None), ("r.json", "plain/r.csv")],
        ids=["output_is_a_directory", "csv_is_a_directory", "output_under_a_file",
             "csv_under_a_file"],
    )
    def test_unwritable_path_fails_before_sampling(self, capsys, tmp_path, monkeypatch, output, csv):
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign ran before the output paths were checked")

        monkeypatch.setattr(verify, "campaign", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plain").write_text("")
        argv = ["verify", "--k", "4", "--regions", "AA", "--samples", "1", "--output", output]
        code, out, err = run_cli(capsys, *argv, *(("--csv", csv) if csv else ()))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["plain"]  # no report written

    def test_samples_below_one_makes_no_directory(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "AA", "--samples", "0",
            "--output", str(tmp_path / "new" / "r.json"),
        )
        assert code == 2
        assert err == "error: --samples must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KMEANS_RICHNESS_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "AA", "--samples", "1",
            "--output", "nested/report.json",
        )
        assert code == 0
        assert (tmp_path / "nested" / "report.json").exists()


class TestGoldenReports:
    """``verify`` report bytes are pinned: a change to sampling, classification
    or certification that alters a report for a fixed seed shows here."""

    @pytest.mark.parametrize(
        "k, samples, digest",
        [
            ("4", "3", "540a66043bb9eb63bcdcb5fa1a3f4225d53bce56bfa8c561dd209ea0b638acd7"),
            ("6", "2", "dc277aa5061726d4acfe2eefb1094b61857ff5ac9844ce022397db1be9b4b03f"),
        ],
    )
    def test_report_sha256(self, capsys, tmp_path, k, samples, digest):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--k", k, "--samples", samples, "--seed", "0", "--output", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestCertifyCommand:
    def test_certificate_and_check_roundtrip(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, _, _ = run_cli(
            capsys, "certify", "a=1,3,3,1; p=2,2,2", "--output", str(cert_path)
        )
        assert code == 0
        data = json.loads(cert_path.read_text())
        assert data["label"] == "AA"
        assert data["verdict"] == "plan-holds"
        assert data["candidates"][0]["trace"]["steps"]

        code, out, _ = run_cli(capsys, "certify", "--check", str(cert_path))
        assert code == 0
        assert "checks out" in out

    def test_check_flags_corruption(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "a=1,1,1,1; p=3,3,3", "--output", str(cert_path))
        data = json.loads(cert_path.read_text())
        data["candidates"][0]["reached_target"] = not data["candidates"][0]["reached_target"]
        cert_path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "certify", "--check", str(cert_path))
        assert code == 1
        assert "check failed" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["oracle"].update(success_probability="1/2"),
            lambda d: d["oracle"].update(reached_count=999),
            lambda d: d["oracle"].update(empty_rule_used=True),
            lambda d: d["candidates"][0].update(trace_digest="sha256:00"),
            lambda d: d.update(label="AA"),
            lambda d: d.update(semantics="oracle-only"),
            lambda d: d.update(candidates=d["candidates"][:1]),
            lambda d: d["candidates"][1].update(name="S9"),
            lambda d: d.update(skip_reason="edited"),
            lambda d: d["candidates"][0].pop("trace"),
        ],
        ids=[
            "probability", "reached_count", "empty_rule_used", "trace_digest", "label",
            "semantics", "first_candidate_only", "candidate_name", "skip_reason", "trace_removed",
        ],
    )
    def test_check_flags_edited_claims(self, capsys, tmp_path, edit):
        cert_path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "a=1,1,1,1; p=3,3,3", "--output", str(cert_path))
        data = json.loads(cert_path.read_text())
        edit(data)
        cert_path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "certify", "--check", str(cert_path))
        assert code == 1
        assert "check failed" in err

    @pytest.mark.parametrize("key", ["two\nlines", "\x85", "\u2028", ""])
    def test_check_added_key_stays_on_one_line(self, capsys, tmp_path, key):
        cert_path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "a=1,3,3,1; p=2,2,2", "--output", str(cert_path))
        data = json.loads(cert_path.read_text())
        data["oracle"][key] = None
        cert_path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "certify", "--check", str(cert_path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"check failed: oracle.{json.dumps(key)}: not part of a rebuilt certificate"
        ]

    def test_check_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "certify", "--check", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unparseable_input(self, capsys):
        code, _, err = run_cli(capsys, "certify", "a=1,x; p=2")
        assert code == 2

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "certify")
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "[1, 2]",
            '{"config": []}',
            '{"config": %s, "candidates": "x"}' % CONFIG_AA,
            '{"config": %s, "candidates": [{"seeding": [1, 2, 3, 4]}]}' % CONFIG_AA,
            '{"config": %s, "candidates": [{"seeding": [1, 2, 3, 99], "outcome": "converged"}]}'
            % CONFIG_AA,
            '{"config": %s, "oracle": 5}' % CONFIG_AA,
            '{"config": %s, "oracle": {"failing_seeding": 7}}' % CONFIG_AA,
        ],
    )
    def test_check_malformed_certificate(self, capsys, tmp_path, text):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(text)
        code, out, err = run_cli(capsys, "certify", "--check", str(cert_path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: malformed certificate")
