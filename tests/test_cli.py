"""Command-line interface: formats, exit codes, determinism, round trips."""

import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

import kmeans_richness
from kmeans_richness import cases, lloyd, verify
from kmeans_richness.cli import _check_writable, build_parser, main
from kmeans_richness.model import Seeding

CONFIG_AA = '{"a": ["1", "3", "3", "1"], "p": ["2", "2", "2"]}'
# k=1000, valid and classified (BE): a survey of its C(2000,1000) seedings could never finish
CONFIG_K1000 = "a=" + ",".join(["1"] * 1000) + "; p=" + ",".join(["5"] * 999)
CONFIG_K15 = "a=" + ",".join(["1"] * 15) + "; p=" + ",".join(["5"] * 14)  # one past the survey's limit


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

    def test_unclassified(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "a=3,3,1,1,1; p=1,4,2,2")
        assert code == 0
        assert out.strip() == "UNCLASSIFIED; plan: none (exhaustive search applies)"
        code, out, _ = run_cli(capsys, "classify", "a=3,3,1,1,1; p=1,4,2,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["label"] == "UNCLASSIFIED"
        assert data["plan"] is None

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

    def test_empty_seeding_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "a=1,1; p=1", "--seeding", "{}")
        assert code == 2
        assert out == ""
        assert err == "error: empty seeding\n"

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

    def test_iteration_cap_exceeded(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "a=1,3,3,1; p=2,2,2", "--seeding", "1,2,3,4", "--cap", "1"
        )
        assert code == 0
        assert out.endswith("\noutcome: iteration cap 1 exceeded\n")
        assert err == ""

    def test_reader_closing_stdout_early_exits_141(self):
        # like `| head -n 1` on a 291,774-byte trace: the reader's leaving is no usage error
        src = os.path.dirname(os.path.dirname(kmeans_richness.__file__))
        argv = [
            sys.executable, "-m", "kmeans_richness.cli", "simulate", "a=1,1,1,1,1,1; p=1,1,1,1,1",
            "--seeding", "1,3,5,7,9,11", "--tie-mode", "branch", "--format", "json",
        ]
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"[\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (141, b"")


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

    def test_every_seeding_tied(self, capsys, monkeypatch):
        # no config at k = 2 or 3 with entries 1..6 ties on every seeding
        def all_tied(cfg):
            seedings = tuple(Seeding(c) for c in itertools.combinations(range(1, 2 * cfg.k + 1), cfg.k))
            return verify.SeedingSurvey(len(seedings), 0, 0, len(seedings), 0, None, seedings, False)

        monkeypatch.setattr(verify, "survey_seedings", all_tied)
        code, out, err = run_cli(capsys, "probability", "a=1,3,3,1; p=2,2,2")
        assert code == 2
        assert out == ""
        assert err == "error: no seeding run settled; probability undefined\n"


class TestSurveyLimit:
    """A survey of more than C(28,14) seedings fails at once, with one line,
    before it builds its step-0 table, and leaves no file and no folder."""

    @pytest.mark.parametrize(
        "argv",
        [("probability", CONFIG_K1000), ("certify", CONFIG_K1000, "--output", "new/c.json"),
         ("verify", "--k", "1000", "--samples", "1", "--output", "new/r.json"),
         ("probability", CONFIG_K15), ("certify", CONFIG_K15, "--output", "new/c.json")],
        ids=["probability", "certify", "verify", "probability-k15", "certify-k15"],
    )
    def test_k1000_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the survey built its step-0 table past its limit")

        monkeypatch.setattr(verify, "_step0_table", refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        seedings = "C(30,15)" if CONFIG_K15 in argv else "C(2000,1000)"
        assert err == f"error: {seedings} seedings are past the survey's limit of C(28,14) = 40,116,600\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "region, seedings",
        [(("--k", "1000"), "C(2000,1000)"), (("--k", "15", "--regions", "all-valid"), "C(30,15)")],
        ids=["k1000", "k15-all-valid"],
    )
    def test_verify_without_oracle_stops_before_sampling(self, capsys, tmp_path, monkeypatch, region, seedings):
        # UNCLASSIFIED samples, which an all-valid region draws, are surveyed even with the oracle off
        def refuse(*args, **kwargs):
            raise AssertionError("verify sampled a region past the survey's limit")

        monkeypatch.setattr(verify, "sample_config", refuse)
        monkeypatch.chdir(tmp_path)
        argv = ("verify", *region, "--samples", "5", "--no-oracle", "--output", "new/r.json")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {seedings} seedings are past the survey's limit of C(28,14) = 40,116,600\n"
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_serializes_the_report_once(self, capsys, tmp_path, monkeypatch, fmt):
        calls = {"to_dict": 0, "to_csv": 0}
        for name in calls:
            def counted(self, _name=name, _method=getattr(verify.Report, name)):
                calls[_name] += 1
                return _method(self)

            monkeypatch.setattr(verify.Report, name, counted)
        paths = {"json": tmp_path / "r.json", "csv": tmp_path / "r.csv"}
        code, out, _ = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "AA,ADD", "--samples", "2",
            "--output", str(paths["json"]), "--csv", str(paths["csv"]), "--format", fmt,
        )
        assert code == 0
        assert calls == {"to_dict": 1, "to_csv": 1}
        assert out == paths[fmt].read_text()

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

    def test_region_names_are_canonical(self, capsys, tmp_path):
        # BC(02) samples BC(2), and its report is BC(2)'s, byte for byte
        reports = []
        for target in ("BC(02)", " BC(2)"):
            out_path = tmp_path / f"{len(reports)}.json"
            code, _, _ = run_cli(
                capsys,
                "verify", "--k", "5", "--regions", target, "--samples", "1",
                "--output", str(out_path),
            )
            assert code == 0
            reports.append(out_path.read_bytes())
        assert reports[0] == reports[1]
        (region,) = json.loads(reports[0])["regions"]
        assert (region["target"], region["region"]) == ("BC(2)", "k=5:BC(2)")

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
        [(".", None), ("r.json", "."), ("plain/r.json", None), ("r.json", "plain/r.csv"),
         ("new/r.json", "."), ("new/r.json", "plain/r.csv")],
        ids=["output_is_a_directory", "csv_is_a_directory", "output_under_a_file",
             "csv_under_a_file", "csv_is_a_directory_output_in_a_new_one",
             "csv_under_a_file_output_in_a_new_one"],
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

    @pytest.mark.parametrize(
        "k, regions, named",
        [("4", "AA,AA", "AA"), ("4", "AA,ADD, AA", "AA"), ("5", "BC(2),BC(02)", "BC(02)"),
         ("3", "all-valid,all-valid", "all-valid")],
        ids=["twice", "apart", "same_param", "all_valid"],
    )
    def test_repeated_region_rejected(self, capsys, tmp_path, monkeypatch, k, regions, named):
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign ran with a repeated region")

        monkeypatch.setattr(verify, "campaign", refuse)
        out_path = tmp_path / "r.json"
        code, out, err = run_cli(
            capsys,
            "verify", "--k", k, "--regions", regions, "--samples", "1", "--output", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: region {named} is given more than once\n"
        assert not out_path.exists()

    def test_unwritable_folder_fails_before_sampling(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign ran before the output paths were checked")

        monkeypatch.setattr(verify, "campaign", refuse)
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        code, out, err = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "AA", "--samples", "1",
            "--output", str(tmp_path / "new" / "r.json"),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {tmp_path} is not writable\n"
        assert list(tmp_path.iterdir()) == []

    def test_check_writable_creates_nothing(self, tmp_path):
        _check_writable(tmp_path / "a" / "b.json", None)
        assert not (tmp_path / "a").exists()

    def test_samples_below_one_makes_no_directory(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "AA", "--samples", "0",
            "--output", str(tmp_path / "new" / "r.json"),
        )
        assert code == 2
        assert err == "error: --samples must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_no_regions_given(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, out, err = run_cli(
            capsys, "verify", "--k", "4", "--regions", ",", "--samples", "1", "--output", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert err == "error: no regions given\n"
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


class TestParserReuse:
    """``main`` builds its parser once per process; a reused parser answers as a
    fresh one, also after a usage error or ``--help``."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--k", "4", "--regions", "AA,AB", "--samples", "3", "--seed", "42"],
            ["simulate", "a=1,3,3,1; p=2,2,2", "--seeding", "2,4,5,7", "--tie-mode", "branch"],
            ["classify", CONFIG_AA, "--format", "json"],
            ["certify", "--check", "cert.json"],
        ],
    )
    def test_reused_parser_parses_as_a_fresh_one(self, argv):
        fresh = build_parser.__wrapped__()
        assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))

    def test_usage_error_and_help_between_identical_verify_calls(self, capsys, tmp_path):
        argv = [
            "verify", "--k", "4", "--regions", "AA,AB", "--samples", "3", "--seed", "42",
            "--output", str(tmp_path / "report.json"),
        ]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        first = (code, out, (tmp_path / "report.json").read_bytes())
        with pytest.raises(SystemExit) as usage:
            main(["verify", "--k", "x"])
        assert usage.value.code == 2
        with pytest.raises(SystemExit) as shown:
            main(["verify", "--help"])
        assert shown.value.code == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out, (tmp_path / "report.json").read_bytes()) == first

    def test_classify_json_repeats(self, capsys):
        argv = ("classify", CONFIG_AA, "--format", "json")
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, "classify", CONFIG_AA)[1].startswith("AA; plan:")  # default format
        assert run_cli(capsys, *argv) == first
        assert json.loads(first[1])["label"] == "AA"


class TestGoldenReports:
    """``verify`` report bytes are pinned: a change to sampling, classification
    or certification that alters a report for a fixed seed shows here."""

    @pytest.mark.parametrize(
        "k, samples, digest",
        [
            ("4", "3", "d0938445a5dbe347f353fc3fdd881c4358c26a938d7d52472b0946c792eda4b3"),
            ("6", "2", "ca4d1560c1f1c071e0ddbb174c6af2252c160735f169aabfe87d328014c64baf"),
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

    def test_violation_report_sha256(self, capsys, tmp_path, monkeypatch):
        # prescribe the seeding {1,3,5,7}, which reaches the pairing: ADD violates
        prescribed = cases._adversarial_plan

        def pairing_plan(label, k):
            plan = prescribed(label, k)
            return dataclasses.replace(plan, candidates=(Seeding((1, 3, 5, 7)),), names=(None,))

        surveys = []
        survey = verify._survey

        def counted_survey(cfg, *args, **kwargs):
            surveys.append(cfg)
            return survey(cfg, *args, **kwargs)

        monkeypatch.setattr(cases, "_adversarial_plan", pairing_plan)
        monkeypatch.setattr(verify, "_survey", counted_survey)
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--k", "4", "--regions", "ADD", "--samples", "3", "--seed", "5",
            "--bound", "12", "--output", str(out_path),
        )
        assert code == 1
        assert json.loads(out_path.read_text())["violation_count"] == 3
        assert len(surveys) == 3  # one survey per sample: a violation is certified once
        digest = "ae16d61c9de0d3e546ebdeb4fc7f841f904c20b5cefd691a9234740c046cb854"
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

    def test_stdout_holds_the_output_file_bytes(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "certify", "a=1,3,3,1; p=2,2,2", "--output", str(cert_path))
        assert code == 0
        assert out == f"certificate written to {cert_path}\n"
        code, out, err = run_cli(capsys, "certify", "a=1,3,3,1; p=2,2,2")
        assert code == 0
        assert err == ""
        assert out == cert_path.read_text()

    @pytest.mark.parametrize(
        "text, verdict, reason, exit_code",
        [
            ("a=2,2,1,1; p=1,1,1", "skipped-tie", "tie during candidate {1,3,5,7}", 0),
            ("a=1,1,1,1; p=1,1,1", "skipped-tie", "classification tie", 0),
            ("a=1,1; p=10", "plan-violated", None, 1),  # k=2: every seeding reaches the pairing
        ],
        ids=["candidate_tie", "classification_tie", "violated"],
    )
    def test_exit_code_is_one_only_for_a_violation(
        self, capsys, tmp_path, text, verdict, reason, exit_code
    ):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "certify", text, "--output", str(cert_path))
        assert code == exit_code
        assert out == f"certificate written to {cert_path}\n"
        data = json.loads(cert_path.read_text())
        assert data["verdict"] == verdict
        assert (data["skip_reason"] or "").startswith(reason or "")
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

    @pytest.mark.parametrize("output", [".", "plain/cert.json"], ids=["a_directory", "under_a_file"])
    def test_unwritable_output_fails_before_certifying(self, capsys, tmp_path, monkeypatch, output):
        def refuse(*args, **kwargs):
            raise AssertionError("the config was certified before the output path was checked")

        monkeypatch.setattr(verify, "certify_config", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plain").write_text("")
        code, out, err = run_cli(capsys, "certify", "a=1,3,3,1; p=2,2,2", "--output", output)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["plain"]  # no certificate written
        assert (tmp_path / "plain").read_text() == ""

    def test_failure_after_the_checks_leaves_no_folder(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "certify", "a=5,1; p=1", "--output", "new/deeper/c.json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_check_rejects_a_boolean_k(self, capsys, tmp_path):
        # true is an int in Python, but not a declared k; the k=1 certificate
        # with "k": true would otherwise check out as k=1
        cert_path = tmp_path / "cert.json"
        run_cli(capsys, "certify", '{"a": ["1"], "p": []}', "--output", str(cert_path))
        data = json.loads(cert_path.read_text())
        data["config"]["k"] = True
        cert_path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "certify", "--check", str(cert_path))
        assert code == 2
        assert out == ""
        assert err == "error: 'k' must be an integer\n"

    @pytest.mark.parametrize(
        "extra", [["a=9,9,9; p=1,1"], ["--output", "other.json"]], ids=["config", "output"]
    )
    def test_check_takes_no_config_and_no_output(self, capsys, tmp_path, monkeypatch, extra):
        cert_path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "a=1,3,3,1; p=2,2,2", "--output", str(cert_path))

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate was read before the command line was checked")

        monkeypatch.setattr(verify, "recheck_certificate", refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "certify", *extra, "--check", str(cert_path))
        assert code == 2
        assert out == ""
        assert err == "error: certify --check PATH takes no config and no --output\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cert.json"]

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
