"""Subcommand behavior: outputs, reports, exit codes, and stdout shapes."""

from __future__ import annotations

import json
import math

import pytest

from toc.cli import main, sig12
from toc.records import read_records, write_records


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestSig12:
    def test_rounds_to_twelve_significant_digits(self):
        assert sig12(0.8660254037844386) == 0.866025403784
        assert sig12(1234567.8912345678) == 1234567.89123

    def test_short_values_unchanged(self):
        assert sig12(0.5) == 0.5


class TestSegment:
    def test_stitches_corpus_shots(self, corpus, tmp_path, capsys):
        out = tmp_path / "clips.records"
        code, stdout, _ = run_cli(
            ["segment", "--shots", corpus.manifest["paths"]["shots"], "-o", str(out)],
            capsys,
        )
        assert code == 0
        clips = read_lines(out)
        # s00 merges (0.99) then splits (0.2) then merges (0.95); s01 never merges
        by_video = {}
        for rec in clips:
            by_video.setdefault(rec["video_id"], []).append(rec)
        assert len(by_video["s00"]) == 2
        assert len(by_video["s01"]) == 3
        assert "stitched 7 shots into 5 clips across 2 videos" in stdout
        report = read_lines(tmp_path / "clips.records.report")
        assert {e["stage"]: e["count"] for e in report} == {
            "videos": 2, "shots_in": 7, "clips_out": 5,
        }

    def test_tau_one_keeps_every_shot(self, corpus, tmp_path, capsys):
        out = tmp_path / "clips.records"
        code, _, _ = run_cli(
            [
                "segment", "--shots", corpus.manifest["paths"]["shots"],
                "--tau", "1.0", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert len(read_lines(out)) == 7

    def test_missing_shots_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["segment", "--shots", str(tmp_path / "nope"), "-o", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1 and "missing file" in err


class TestTree:
    def test_prints_layers_then_compilations(self, capsys):
        code, stdout, _ = run_cli(["tree", "--n", "4", "--select", "0,2"], capsys)
        assert code == 0
        assert stdout.splitlines() == [
            "layer 0: [0,3]",
            "layer 1: [0,1] [2,3]",
            "layer 2: [0,0] [2,2]",
            "compilation 0: 0,1,2,3",
            "compilation 1: 0,2",
        ]

    def test_report_only_on_request(self, tmp_path, capsys):
        report = tmp_path / "tree.report"
        code, _, _ = run_cli(
            ["tree", "--n", "3", "--select", "0,1", "--report", str(report)], capsys
        )
        assert code == 0
        assert {e["stage"]: e["count"] for e in read_lines(report)} == {
            "layers": 3, "compilations": 2,
        }

    def test_bad_selection_is_usage_error(self, capsys):
        code, _, err = run_cli(["tree", "--n", "4", "--select", "a,b"], capsys)
        assert code == 2 and "usage error" in err

    def test_out_of_range_selection_is_run_error(self, capsys):
        code, _, err = run_cli(["tree", "--n", "4", "--select", "0,9"], capsys)
        assert code == 1 and "error" in err


class TestBuildSft:
    def test_corpus_run(self, corpus, tmp_path, capsys):
        paths = corpus.manifest["paths"]
        out = tmp_path / "sft.records"
        code, stdout, _ = run_cli(
            [
                "build-sft", "--videos", paths["clips"], "--qa", paths["qa"],
                "--config", paths["config"], "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        emitted = read_lines(out)
        assert len(emitted) == corpus.manifest["expected_emitted"]
        for rec in emitted:
            assert rec["target"].startswith("<locate>")
            assert "<answer>" in rec["target"]
        rejected = read_lines(tmp_path / "sft.records.rejected")
        reasons = sorted(r["reason"] for r in rejected)
        assert reasons == sorted(
            reason
            for reason, count in corpus.manifest["expected_rejections"].items()
            for _ in range(count)
        )
        report = read_lines(tmp_path / "sft.records.report")
        stage = {e["stage"]: e["count"] for e in report if e["kind"] == "stage"}
        assert stage["total"] == corpus.manifest["num_samples"]
        assert stage["emitted"] == corpus.manifest["expected_emitted"]
        rejection = {e["reason"]: e["count"] for e in report if e["kind"] == "rejection"}
        assert rejection == corpus.manifest["expected_rejections"]
        assert f"-> {out}" in stdout

    def test_bad_config_is_run_error(self, corpus, tmp_path, capsys):
        paths = corpus.manifest["paths"]
        bad = tmp_path / "config.json"
        bad.write_text('{"unknown_knob": 1}', encoding="utf-8")
        code, _, err = run_cli(
            [
                "build-sft", "--videos", paths["clips"], "--qa", paths["qa"],
                "--config", str(bad), "-o", str(tmp_path / "o"),
            ],
            capsys,
        )
        assert code == 1 and "error" in err


    def test_duplicate_sample_id_is_run_error(self, corpus, tmp_path, capsys):
        paths = corpus.manifest["paths"]
        qa = tmp_path / "qa.records"
        rows = list(read_records(paths["qa"]))
        write_records(qa, rows + rows[:1])
        out = tmp_path / "sft.records"
        code, _, err = run_cli(
            [
                "build-sft", "--videos", paths["clips"], "--qa", str(qa),
                "--config", paths["config"], "-o", str(out),
            ],
            capsys,
        )
        assert code == 1 and "Traceback" not in err
        assert f"qa.records:{len(rows) + 1}: sample_id" in err and "duplicates line 1" in err
        (entry,) = read_lines(tmp_path / "sft.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert not out.exists()


class TestEstimateDemand:
    def test_corpus_run(self, corpus, tmp_path, capsys):
        paths = corpus.manifest["paths"]
        out = tmp_path / "demand.records"
        code, stdout, _ = run_cli(
            [
                "estimate-demand", "--qa", paths["qa"], "--config", paths["config"],
                "--m", "8", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        rows = read_lines(out)
        assert [r["alpha"] for r in rows] == corpus.manifest["expected_alphas"]
        for row in rows:
            assert row["m_trials"] == 8
            assert row["reasoning_demand"] == pytest.approx(math.exp(-row["alpha"] / 8))
            assert row["difficulty"] == pytest.approx(1 - row["alpha"] / 8)
        assert "annotated 20/20" in stdout


@pytest.fixture
def demand_file(corpus, tmp_path, capsys):
    paths = corpus.manifest["paths"]
    out = tmp_path / "demand.records"
    code = main(
        ["estimate-demand", "--qa", paths["qa"], "--config", paths["config"], "-o", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    return out


class TestBuildRl:
    def test_balanced_output(self, demand_file, tmp_path, capsys):
        out = tmp_path / "rl.records"
        code, stdout, err = run_cli(
            [
                "build-rl", "--in", str(demand_file), "--band", "0.2:0.8",
                "--target", "10", "--seed", "0", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0 and err == ""
        rows = read_lines(out)
        assert len(rows) == 10
        assert sorted({r["alpha"] for r in rows}) == [2, 3, 4, 5, 6]
        report = read_lines(tmp_path / "rl.records.report")
        tiers = [e for e in report if e["kind"] == "tier"]
        assert [t["count"] for t in tiers] == [2, 2, 2, 2, 2]
        assert not [e for e in report if e["kind"] == "warning"]

    def test_under_supply_warns(self, demand_file, tmp_path, capsys):
        out = tmp_path / "rl.records"
        code, _, err = run_cli(
            [
                "build-rl", "--in", str(demand_file), "--target", "50",
                "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "supply below target: emitted 10 of 50 requested" in err
        report = read_lines(tmp_path / "rl.records.report")
        warnings = [e["message"] for e in report if e["kind"] == "warning"]
        assert warnings == ["supply below target: emitted 10 of 50 requested"]

    def test_truncated_line_is_run_error(self, demand_file, tmp_path, capsys):
        lines = demand_file.read_text(encoding="utf-8").splitlines()
        truncated = tmp_path / "truncated.records"
        truncated.write_text("\n".join(lines[:2] + [lines[2][:20]]) + "\n", encoding="utf-8")
        out = tmp_path / "rl.records"
        code, _, err = run_cli(["build-rl", "--in", str(truncated), "-o", str(out)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "truncated.records:3: malformed JSON" in err
        (entry,) = read_lines(tmp_path / "rl.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert "truncated.records:3" in entry["message"]

    def test_bad_band_is_usage_error(self, demand_file, tmp_path, capsys):
        code, _, err = run_cli(
            ["build-rl", "--in", str(demand_file), "--band", "wide", "-o", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2 and "usage error" in err


class TestReward:
    def test_scores_groups(self, tmp_path, capsys):
        group_file = tmp_path / "groups.records"
        write_records(
            group_file,
            [
                {"gamma": 0.5, "correct": [True, False, False, True]},
                {"gamma": 1.0, "correct": [True, True]},
            ],
        )
        code, stdout, _ = run_cli(["reward", "--group", str(group_file)], capsys)
        assert code == 0
        first, second = [json.loads(line) for line in stdout.splitlines()]
        assert first["x"] == 2 and first["size"] == 4
        assert first["rewards"] == [0.5, 0.0, 0.0, 0.5]
        root3_over_2 = sig12(math.sqrt(3) / 2)
        assert first["advantages"] == [root3_over_2, -root3_over_2, -root3_over_2, root3_over_2]
        assert first["scaled_advantages"] == [
            sig12(0.5 * math.sqrt(3) / 2),
            -sig12(0.5 * math.sqrt(3) / 2),
            -sig12(0.5 * math.sqrt(3) / 2),
            sig12(0.5 * math.sqrt(3) / 2),
        ]
        # all-correct group is degenerate: zero advantages everywhere
        assert second == {
            "group": 1, "gamma": 1.0, "x": 2, "size": 2,
            "rewards": [1.0, 1.0], "advantages": [0.0, 0.0],
            "scaled_advantages": [0.0, 0.0],
        }

    def test_missing_keys_is_usage_error(self, tmp_path, capsys):
        group_file = tmp_path / "groups.records"
        write_records(group_file, [{"correct": [True]}])
        code, _, err = run_cli(["reward", "--group", str(group_file)], capsys)
        assert code == 2 and "usage error" in err

    def test_run_error_lands_in_report(self, tmp_path, capsys):
        group_file = tmp_path / "groups.records"
        write_records(group_file, [{"gamma": 0.0, "correct": [True, False]}])
        report = tmp_path / "reward.report"
        code, _, err = run_cli(
            ["reward", "--group", str(group_file), "--report", str(report)], capsys
        )
        assert code == 1 and "error" in err
        (entry,) = read_lines(report)
        assert entry["kind"] == "error" and entry["error"] == "RangeError"


class TestGrpoEval:
    def test_identity_objective(self, tmp_path, capsys):
        logprob_file = tmp_path / "lp.records"
        rows = [
            {
                "current": [[-0.5], [-1.0]],
                "old": [[-0.5], [-1.0]],
                "ref": [[-0.5], [-1.0]],
                "scaled_advantages": [0.9, -0.3],
            }
        ]
        write_records(logprob_file, rows)
        code, stdout, _ = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "0.0"],
            capsys,
        )
        assert code == 0
        out = json.loads(stdout)
        assert out == {"objective": sig12((0.9 - 0.3) / 2), "groups": 1}

    def test_missing_advantages_is_usage_error(self, tmp_path, capsys):
        logprob_file = tmp_path / "lp.records"
        write_records(logprob_file, [{"current": [[0.0]], "old": [[0.0]], "ref": [[0.0]]}])
        code, _, err = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "0.0"],
            capsys,
        )
        assert code == 2 and "usage error" in err


    def test_kl_overflow_is_run_error(self, tmp_path, capsys):
        logprob_file = tmp_path / "lp.records"
        write_records(
            logprob_file,
            [{"current": [[-800.0]], "old": [[-800.0]], "ref": [[0.0]], "scaled_advantages": [1.0]}],
        )
        code, stdout, err = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "0.04"],
            capsys,
        )
        assert code == 1 and stdout == "" and "Traceback" not in err
        assert "KL estimate overflowed" in err


class TestTopLevel:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["conjure"]) == 2
        capsys.readouterr()

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_records_helpers_round_trip(self, tmp_path):
        path = tmp_path / "x.records"
        write_records(path, [{"k": 1}])
        assert list(read_records(path)) == [{"k": 1}]
