"""Subcommand behavior: outputs, reports, exit codes, and stdout shapes."""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import pytest

from toc.cli import main, sig12
from toc.records import read_records, write_records

# An integer literal too large for a float.
HUGE = 10**400


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

    def test_shot_without_embeddings_is_run_error(self, tmp_path, capsys):
        shots = tmp_path / "shots.records"
        write_records(shots, [{"video_id": "s", "boundaries_s": [0.0, 1.0]}])
        out = tmp_path / "clips.records"
        code, _, err = run_cli(["segment", "--shots", str(shots), "-o", str(out)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "shots.records:1: invalid record: missing key 'embeddings'" in err
        (entry,) = read_lines(tmp_path / "clips.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert not out.exists()

    def test_repeated_video_is_run_error(self, tmp_path, capsys):
        shots = tmp_path / "shots.records"
        shot = {"video_id": "s", "boundaries_s": [0.0, 1.0, 2.0], "embeddings": [[1.0], [-1.0]]}
        write_records(shots, [shot, {**shot, "video_id": "t"}, shot])
        out = tmp_path / "clips.records"
        code, _, err = run_cli(["segment", "--shots", str(shots), "-o", str(out)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "shots.records:3: video_id 's' duplicates line 1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            {"embeddings": [[1.0, None], [0.0, 1.0]]},
            {"embeddings": [[[1.0], [0.0]], [[0.0], [1.0]]]},
            {"embeddings": [[1.0, [0.0]], [0.0, 1.0]]},
            {"embeddings": [[1.0, 0.0], [0.0, 1.0, 0.0]]},
            {"embeddings": [[HUGE, 0.0], [0.0, 1.0]]},
            {"embeddings": [[2**64, 0.0], [0.0, 1.0]]},
            {"boundaries_s": [0.0, HUGE, HUGE + 1]},
            {"boundaries_s": [0.0, 1.0], "embeddings": [[True, False]]},
            {"embeddings": [["0.5", 0.0], [0.0, 1.0]]},
            {"boundaries_s": [0.0, "1.5", 2]},
            {"boundaries_s": [0.0, True, 2]},
        ],
        ids=["null", "nested", "mixed_depth", "ragged", "huge_embedding", "beyond_64_bits",
             "huge_boundary", "all_boolean", "string", "string_boundary", "boolean_boundary"],
    )
    def test_malformed_shot_is_run_error(self, tmp_path, capsys, edit):
        valid = {"video_id": "s", "boundaries_s": [0.0, 1.0, 2.0],
                 "embeddings": [[1.0, 0.0], [0.0, 1.0]]}
        shots = tmp_path / "shots.records"
        write_records(shots, [valid, {**valid, "video_id": "t", **edit}])
        out = tmp_path / "clips.records"
        code, _, err = run_cli(["segment", "--shots", str(shots), "-o", str(out)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "shots.records:2: invalid record: " in err
        (entry,) = read_lines(tmp_path / "clips.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "embeddings,message",
        [
            ([[math.nan, 0.0], [1.0, 0.0]], "embeddings must be finite"),
            ([[1e308, 1e308], [1.0, 0.0]], "shot 0 embedding has no direction (norm inf)"),
            ([[1.0, 0.0], [0.0, 0.0]], "shot 1 embedding has no direction (norm 0.0)"),
        ],
        ids=["nan", "overflow", "zero"],
    )
    def test_shot_without_direction_is_run_error(self, tmp_path, capsys, embeddings, message):
        shots = tmp_path / "shots.records"
        write_records(
            shots, [{"video_id": "s", "boundaries_s": [0.0, 1.0, 2.0], "embeddings": embeddings}]
        )
        out = tmp_path / "clips.records"
        code, _, err = run_cli(["segment", "--shots", str(shots), "-o", str(out)], capsys)
        assert code == 1 and "Traceback" not in err and "RuntimeWarning" not in err
        assert f"shots.records:1: invalid record: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["2", "0", "-0.5", "nan"])
    def test_tau_outside_unit_interval_is_usage_error(self, corpus, tmp_path, capsys, tau):
        out = tmp_path / "clips.records"
        code, _, err = run_cli(
            ["segment", "--shots", corpus.manifest["paths"]["shots"], "--tau", tau, "-o", str(out)],
            capsys,
        )
        assert code == 2 and err.startswith("usage error: --tau must be in (0, 1]")
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "which,edit,message",
        [
            ("clips", lambda rec: {**rec, "end_s": rec["start_s"] - 1.0},
             "clips.records:1: invalid record: clip span must be non-empty"),
            ("qa", lambda rec: {k: v for k, v in rec.items() if k != "video_id"},
             "qa.records:1: invalid record: missing key 'video_id'"),
        ],
        ids=["clip_ends_before_start", "qa_without_video_id"],
    )
    def test_invalid_record_is_run_error(self, corpus, tmp_path, capsys, which, edit, message):
        paths = dict(corpus.manifest["paths"])
        rows = list(read_records(paths[which]))
        paths[which] = str(tmp_path / f"{which}.records")
        write_records(paths[which], [edit(rows[0])] + rows[1:])
        out = tmp_path / "sft.records"
        code, _, err = run_cli(
            [
                "build-sft", "--videos", paths["clips"], "--qa", paths["qa"],
                "--config", paths["config"], "-o", str(out),
            ],
            capsys,
        )
        assert code == 1 and "Traceback" not in err
        assert message in err
        (entry,) = read_lines(tmp_path / "sft.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"

    def test_edited_sample_is_invalidated(self, corpus, tmp_path, capsys):
        paths = corpus.manifest["paths"]
        qa = tmp_path / "qa.records"
        rows = list(read_records(paths["qa"]))
        write_records(qa, rows)
        out = tmp_path / "sft.records"
        args = [
            "build-sft", "--videos", paths["clips"], "--qa", str(qa),
            "--config", paths["config"], "-o", str(out),
        ]
        assert run_cli(args, capsys)[0] == 0
        first = rows[0]
        assert first["qa_type"] == "multiple_choice"
        new_answer = next(label for label in "ABCD" if label != first["answer"])
        write_records(qa, [{**first, "answer": new_answer}] + rows[1:])
        assert run_cli(args, capsys)[0] == 0
        report = read_lines(tmp_path / "sft.records.report")
        stage = {e["stage"]: e["count"] for e in report if e["kind"] == "stage"}
        assert stage["invalidated"] == 1
        sample_id = f"{first['video_id']}#{first.get('qa_index', 0)}"
        # the mock table has no replies for the edited prompts, so the sample
        # is rejected; what matters is that the stale answer is gone
        assert sample_id not in [rec["id"] for rec in read_lines(out)]
        assert sample_id in [rec["id"] for rec in read_lines(tmp_path / "sft.records.rejected")]


    def test_tagged_rationale_rejects_only_its_sample(self, corpus, tmp_path, capsys):
        paths = corpus.manifest["paths"]
        rows = [
            {**row, "reply": row["reply"] + " <answer>A</answer>"}
            if row["note"] == "v01 rationale" else row
            for row in read_records(paths["mock_table"])
        ]
        write_records(tmp_path / "mock_table.records", rows)
        # the copied config's relative mock_table_path now names the edited table
        shutil.copy(paths["config"], tmp_path / "config.json")
        out = tmp_path / "sft.records"
        args = [
            "build-sft", "--videos", paths["clips"], "--qa", paths["qa"],
            "--config", str(tmp_path / "config.json"), "-o", str(out),
        ]
        for _ in range(2):  # cold, then resumed from the journal
            code, _, err = run_cli(args, capsys)
            assert code == 0 and "Traceback" not in err
            rejected = read_lines(tmp_path / "sft.records.rejected")
            assert {"id": "v01#0", "reason": "reserved_tag"} in [
                {"id": r["id"], "reason": r["reason"]} for r in rejected
            ]
            assert len(read_lines(out)) == corpus.manifest["expected_emitted"] - 1
            assert len(rejected) == len(corpus.manifest["expected_rejections"]) + 1


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

    def test_multiple_choice_without_options_is_run_error(self, corpus, tmp_path, capsys):
        paths = corpus.manifest["paths"]
        qa = tmp_path / "qa.records"
        rows = list(read_records(paths["qa"]))
        write_records(qa, rows[:1] + [{**rows[1], "options": []}] + rows[2:])
        out = tmp_path / "demand.records"
        code, _, err = run_cli(
            ["estimate-demand", "--qa", str(qa), "--config", paths["config"], "-o", str(out)],
            capsys,
        )
        assert code == 1 and "Traceback" not in err
        assert "qa.records:2: invalid record: multiple_choice requires" in err
        (entry,) = read_lines(tmp_path / "demand.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"


    def test_lone_surrogate_is_run_error(self, corpus, tmp_path, capsys):
        paths = corpus.manifest["paths"]
        lines = Path(paths["qa"]).read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace('"question": "', '"question": "\\ud800', 1)
        qa = tmp_path / "qa.records"
        qa.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "demand.records"
        code, _, err = run_cli(
            ["estimate-demand", "--qa", str(qa), "--config", paths["config"], "-o", str(out)],
            capsys,
        )
        assert code == 1 and "Traceback" not in err
        assert "qa.records:2: a string holds a lone surrogate escape" in err
        (entry,) = read_lines(tmp_path / "demand.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert not out.exists()


    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda rows: [rows[0], {"reply": "x"}] + rows[2:],
             "mock_table.records:2: invalid record: missing key 'digest'"),
            (lambda rows: [rows[0], {**rows[1], "reply": ["x"]}] + rows[2:],
             "mock_table.records:2: invalid record: reply must be a string, got ['x']"),
            (lambda rows: rows + [{**rows[1], "reply": rows[1]["reply"] + "!"}],
             "conflicting reply for digest"),
        ],
        ids=["missing_digest", "reply_not_a_string", "conflicting_replies"],
    )
    def test_malformed_mock_table_is_run_error(self, corpus, tmp_path, capsys, edit, message):
        paths = corpus.manifest["paths"]
        config = json.loads(Path(paths["config"]).read_text(encoding="utf-8"))
        rows = list(read_records(paths["mock_table"]))
        write_records(tmp_path / config["mock_table_path"], edit(rows))
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "demand.records"
        code, _, err = run_cli(
            ["estimate-demand", "--qa", paths["qa"], "--config", str(tmp_path / "config.json"),
             "-o", str(out)],
            capsys,
        )
        assert code == 1 and "Traceback" not in err
        assert message in err
        if "conflicting" in message:
            assert f"mock_table.records:{len(rows) + 1}: " in err and "given on line 2" in err
        (entry,) = read_lines(tmp_path / "demand.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert not out.exists()


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

    def test_record_with_only_id_is_run_error(self, tmp_path, capsys):
        rl_in = tmp_path / "demand.records"
        write_records(rl_in, [{"id": "v#0"}])
        code, _, err = run_cli(["build-rl", "--in", str(rl_in), "-o", str(tmp_path / "o")], capsys)
        assert code == 1 and "Traceback" not in err
        assert "demand.records:1: invalid record: missing key 'video_id'" in err

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"reasoning_demand": math.nan}, "reasoning_demand must be finite, got nan"),
            ({"difficulty": 0.25}, "difficulty 0.25 disagree with alpha 1 of m_trials 2"),
            ({"alpha": 9, "m_trials": 8}, "alpha must be in [0, 8], got 9"),
            ({"alpha": 0, "m_trials": 0}, "m_trials must be finite and >= 1, got 0"),
            ({"alpha": 1.0}, "alpha must be an integer, got 1.0"),
            ({"m_trials": True}, "m_trials must be an integer, got True"),
            ({"question": 5}, "question must be a string, got 5"),
            ({"answer": ["A"]}, "answer must be a string, got ['A']"),
            ({"options": "abc"}, "options must be a list of strings, got 'abc'"),
            ({"options": ["a", 2]}, "options must be a list of strings, got 2 at index 1"),
            ({"alpha": -1}, "alpha must be finite and >= 0, got -1"),
            ({"id": 5}, "id must be a string, got 5"),
            ({"video_id": ["v"]}, "video_id must be a string, got ['v']"),
            ({"difficulty": "0.5"}, "difficulty must be a number, got '0.5'"),
        ],
        ids=["nan_demand", "wrong_difficulty", "alpha_above_m", "zero_trials", "float_alpha",
             "bool_trials", "number_question", "list_answer", "string_options", "number_option",
             "negative_alpha", "number_id", "list_video_id", "string_difficulty"],
    )
    def test_inconsistent_demand_is_run_error(self, tmp_path, capsys, edit, message):
        valid = {"id": "v#0", "video_id": "v", "question": "q", "options": ["a", "b"],
                 "answer": "A", "alpha": 1, "m_trials": 2,
                 "reasoning_demand": math.exp(-0.5), "difficulty": 0.5}
        rl_in = tmp_path / "demand.records"
        write_records(rl_in, [valid, {**valid, "id": "w#0", **edit}])
        out = tmp_path / "rl.records"
        code, _, err = run_cli(
            ["build-rl", "--in", str(rl_in), "--target", "1", "-o", str(out)], capsys
        )
        assert code == 1 and "Traceback" not in err
        assert "demand.records:2: invalid record: " in err and message in err
        (entry,) = read_lines(tmp_path / "rl.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert not out.exists()

    def test_bad_band_is_usage_error(self, demand_file, tmp_path, capsys):
        code, _, err = run_cli(
            ["build-rl", "--in", str(demand_file), "--band", "wide", "-o", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2 and "usage error" in err


    @pytest.mark.parametrize("target", ["0", "-3"])
    def test_target_below_one_is_usage_error(self, demand_file, tmp_path, capsys, target):
        code, _, err = run_cli(
            ["build-rl", "--in", str(demand_file), "--target", target, "-o", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2 and err.startswith("usage error: --target must be >= 1")

    @pytest.mark.parametrize("band", ["nan:0.5", "0.2:inf", "0.2:-inf"])
    def test_non_finite_band_is_usage_error(self, demand_file, tmp_path, capsys, band):
        code, _, err = run_cli(
            ["build-rl", "--in", str(demand_file), "--band", band, "-o", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2 and err.startswith("usage error: band bounds must be finite")

    @pytest.mark.parametrize(
        "escape,code,question",
        [("\\ud800", 1, None), ("\\uDFFF", 1, None), ("\\ud83d\\ude00", 0, "q\U0001F600")],
        ids=["lone_high", "lone_low", "paired"],
    )
    def test_surrogate_escapes(self, tmp_path, capsys, escape, code, question):
        rl_in = tmp_path / "demand.records"
        rl_in.write_text(
            '{"id": "v#0", "video_id": "v", "question": "q' + escape + '", "options": ["a", "b"], '
            '"answer": "A", "alpha": 1, "m_trials": 2, '
            '"reasoning_demand": 0.6065306597126334, "difficulty": 0.5}\n',
            encoding="utf-8",
        )
        out = tmp_path / "rl.records"
        got, _, err = run_cli(
            ["build-rl", "--in", str(rl_in), "--target", "1", "-o", str(out)], capsys
        )
        assert got == code and "Traceback" not in err
        if question is None:
            assert "demand.records:1: a string holds a lone surrogate escape" in err
            assert not out.exists()
        else:
            (row,) = read_lines(out)
            assert row["question"] == question
            assert question in out.read_text(encoding="utf-8")


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

    def test_missing_keys_is_run_error(self, tmp_path, capsys):
        group_file = tmp_path / "groups.records"
        write_records(group_file, [{"gamma": 0.5, "correct": [True, False]}, {"correct": [True]}])
        code, _, err = run_cli(["reward", "--group", str(group_file)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "groups.records:2: invalid record: missing key 'gamma'" in err

    def test_run_error_lands_in_report(self, tmp_path, capsys):
        group_file = tmp_path / "groups.records"
        write_records(group_file, [{"gamma": 0.0, "correct": [True, False]}])
        report = tmp_path / "reward.report"
        code, _, err = run_cli(
            ["reward", "--group", str(group_file), "--report", str(report)], capsys
        )
        assert code == 1 and "error" in err
        (entry,) = read_lines(report)
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert "groups.records:1: invalid record: gamma must be" in entry["message"]

    def test_invalid_gamma_is_run_error(self, tmp_path, capsys):
        group_file = tmp_path / "groups.records"
        write_records(group_file, [{"gamma": "half", "correct": [True, False]}])
        code, _, err = run_cli(["reward", "--group", str(group_file)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "groups.records:1: invalid record: gamma must be a number, got 'half'" in err


    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"correct": "no"}, "correct must be a list of booleans, got 'no'"),
            ({"correct": [1, "false", 0]}, "correct must be a list of booleans, got 1 at index 0"),
            ({"gamma": HUGE}, "too large"),
            ({"gamma": True}, "gamma must be a number, got True"),
            ({"gamma": "0.5"}, "gamma must be a number, got '0.5'"),
            ({"gamma": 0}, "gamma must be in (0, 1], got 0.0"),
            ({"gamma": 2}, "gamma must be in (0, 1], got 2.0"),
            ({"correct": [True]}, "need at least 2 rewards, got 1"),
        ],
        ids=["string_flags", "non_boolean_flags", "huge_gamma", "boolean_gamma", "string_gamma",
             "zero_gamma", "gamma_above_one", "one_response"],
    )
    def test_malformed_group_is_run_error(self, tmp_path, capsys, edit, message):
        group_file = tmp_path / "groups.records"
        valid = {"gamma": 0.5, "correct": [True, False]}
        write_records(group_file, [valid, {**valid, **edit}])
        code, stdout, err = run_cli(["reward", "--group", str(group_file)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "groups.records:2: invalid record: " in err and message in err
        assert len(stdout.splitlines()) == 1

    def test_non_utf8_line_is_run_error(self, tmp_path, capsys):
        group_file = tmp_path / "groups.records"
        group_file.write_bytes(b'{"gamma": 0.5, "correct": [true, false]}\n\xff\xfe\n')
        code, _, err = run_cli(["reward", "--group", str(group_file)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "groups.records:2: not valid UTF-8" in err


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

    def test_missing_advantages_is_run_error(self, tmp_path, capsys):
        logprob_file = tmp_path / "lp.records"
        write_records(logprob_file, [{"current": [[0.0]], "old": [[0.0]], "ref": [[0.0]]}])
        code, _, err = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "0.0"],
            capsys,
        )
        assert code == 1 and "Traceback" not in err
        assert "lp.records:1: invalid record: missing key 'scaled_advantages'" in err

    @pytest.mark.parametrize(
        "advantages,message",
        [
            (["0.5"], "scaled_advantages must be a list of numbers, got '0.5' at index 0"),
            ([True], "scaled_advantages must be a list of numbers, got True at index 0"),
        ],
        ids=["string", "boolean"],
    )
    def test_non_number_advantage_is_run_error(self, tmp_path, capsys, advantages, message):
        logprob_file = tmp_path / "lp.records"
        write_records(
            logprob_file,
            [{"current": [[0.0]], "old": [[0.0]], "ref": [[0.0]], "scaled_advantages": advantages}],
        )
        code, stdout, err = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "0.0"],
            capsys,
        )
        assert code == 1 and stdout == "" and "Traceback" not in err
        assert f"lp.records:1: invalid record: {message}" in err


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

    def test_objective_overflow_is_run_error(self, tmp_path, capsys):
        logprob_file = tmp_path / "lp.records"
        write_records(
            logprob_file,
            [{"current": [[-1.0, -1.0]], "old": [[-1.0, -1.0]], "ref": [[600.0, 600.0]],
              "scaled_advantages": [1.0]}],
        )
        code, stdout, err = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "1e300"],
            capsys,
        )
        assert code == 1 and stdout == "" and "Traceback" not in err
        assert "not finite" in err

    def test_non_numeric_advantage_is_run_error(self, tmp_path, capsys):
        logprob_file = tmp_path / "lp.records"
        write_records(
            logprob_file,
            [{"current": [[0.0]], "old": [[0.0]], "ref": [[0.0]], "scaled_advantages": [[1.0]]}],
        )
        code, _, err = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "0.0"],
            capsys,
        )
        assert code == 1 and "Traceback" not in err
        assert "lp.records:1: invalid record" in err


    @pytest.mark.parametrize(
        "current",
        [
            [[-0.5, None]],
            [[[-0.5], [-1.0]]],
            [[-0.5, [-1.0]]],
            [[-0.5]],
            [[HUGE, -1.0]],
            [[True, False]],
            [["-0.5", -1.0]],
        ],
        ids=["null", "nested", "mixed_depth", "ragged", "huge", "all_boolean", "string"],
    )
    def test_malformed_log_probs_is_run_error(self, tmp_path, capsys, current):
        logprob_file = tmp_path / "lp.records"
        valid = {"current": [[-0.5, -1.0]], "old": [[-0.5, -1.0]], "ref": [[-0.4, -0.9]],
                 "scaled_advantages": [0.5]}
        write_records(logprob_file, [valid, {**valid, "current": current}])
        code, stdout, err = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "0.0"],
            capsys,
        )
        assert code == 1 and stdout == "" and "Traceback" not in err
        assert "lp.records:2: invalid record: " in err


    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--epsilon", "nan", "--beta", "0"], "--epsilon must be finite and > 0, got nan"),
            (["--epsilon", "inf", "--beta", "0"], "--epsilon must be finite and > 0, got inf"),
            (["--epsilon", "0", "--beta", "0"], "--epsilon must be finite and > 0, got 0.0"),
            (["--epsilon", "0.2", "--beta", "-1"], "--beta must be finite and >= 0, got -1.0"),
            (["--epsilon", "0.2", "--beta", "nan"], "--beta must be finite and >= 0, got nan"),
            (["--epsilon", "0.2", "--beta", "inf"], "--beta must be finite and >= 0, got inf"),
        ],
        ids=["nan_epsilon", "infinite_epsilon", "zero_epsilon", "negative_beta", "nan_beta",
             "infinite_beta"],
    )
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        logprob_file = tmp_path / "lp.records"
        write_records(
            logprob_file,
            [{"current": [[-0.1]], "old": [[-1.0]], "ref": [[-0.1]], "scaled_advantages": [1.0]}],
        )
        code, stdout, err = run_cli(["grpo-eval", "--logprobs", str(logprob_file), *flags], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith(f"usage error: {message}")


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
