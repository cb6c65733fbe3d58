"""Subcommand behavior: outputs, reports, exit codes, and stdout shapes."""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import pytest

from toc.cli import main, sig12
from toc.gateway import MockBackend
from toc.records import read_records, write_records

# An integer literal too large for a float.
HUGE = 10**400

# The journal of a cold build-sft run on the 20-sample seed-7 corpus.
JOURNAL_20 = Path(__file__).parent / "golden" / "build_sft_20_five_stages.journal"


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
        assert code == 1 and err == f"error: {tmp_path / 'nope'}: No such file or directory\n"

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
        out.write_bytes(b"an earlier run's clips\n")
        code, _, err = run_cli(["segment", "--shots", str(shots), "-o", str(out)], capsys)
        assert code == 1 and "Traceback" not in err
        assert "shots.records:3: video_id 's' duplicates line 1" in err
        # the clips of lines 1 and 2 were streamed to the staged file before line 3 failed
        assert out.read_bytes() == b"an earlier run's clips\n"
        assert not (tmp_path / "clips.records.tmp").exists()

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

    @pytest.mark.parametrize(
        "boundaries,norm",
        [([0.0, 1e308, 1.7e308], "inf"), ([0.0, 1e-170, 2e-170], "0.0"),
         ([0.0, 5e-324, 1e-323], "0.0")],
        ids=["overflow", "underflow", "subnormal"],
    )
    def test_pooled_clip_without_direction_is_run_error(self, tmp_path, capsys, boundaries, norm):
        shots = tmp_path / "shots.records"
        write_records(
            shots, [{"video_id": "s", "boundaries_s": boundaries, "embeddings": [[1, 0], [1, 0]]}]
        )
        out = tmp_path / "clips.records"
        code, _, err = run_cli(["segment", "--shots", str(shots), "-o", str(out)], capsys)
        assert code == 1
        assert err == (
            f"error: {shots}:1: invalid record: pooled clip embedding has no direction (norm {norm})\n"
        )
        (entry,) = read_lines(tmp_path / "clips.records.report")
        assert entry["error"] == "RecordError"
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


    def test_more_retries_than_two_powers_a_float_holds(self, corpus, tmp_path, capsys):
        # the 1100th attempt's zero delay is 0.0 * 2**1098, and 2**1024 overflows a float
        paths = corpus.manifest["paths"]
        table = tmp_path / "mock_table.records"
        rows = read_records(paths["mock_table"])
        write_records(table, [row for row in rows if row["note"] != "v03 clip 0 caption"])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mock_table_path": str(table), "retry_base_delay_s": 0.0,
                                      "retry_max_attempts": 1100}), encoding="utf-8")
        out = tmp_path / "sft.records"
        code, _, err = run_cli(["build-sft", "--videos", paths["clips"], "--qa", paths["qa"],
                                "--config", str(config), "-o", str(out)], capsys)
        assert code == 0 and err == ""
        rejected = read_lines(tmp_path / "sft.records.rejected")
        assert [r["id"] for r in rejected if r["reason"] == "caption_failed"] == ["v03#0"]

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


    @pytest.mark.parametrize(
        "second,message",
        [({"index": 2, "start_s": 3.0, "end_s": 5.0}, "clip indices are not contiguous 0..1: [0, 2]"),
         ({"index": 1, "start_s": 2.0, "end_s": 5.0}, "clip 1 starts at 2.0 before clip 0 ends at 3.0")],
        ids=["gap", "overlap"],
    )
    def test_broken_clip_run_names_line(self, corpus, tmp_path, capsys, second, message):
        paths = corpus.manifest["paths"]
        clips = tmp_path / "clips.records"
        write_records(
            clips,
            [{"video_id": "a", "index": 0, "start_s": 0.0, "end_s": 3.0},
             {"video_id": "b", "index": 0, "start_s": 0.0, "end_s": 1.0},
             {"video_id": "a", **second}],
        )
        out = tmp_path / "sft.records"
        code, _, err = run_cli(
            ["build-sft", "--videos", str(clips), "--qa", paths["qa"],
             "--config", paths["config"], "-o", str(out)],
            capsys,
        )
        assert code == 1
        assert err == f"error: {clips}:3: video 'a': {message}\n"
        (entry,) = read_lines(tmp_path / "sft.records.report")
        assert entry["error"] == "RecordError"
        assert not out.exists()


class TestCorruptJournal:
    """A faulty outcome line or a line of an unknown stage stops the resume
    before any model call.  A checkpoint line of a five-stage journal is
    skipped whatever its payload, and its sample starts over.
    """

    def run(self, corpus, out, entries, capsys):
        out.parent.mkdir(exist_ok=True)
        lines = "".join(json.dumps(entry) + "\n" for entry in entries)
        Path(f"{out}.journal").write_text(lines, encoding="utf-8")
        paths = corpus.manifest["paths"]
        return run_cli(
            ["build-sft", "--videos", paths["clips"], "--qa", paths["qa"],
             "--config", paths["config"], "-o", str(out)],
            capsys,
        )

    def resume(self, corpus, tmp_path, capsys, monkeypatch, entries):
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        out = tmp_path / "sft.records"
        code, _, err = self.run(corpus, out, entries, capsys)
        assert code == 1 and "Traceback" not in err
        (entry,) = read_lines(tmp_path / "sft.records.report")
        assert entry["kind"] == "error" and entry["error"] == "RecordError"
        assert not out.exists() and calls == []
        return err

    def starts_over(self, corpus, tmp_path, capsys, monkeypatch, entries, sample_id):
        """Resuming from `entries` makes the calls and writes the bytes that
        resuming from the golden journal without `sample_id`'s lines does."""
        calls = []
        complete = MockBackend.complete
        monkeypatch.setattr(
            MockBackend, "complete", lambda self, request: calls.append(request) or complete(self, request)
        )
        without = [e for e in self.golden() if e["sample_id"] != sample_id]
        runs = []
        for name, journal in (("without", without), ("edited", entries)):
            out = tmp_path / name / "sft.records"
            start = len(calls)
            code, _, err = self.run(corpus, out, journal, capsys)
            assert code == 0 and "Traceback" not in err
            runs.append((calls[start:], out.read_bytes(), Path(f"{out}.rejected").read_bytes()))
        assert runs[0][0] and runs[1] == runs[0]

    @staticmethod
    def golden():
        return [json.loads(line) for line in JOURNAL_20.read_text(encoding="utf-8").splitlines()]

    def cut_v05(self, stage, edit):
        """The golden journal with v05#0 cut after `stage` and that stage's payload edited."""
        entries = self.golden()
        stages = [e["stage"] for e in entries if e["sample_id"] == "v05#0"]
        dropped = stages[stages.index(stage) + 1:]
        entries = [e for e in entries if e["sample_id"] != "v05#0" or e["stage"] not in dropped]
        for entry in entries:
            if (entry["sample_id"], entry["stage"]) == ("v05#0", stage):
                entry["payload"] = edit(entry["payload"])
        return entries

    @pytest.mark.parametrize(
        "sample_id,stage,payload,message",
        [
            ("v00#0", "emitted", {}, ":5: invalid record: missing key 'rationale'"),
            ("v00#0", "emitted", {"rationale": 5}, ":5: invalid record: rationale must be a string, got 5"),
            ("v00#0", "emitted", {"rationale": "Step 1: hi <answer>"},
             ": sample v00#0: rationale still contains a step marker"),
            # the last emitted sample: every other dataset line is streamed before it fails
            ("v16#0", "emitted", {"rationale": "Step 1: hi <answer>"},
             ": sample v16#0: rationale still contains a step marker"),
            ("v17#0", "rejected", {"reason": "x"}, ":87: invalid record: missing key 'detail'"),
        ],
        ids=["rationale_missing", "rationale_number", "rationale_unrenderable",
             "rationale_unrenderable_late", "detail_missing"],
    )
    def test_finished_sample(
        self, corpus, tmp_path, capsys, monkeypatch, sample_id, stage, payload, message
    ):
        entries = self.golden()
        for entry in entries:
            if (entry["sample_id"], entry["stage"]) == (sample_id, stage):
                entry["payload"] = payload
        err = self.resume(corpus, tmp_path, capsys, monkeypatch, entries)
        assert err == f"error: {tmp_path / 'sft.records.journal'}{message}\n"
        assert not (tmp_path / "sft.records.rejected").exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_seven_stage_journal_is_refused(self, corpus, tmp_path, capsys, monkeypatch):
        # v00#0's first lines as a journal of the version before the five
        # stages wrote them: "compiled" followed "selected"
        entries = [e for e in self.golden() if e["sample_id"] == "v00#0"][:2]
        compiled = {**entries[1], "stage": "compiled", "payload": {"chain": [[0, 1, 2]]}}
        err = self.resume(corpus, tmp_path, capsys, monkeypatch, [*entries, compiled])
        journal = tmp_path / "sft.records.journal"
        assert err == f"error: {journal}:3: invalid record: unknown stage 'compiled'\n"

    @pytest.mark.parametrize(
        "stage,payload",
        [
            ("captioned", {}),
            ("selected", {"selected": "01"}),
            ("selected", {}),
            ("cue_captioned", {"cues": []}),
            ("cue_captioned", {}),
        ],
        ids=["captioned_missing", "selected_string", "selected_missing", "cues_empty",
             "cues_missing"],
    )
    def test_cut_sample(self, corpus, tmp_path, capsys, monkeypatch, stage, payload):
        entries = self.cut_v05(stage, lambda _: payload)
        self.starts_over(corpus, tmp_path, capsys, monkeypatch, entries, "v05#0")

    def test_line_without_its_earlier_stages(self, corpus, tmp_path, capsys, monkeypatch):
        # v01#0 keeps only its filtered line, which is skipped
        entries = [e for e in self.golden() if e["sample_id"] != "v01#0" or e["stage"] == "filtered"]
        self.starts_over(corpus, tmp_path, capsys, monkeypatch, entries, "v01#0")

    # v05#0 has 3 clips and selects [0, 2], a chain of 2 compilations
    @pytest.mark.parametrize(
        "stage,edit",
        [
            ("captioned", lambda p: {"captions": p["captions"][:1]}),
            ("selected", lambda p: {"selected": [9]}),
            ("cue_captioned", lambda p: {"cues": p["cues"][:1]}),
        ],
        ids=["captions_cut", "selected_outside", "cues_cut"],
    )
    def test_checkpoint_that_does_not_fit_its_sample(
        self, corpus, tmp_path, capsys, monkeypatch, stage, edit
    ):
        entries = self.cut_v05(stage, edit)
        self.starts_over(corpus, tmp_path, capsys, monkeypatch, entries, "v05#0")


class TestPaths:
    """A path that cannot be read or written is a run error naming it."""

    @pytest.mark.parametrize("command", ["build-sft", "build-rl"])
    def test_input_directory_is_run_error(self, corpus, tmp_path, capsys, command):
        paths = corpus.manifest["paths"]
        out = tmp_path / "out.records"
        if command == "build-sft":
            args = ["build-sft", "--videos", paths["clips"], "--qa", str(tmp_path),
                    "--config", paths["config"], "-o", str(out)]
        else:
            args = ["build-rl", "--in", str(tmp_path), "-o", str(out)]
        code, _, err = run_cli(args, capsys)
        assert code == 1 and err == f"error: {tmp_path}: Is a directory\n"
        (entry,) = read_lines(tmp_path / "out.records.report")
        assert entry == {"kind": "error", "error": "IsADirectoryError",
                         "message": f"{tmp_path}: Is a directory"}

    @pytest.mark.parametrize("command", ["build-sft", "estimate-demand"])
    def test_missing_output_directory_fails_before_any_call(
        self, corpus, tmp_path, capsys, monkeypatch, command
    ):
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        paths = corpus.manifest["paths"]
        videos = ["--videos", paths["clips"]] if command == "build-sft" else []
        out = tmp_path / "nodir" / "out.records"
        args = [command, *videos, "--qa", paths["qa"], "--config", paths["config"], "-o", str(out)]
        code, _, err = run_cli(args, capsys)
        assert code == 1 and err == f"error: {out}: No such file or directory\n"
        assert calls == [] and list(tmp_path.iterdir()) == []
        code, _, _ = run_cli([*args, "--report", str(tmp_path / "report")], capsys)
        assert code == 1 and calls == []
        (entry,) = read_lines(tmp_path / "report")
        assert entry == {"kind": "error", "error": "FileNotFoundError",
                         "message": f"{out}: No such file or directory"}

    def test_report_in_missing_directory_is_run_error(self, tmp_path, capsys):
        report = tmp_path / "nodir" / "report"
        code, stdout, err = run_cli(["tree", "--n", "2", "--select", "0", "--report", str(report)],
                                    capsys)
        assert code == 1 and stdout == ""
        assert err == f"error: {report}: No such file or directory\n"

    def test_unwritable_report_is_run_error(self, tmp_path, capsys):
        report = tmp_path / "report"
        report.mkdir()
        code, stdout, err = run_cli(["tree", "--n", "2", "--select", "0", "--report", str(report)],
                                    capsys)
        assert code == 1 and stdout == ""
        assert err == f"error: {report}: Is a directory\n"

    @pytest.mark.parametrize(
        "command,directory",
        [("build-sft", name) for name in ("out", "out.report", "out.rejected", "out.journal")]
        + [("estimate-demand", name) for name in ("out", "out.report")],
    )
    def test_output_directory_fails_before_any_call(
        self, corpus, tmp_path, capsys, monkeypatch, command, directory
    ):
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        paths = corpus.manifest["paths"]
        videos = ["--videos", paths["clips"]] if command == "build-sft" else []
        (tmp_path / directory).mkdir()
        out = tmp_path / "out"
        args = [command, *videos, "--qa", paths["qa"], "--config", paths["config"], "-o", str(out)]
        code, stdout, err = run_cli(args, capsys)
        assert code == 1 and stdout == ""
        assert err == f"error: {tmp_path / directory}: Is a directory\n"
        assert calls == [] and not out.is_file() and list((tmp_path / directory).iterdir()) == []
        assert not (tmp_path / "out.journal").is_file()

    def test_report_on_the_temporary_file_of_the_dataset(self, demand_file, tmp_path, capsys,
                                                          monkeypatch):
        # the dataset is renamed off rl.tmp before the report is written there
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(["build-rl", "--in", str(demand_file), "--target", "3",
                                "-o", "rl", "--report", "rl.tmp"], capsys)
        assert code == 0 and err == ""
        assert len(read_lines(tmp_path / "rl")) == 3
        assert read_lines(tmp_path / "rl.tmp")[0] == {"kind": "stage", "stage": "input", "count": 20}

    @pytest.mark.parametrize(
        "args,message",
        [
            (["build-rl", "--in", "{demand}", "-o", "rl.records", "--report", "rl.records"],
             "two outputs are one file: rl.records"),
            (["build-rl", "--in", "{demand}", "-o", "rl.records", "--report", "./rl.records"],
             "two outputs are one file: ./rl.records"),
            (["build-sft", "--videos", "{clips}", "--qa", "{qa}", "--config", "{config}",
              "-o", "s.records", "--report", "s.records.journal"],
             "two outputs are one file: s.records.journal"),
            (["estimate-demand", "--qa", "{qa}", "--config", "{config}",
              "-o", "d.records", "--report", "./d.records"],
             "two outputs are one file: ./d.records"),
            # the report is written through rl.tmp, which would replace the dataset
            (["build-rl", "--in", "{demand}", "-o", "rl.tmp", "--report", "rl"],
             "output rl.tmp is the temporary file of another output"),
        ],
        ids=["rl_report_is_out", "rl_report_is_dot_out", "sft_report_is_journal",
             "demand_report_is_dot_out", "rl_out_is_report_tmp"],
    )
    def test_two_outputs_on_one_file_is_usage_error(
        self, corpus, demand_file, tmp_path, capsys, monkeypatch, args, message
    ):
        self.usage_error(corpus, demand_file, tmp_path, capsys, monkeypatch, args, message)

    @staticmethod
    def usage_error(corpus, demand_file, tmp_path, capsys, monkeypatch, args, message):
        """Run args in tmp_path: exit 2 with message, no model call, every file there unchanged."""
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        monkeypatch.chdir(tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        args = [arg.format(**corpus.manifest["paths"], demand=demand_file) for arg in args]
        code, stdout, err = run_cli(args, capsys)
        assert code == 2 and stdout == ""
        assert err == f"usage error: {message}\n"
        assert calls == [] and {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    # Each input below is a file the command would write over, rename away or append to.
    @pytest.mark.parametrize(
        "args,flag,path",
        [
            (["estimate-demand", "--qa", "x", "--config", "{config}", "-o", "x"], "--qa", "x"),
            (["build-sft", "--videos", "{clips}", "--qa", "x", "--config", "{config}", "-o", "x"],
             "--qa", "x"),
            (["build-sft", "--videos", "x.journal", "--qa", "{qa}", "--config", "{config}",
              "-o", "x"], "--videos", "x.journal"),
            (["build-rl", "--in", "d.tmp", "-o", "d"], "--in", "d.tmp"),
            (["reward", "--group", "g", "--report", "./g"], "--group", "g"),
        ],
        ids=["demand_qa_is_out", "sft_qa_is_out", "sft_videos_is_journal", "rl_in_is_out_tmp",
             "reward_group_is_report"],
    )
    def test_output_on_an_input_is_usage_error(
        self, corpus, demand_file, tmp_path, capsys, monkeypatch, args, flag, path
    ):
        paths = corpus.manifest["paths"]
        shutil.copy(paths["qa"], tmp_path / "x")
        shutil.copy(paths["clips"], tmp_path / "x.journal")
        shutil.copy(demand_file, tmp_path / "d.tmp")
        (tmp_path / "g").write_text('{"gamma": 0.5, "correct": [true, false]}\n', encoding="utf-8")
        message = f"input {flag} {path} is a file this command writes"
        self.usage_error(corpus, demand_file, tmp_path, capsys, monkeypatch, args, message)


    @pytest.mark.parametrize(
        "args,flag",
        [
            (["build-sft", "--videos", "{clips}", "--qa", "{qa}", "--config", "{config}",
              "-o", ""], "-o"),
            (["segment", "--shots", "{shots}", "-o", ""], "-o"),
            (["build-rl", "--in", "{demand}", "-o", "rl.records", "--report", ""], "--report"),
        ],
        ids=["build_sft_out", "segment_out", "build_rl_report"],
    )
    def test_empty_output_path_is_usage_error(
        self, corpus, demand_file, tmp_path, capsys, monkeypatch, args, flag
    ):
        message = f"{flag} must name a file, got an empty path"
        self.usage_error(corpus, demand_file, tmp_path, capsys, monkeypatch, args, message)

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["segment", "--shots", "", "-o", "c.records"], "--shots"),
            (["build-sft", "--videos", "", "--qa", "{qa}", "--config", "{config}", "-o", "s"],
             "--videos"),
            (["build-sft", "--videos", "{clips}", "--qa", "", "--config", "{config}", "-o", "s"],
             "--qa"),
            (["estimate-demand", "--qa", "{qa}", "--config", "", "-o", "d.records"], "--config"),
            (["build-rl", "--in", "", "-o", "rl.records"], "--in"),
            (["reward", "--group", ""], "--group"),
            (["grpo-eval", "--logprobs", "", "--epsilon", "0.2", "--beta", "0"], "--logprobs"),
        ],
        ids=["segment_shots", "build_sft_videos", "build_sft_qa", "estimate_demand_config",
             "build_rl_in", "reward_group", "grpo_eval_logprobs"],
    )
    def test_empty_input_path_is_usage_error(
        self, corpus, demand_file, tmp_path, capsys, monkeypatch, args, flag
    ):
        message = f"{flag} must name a file, got an empty path"
        self.usage_error(corpus, demand_file, tmp_path, capsys, monkeypatch, args, message)


@pytest.mark.parametrize("command", ["build-sft", "estimate-demand"])
def test_missing_api_key_stops_the_run(corpus, tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv("TOC_API_KEY", raising=False)
    http = {"kind": "http", "endpoint": "https://example.test/v1/chat", "model": "m"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backends": {"mllm": http, "llm": http}}), encoding="utf-8")
    paths = corpus.manifest["paths"]
    videos = ["--videos", paths["clips"]] if command == "build-sft" else []
    out = tmp_path / "out.records"
    code, _, err = run_cli(
        [command, *videos, "--qa", paths["qa"], "--config", str(config), "-o", str(out)], capsys
    )
    assert code == 1 and err == "error: no API key set (export TOC_API_KEY)\n"
    (entry,) = read_lines(tmp_path / "out.records.report")
    assert entry["kind"] == "error" and entry["error"] == "AuthError"
    # nothing is written or rejected, so a rerun with the key starts clean
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out.records.report"]


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

    def test_skips_are_counted_without_a_line_each(self, corpus, tmp_path, capsys, caplog):
        paths = corpus.manifest["paths"]
        rows = [row for row in read_records(paths["mock_table"]) if row["note"] != "v03 trial 0"]
        write_records(tmp_path / "mock_table.records", rows)
        shutil.copy(paths["config"], tmp_path / "config.json")
        out = tmp_path / "demand.records"
        code, stdout, err = run_cli(
            ["estimate-demand", "--qa", paths["qa"], "--config", str(tmp_path / "config.json"),
             "-o", str(out)],
            capsys,
        )
        assert code == 0 and err == "" and caplog.records == []
        assert stdout == f"annotated 19/20 samples (1 skipped) -> {out}\n"
        report = read_lines(tmp_path / "demand.records.report")
        assert {"kind": "rejection", "reason": "trials_failed", "count": 1} in report

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

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"gamma": ' + "1" * 5000 + "}"],
                             ids=["nested_too_deep", "too_many_digits"])
    def test_line_json_cannot_read_is_run_error(self, tmp_path, capsys, line):
        group_file = tmp_path / "groups.records"
        group_file.write_text(line + "\n", encoding="utf-8")
        code, stdout, err = run_cli(["reward", "--group", str(group_file)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {group_file}:1: malformed JSON: ") and err.count("\n") == 1

    def test_tiny_gamma_keeps_the_closed_form(self, tmp_path, capsys):
        group_file = tmp_path / "groups.records"
        write_records(group_file, [{"gamma": 1e-200, "correct": [True, False]}])
        code, stdout, _ = run_cli(["reward", "--group", str(group_file)], capsys)
        assert code == 0
        root_half = sig12(math.sqrt(0.5))
        assert json.loads(stdout)["advantages"] == [root_half, -root_half]

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
        "record,message",
        [
            ({"current": [[-0.1], [-0.2]], "old": [[-1.0], [-0.5]], "ref": [[-0.1], [-0.2]],
              "scaled_advantages": [1.0]}, "1 advantages for 2 responses"),
            ({"current": [], "old": [], "ref": [], "scaled_advantages": []},
             "group has no responses"),
        ],
        ids=["misaligned", "empty"],
    )
    def test_group_counts_name_line(self, tmp_path, capsys, record, message):
        logprob_file = tmp_path / "lp.records"
        write_records(logprob_file, [record])
        report = tmp_path / "grpo.report"
        code, stdout, err = run_cli(
            ["grpo-eval", "--logprobs", str(logprob_file), "--epsilon", "0.2", "--beta", "0.0",
             "--report", str(report)],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err == f"error: {logprob_file}:1: invalid record: {message}\n"
        (entry,) = read_lines(report)
        assert entry["error"] == "RecordError"

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
    @pytest.mark.parametrize(
        "args,message",
        [
            (["build-sft", "--videos", "{clips}", "--qa", "{qa}", "--config", "{config}",
              "--parallelism", "0"], "--parallelism must be >= 1, got 0"),
            (["estimate-demand", "--qa", "{qa}", "--config", "{config}", "--parallelism", "0"],
             "--parallelism must be >= 1, got 0"),
            (["estimate-demand", "--qa", "{qa}", "--config", "{config}", "--m", "0"],
             "--m must be >= 1, got 0"),
            (["build-rl", "--in", "{demand}", "--band", "0.8:0.2"],
             "--band must satisfy lo < hi, got '0.8:0.2'"),
            (["build-rl", "--in", "{demand}", "--band", "0.5:0.5"],
             "--band must satisfy lo < hi, got '0.5:0.5'"),
            (["tree", "--n", "0", "--select", "0"], "--n must be >= 1, got 0"),
            (["tree", "--n", "4", "--select", "7"], "--select indices must be in [0, 3], got 7"),
        ],
        ids=["build_sft_parallelism", "demand_parallelism", "demand_m", "build_rl_band",
             "build_rl_empty_band", "tree_n", "tree_select"],
    )
    def test_out_of_range_flag_is_usage_error(
        self, corpus, demand_file, tmp_path, capsys, args, message
    ):
        out = tmp_path / "out.records"
        args = [arg.format(**corpus.manifest["paths"], demand=demand_file) for arg in args]
        if args[0] != "tree":
            args += ["-o", str(out)]
        code, stdout, err = run_cli([*args, "--report", str(tmp_path / "report")], capsys)
        assert code == 2 and stdout == ""
        assert err == f"usage error: {message}\n"
        assert not (tmp_path / "report").exists() and not out.exists()

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
