"""Stage operations, per-sample state, rejection routing, and resume."""

from __future__ import annotations

import json
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import (
    CountingBackend,
    CrashingBackend,
    FailingBackend,
    OutageBackend,
    scripted_gateway,
)

from toc.config import apply_overrides, build_gateway, load_config
from toc.cue_tree import backtrack, build_tree, layer_compilations
from toc.errors import (
    AuthError,
    EmptyCaptionError,
    EmptyRationaleError,
    RecordError,
    StepCountMismatchError,
)
from toc.gateway import Gateway, HttpBackend, MockBackend, RetryPolicy, request_digest
from toc.records import Clip, QaPair, QaTask, load_qa_tasks, read_records, write_records
from toc.rl_pipeline import trial_request
from toc.sft_pipeline import (
    JOURNAL_SUFFIX,
    REJECTED_SUFFIX,
    Journal,
    PipelineState,
    caption_clips,
    caption_compilations,
    clip_caption_request,
    clip_descriptions_json,
    compilation_caption_request,
    filter_request,
    linearize_trajectory,
    load_clips,
    process_sample,
    rationale_request,
    run_sft_pipeline,
    sample_digest,
    selection_request,
    sft_record,
    summarize_rationale,
)
from toc.templates import render_train_infer


def make_clips(n: int, video_id: str = "v") -> list[Clip]:
    return [
        Clip(video_id=video_id, index=i, start_s=2.0 * i, end_s=2.0 * (i + 1))
        for i in range(n)
    ]


def make_qa(answer: str = "B") -> QaPair:
    return QaPair(
        question="What opens the door?",
        answer=answer,
        qa_type="multiple_choice",
        options=("a key", "a code", "a push", "nothing"),
    )


def full_script(
    clips,
    qa,
    *,
    selected=(0, 2),
    selection_reply=None,
    captions=None,
    cue_captions=None,
    filter_reply="Yes",
    rationale_reply=None,
    skip_stages=(),
):
    """(request, reply) pairs walking one sample through every stage."""
    captions = captions or [f"clip {c.index}: something happens" for c in clips]
    chain = layer_compilations(backtrack(build_tree(len(clips)), selected))
    cue_captions = cue_captions or [
        f"cue over clips {list(c.clip_indices)}" for c in chain
    ]
    if selection_reply is None:
        selection_reply = json.dumps(sorted(selected))
    if rationale_reply is None:
        rationale_reply = " ".join(
            f"Step {i}: I narrow the search." for i in range(1, len(chain) + 1)
        )
    captioned = [replace(c, caption=cap) for c, cap in zip(clips, captions)]
    pairs = []
    if "caption" not in skip_stages:
        pairs += [(clip_caption_request(c), cap) for c, cap in zip(clips, captions)]
    if "selection" not in skip_stages:
        pairs.append((selection_request(captioned, qa), selection_reply))
    if "cue_caption" not in skip_stages:
        pairs += [
            (compilation_caption_request(clips[0].video_id, comp), cap)
            for comp, cap in zip(chain, cue_captions)
        ]
    if "filter" not in skip_stages:
        pairs.append((filter_request(cue_captions[-1], qa), filter_reply))
    if "rationale" not in skip_stages:
        pairs.append((rationale_request(cue_captions, qa), rationale_reply))
    return pairs


def counting_gateway(pairs):
    backend = CountingBackend(MockBackend({request_digest(r): reply for r, reply in pairs}))
    gateway = Gateway(
        backends={"mllm": backend, "llm": backend},
        retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
        sleep=lambda s: None,
    )
    return gateway, backend


def crashing_gateway(pairs, crash_after):
    backend = CrashingBackend(
        MockBackend({request_digest(r): reply for r, reply in pairs}), crash_after
    )
    gateway = Gateway(
        backends={"mllm": backend, "llm": backend},
        retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
        sleep=lambda s: None,
    )
    return gateway, backend


class TestRequestBuilders:
    def test_clip_descriptions_json_schema(self):
        clips = [replace(c, caption=f"cap{c.index}") for c in make_clips(2)]
        qa = make_qa()
        parsed = json.loads(clip_descriptions_json(clips, qa))
        assert parsed == {
            "num_clips": 2,
            "clips": [
                {"index": 0, "description": "cap0"},
                {"index": 1, "description": "cap1"},
            ],
            "question": qa.formatted_question(),
            "answer": "B",
        }

    def test_linearize_trajectory_is_one_indexed(self):
        assert linearize_trajectory(["wide view", "close view"]) == (
            "Step 1: wide view\nStep 2: close view"
        )

    def test_media_refs(self):
        clips = make_clips(3)
        assert clip_caption_request(clips[2]).media == ("v#clip2",)
        chain = layer_compilations(backtrack(build_tree(3), [0, 1]))
        req = compilation_caption_request("v", chain[0])
        assert req.media == ("v#comp0-1-2",)


# Request digests key mock tables and sample digests key journal lines, so
# a change to either orphans every stored file; these literals pin both.
PINNED_DIGESTS = {
    "clip_caption": "ac0d8ffe199b641c",
    "compilation_caption": "5e287930ed790a3d",
    "selection": "668da53b3888aa06",
    "filter": "674b77ced9aeee29",
    "rationale": "43a063b360b16624",
    "trial": "655c0be5b9d199d6",
    "sample": "e4b2fc9afabb41d69db7eae70de720bf245254678ab2681c202cc46fb0903e8d",
}


def stored_digests() -> dict[str, str]:
    clips = [replace(c, caption=f"cap{c.index}") for c in make_clips(3)]
    qa = make_qa()
    chain = layer_compilations(backtrack(build_tree(3), [0, 1]))
    requests = {
        "clip_caption": clip_caption_request(clips[2]),
        "compilation_caption": compilation_caption_request("v", chain[0]),
        "selection": selection_request(clips, qa),
        "filter": filter_request("a cue", qa),
        "rationale": rationale_request(["wide view", "close view"], qa),
        "trial": trial_request(qa, "v/full", 3, 1.0),
    }
    task = QaTask(video_id="v", qa_index=0, qa=qa, video_ref="v/full")
    digests = {name: request_digest(request) for name, request in requests.items()}
    return {**digests, "sample": sample_digest(task, clips, False)}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_stored_digests_are_pinned(name):
    assert stored_digests()[name] == PINNED_DIGESTS[name]


def emitted(sample_id: str, digest: str = "d1", rationale: str = "r") -> PipelineState:
    return PipelineState(sample_id, "emitted", {"rationale": rationale}, digest)


def journal_line(sample_id: str, stage: str, payload: object, digest: str = "d1") -> str:
    return json.dumps({"sample_id": sample_id, "digest": digest, "stage": stage, "payload": payload})


class TestJournal:
    def test_advance_resume_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        state = emitted("v#0", rationale="café")
        Journal(path).append(state)
        assert Journal(path).resume("v#0", "d1") == state

    def test_missing_sample_starts_fresh(self, tmp_path):
        journal = Journal(tmp_path / "run.journal")
        assert journal.resume("nope", "d1") is None
        assert not journal.invalidated

    def test_one_line_per_transition_in_one_file(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal(path)
        journal.append(emitted("v#0", rationale="x"))
        journal.append(PipelineState("v#1", "rejected", {"reason": "selection_empty", "detail": "why"}, "d1"))
        assert [p.name for p in tmp_path.iterdir()] == ["run.journal"]
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            {"sample_id": "v#0", "digest": "d1", "stage": "emitted", "payload": {"rationale": "x"}},
            {"sample_id": "v#1", "digest": "d1", "stage": "rejected",
             "payload": {"reason": "selection_empty", "detail": "why"}},
        ]
        assert Journal(path).resume("v#1", "d1").payload == {"reason": "selection_empty", "detail": "why"}

    def test_ids_with_path_separators_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        Journal(path).append(emitted("a/b#0"))
        assert Journal(path).resume("a/b#0", "d1").stage == "emitted"

    def test_changed_digest_restarts_and_counts_invalidated(self, tmp_path):
        path = tmp_path / "run.journal"
        Journal(path).append(emitted("v#0", "old", "x"))
        journal = Journal(path)
        assert journal.resume("v#0", "new") is None
        assert journal.invalidated == {"v#0"}
        state = emitted("v#0", "new", "y")
        journal.append(state)
        # the sample's last outcome line wins
        replayed = Journal(path)
        assert replayed.resume("v#0", "new") == state
        assert not replayed.invalidated

    def test_torn_last_line_is_truncated_before_appending(self, tmp_path):
        path = tmp_path / "run.journal"
        state = emitted("v#0")
        Journal(path).append(state)
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"sample_id": "v#1", "digest": "d1", "sta')
        journal = Journal(path)
        assert path.read_bytes() == whole
        assert journal.resume("v#0", "d1") == state
        journal.append(emitted("v#1"))
        assert Journal(path).resume("v#1", "d1").stage == "emitted"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.journal"
        state = emitted("v#0")
        Journal(path).append(state)
        path.write_bytes(b"\n" + path.read_bytes() + b"  \n")
        journal = Journal(path)
        assert journal.resume("v#0", "d1") == state
        journal.append(emitted("v#1"))
        assert Journal(path).resume("v#1", "d1").stage == "emitted"

    def test_non_utf8_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "run.journal"
        Journal(path).append(emitted("v#0"))
        line = b'{"sample_id": "v#1", "digest": "d1", "stage": "emitted", "payload": {"rationale": "\xff"}}\n'
        path.write_bytes(path.read_bytes() + line)
        with pytest.raises(RecordError, match=rf"{path}:2: not valid UTF-8"):
            Journal(path)

    def test_line_nested_too_deep_names_path_and_line(self, tmp_path):
        path = tmp_path / "run.journal"
        Journal(path).append(emitted("v#0"))
        path.write_text(path.read_text() + '{"payload": ' + "[" * 100_000 + "\n")
        with pytest.raises(RecordError, match=rf"^{path}:2: malformed JSON: "):
            Journal(path)

    @pytest.mark.parametrize(
        "stage,payload,message",
        [
            ("emitted", {"record": {}}, "missing key 'rationale'"),
            ("rejected", {"detail": "why"}, "missing key 'reason'"),
        ],
        ids=["emitted_record_only", "rejected_no_reason"],
    )
    def test_payload_that_breaks_its_stage_names_the_line(self, tmp_path, stage, payload, message):
        path = tmp_path / "run.journal"
        Journal(path).append(emitted("v#0"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(journal_line("v#1", stage, payload) + "\n")
        with pytest.raises(RecordError, match=rf"{path}:2: invalid record: {message}"):
            Journal(path)

    # Journals of earlier versions hold a line per checkpoint; whatever its
    # payload, the line is skipped and its sample has no outcome.
    @pytest.mark.parametrize(
        "stage,payload",
        [
            ("captioned", {"captions": "x"}),
            ("selected", {"selected": [-1]}),
            ("cue_captioned", {"cues": "x"}),
            ("selected", {"selected": [0]}),
            ("filtered", {}),
        ],
        ids=["captions_string", "selected_negative", "cues_string", "selected_alone",
             "filtered_alone"],
    )
    def test_checkpoint_line_is_skipped(self, tmp_path, stage, payload):
        path = tmp_path / "run.journal"
        state = emitted("v#0")
        Journal(path).append(state)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(journal_line("v#1", stage, payload) + "\n")
        journal = Journal(path)
        assert journal.resume("v#1", "d1") is None
        assert journal.resume("v#0", "d1") == state

    def test_backend_failure_line_is_skipped(self, tmp_path):
        # an earlier version journalled a rejection for a backend failure too
        path = tmp_path / "run.journal"
        failed = {"reason": "caption_failed", "detail": "backend error (status 503)"}
        path.write_text(journal_line("v#0", "rejected", failed) + "\n", encoding="utf-8")
        assert Journal(path).resume("v#0", "d1") is None

    def test_terminal_line_alone_replays(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal(path)
        journal.append(emitted("v#0"))
        journal.append(PipelineState("v#1", "rejected", {"reason": "x", "detail": "y"}, "d1"))
        replayed = Journal(path)
        assert replayed.resume("v#0", "d1").payload == {"rationale": "r"}
        assert replayed.resume("v#1", "d1").stage == "rejected"

    def test_concurrent_appends_replay_whole(self, tmp_path, fast_thread_switching):
        path = tmp_path / "run.journal"

        def rationale(worker, n):
            return f"worker {worker} sample {n} " * 40

        def walk(journal, worker):
            for n in range(40):
                journal.append(emitted(f"w{worker}#{n}", rationale=rationale(worker, n)))

        journal = Journal(path)
        threads = [threading.Thread(target=walk, args=(journal, w)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        replayed = Journal(path)
        for worker in range(8):
            for n in range(40):
                state = replayed.resume(f"w{worker}#{n}", "d1")
                assert state.payload == {"rationale": rationale(worker, n)}

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"sample_id": "v#0", "digest": "d1", "stage": "captioned"}',
            '{"sample_id": "v#0", "digest": "d1", "stage": "bogus", "payload": {}}',
            '{"sample_id": "v#0", "digest": "d1", "stage": "captioned", "payload": 3}',
            '{"sample_id": "v#0", "digest": "d1", "stage": "captioned", "payload": []}',
            '{"sample_id": 5, "digest": "d1", "stage": "captioned", "payload": {}}',
            # the stages only seven-stage journals hold
            '{"sample_id": "v#0", "digest": "d1", "stage": "compiled", "payload": {"chain": [[0]]}}',
            '{"sample_id": "v#0", "digest": "d1", "stage": "summarized", "payload": {"rationale": "r"}}',
        ],
        ids=["not_json", "no_payload", "unknown_stage", "payload_not_object", "payload_list",
             "number_sample_id", "compiled", "summarized"],
    )
    def test_invalid_complete_line_is_record_error(self, tmp_path, line):
        path = tmp_path / "run.journal"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match="run.journal:1: (malformed JSON|invalid record)"):
            Journal(path)


class TestStageOps:
    def test_caption_clips_fills_in_order(self):
        clips = make_clips(3)
        pairs = [(clip_caption_request(c), f"caption {c.index}") for c in clips]
        out = caption_clips(scripted_gateway(pairs), clips)
        assert [c.caption for c in out] == ["caption 0", "caption 1", "caption 2"]
        assert [c.index for c in out] == [0, 1, 2]

    def test_caption_clips_rejects_blank_reply(self):
        clips = make_clips(1)
        pairs = [(clip_caption_request(clips[0]), "   ")]
        with pytest.raises(EmptyCaptionError):
            caption_clips(scripted_gateway(pairs), clips)

    def select(self, reply, selected=(0, 2), lenient=False):
        """The outcome of a four-clip sample whose selection reply is `reply`;
        the other replies are scripted for a chain ending at `selected`."""
        clips, task = make_clips(4), make_task()
        gateway = scripted_gateway(full_script(clips, task.qa, selected=selected,
                                               selection_reply=reply))
        return process_sample(gateway, task, clips, lenient=lenient)

    def test_select_key_clips(self):
        # emitted only if the cue chain ends at clips 0 and 2, whatever the reply's order
        assert self.select("[2, 0]")[0] == "emitted"

    def test_select_empty(self):
        assert self.select("[]") == (
            "rejected", {"reason": "selection_empty", "detail": "no clips selected"}
        )

    def test_select_out_of_range(self):
        assert self.select("[0, 7]") == (
            "rejected", {"reason": "selection_out_of_range", "detail": "clip index 7 outside [0, 3]"}
        )

    def test_select_strict_parse(self):
        assert self.select("```json\n[1]\n```", selected=(1,))[1]["reason"] == "selection_unparseable"

    def test_select_lenient_parse(self):
        assert self.select("```json\n[1]\n```", selected=(1,), lenient=True)[0] == "emitted"

    def test_caption_compilations(self):
        clips = make_clips(4)
        chain = layer_compilations(backtrack(build_tree(4), [1]))
        pairs = [
            (compilation_caption_request("v", comp), f"cue {pos}")
            for pos, comp in enumerate(chain)
        ]
        out = caption_compilations(scripted_gateway(pairs), chain, clips)
        assert [c.caption for c in out] == [f"cue {pos}" for pos in range(len(chain))]
        assert [c.clip_indices for c in out] == [c.clip_indices for c in chain]

    def rationale_gateway(self, cues, qa, reply):
        return scripted_gateway([(rationale_request(cues, qa), reply)])

    def test_summarize_rationale_strips_markers(self):
        qa = make_qa()
        cues = ["wide", "narrow"]
        reply = "Step 1: I scan the video. Step 2: I focus on the door."
        gateway = self.rationale_gateway(cues, qa, reply)
        assert summarize_rationale(gateway, cues, qa) == "I scan the video. I focus on the door."

    def test_summarize_rationale_step_count_mismatch(self):
        qa = make_qa()
        cues = ["wide", "narrow"]
        gateway = self.rationale_gateway(cues, qa, "Step 1: only one step.")
        with pytest.raises(StepCountMismatchError):
            summarize_rationale(gateway, cues, qa)

    def test_summarize_rationale_wants_ascending_markers(self):
        qa = make_qa()
        cues = ["wide", "narrow"]
        gateway = self.rationale_gateway(cues, qa, "Step 2: b. Step 1: a.")
        with pytest.raises(StepCountMismatchError):
            summarize_rationale(gateway, cues, qa)

    def test_summarize_rationale_empty_reply(self):
        qa = make_qa()
        gateway = self.rationale_gateway(["wide"], qa, "   ")
        with pytest.raises(EmptyRationaleError):
            summarize_rationale(gateway, ["wide"], qa)


def make_task(video_id: str = "v", qa: QaPair | None = None) -> QaTask:
    return QaTask(
        video_id=video_id, qa_index=0, qa=qa or make_qa(), video_ref=f"{video_id}/full"
    )


def five_stage_lines(clips, clean_journal: Path) -> list[bytes]:
    """The lines a five-stage journal held for a sample that full_script walks
    with its default selection; its outcome is the one line of clean_journal."""
    (outcome,) = clean_journal.read_bytes().splitlines(keepends=True)
    entry = json.loads(outcome)
    chain = layer_compilations(backtrack(build_tree(len(clips)), [0, 2]))
    checkpoints = [
        ("captioned", {"captions": [f"clip {c.index}: something happens" for c in clips]}),
        ("selected", {"selected": [0, 2]}),
        ("cue_captioned", {"cues": [f"cue over clips {list(c.clip_indices)}" for c in chain]}),
        ("filtered", {}),
    ]
    if entry["stage"] == "rejected":  # rejected by the filter
        checkpoints.pop()
    lines = [(json.dumps({**entry, "stage": stage, "payload": payload}) + "\n").encode()
             for stage, payload in checkpoints]
    return lines + [outcome]


def run_alone(pairs, task, clips, out: Path) -> tuple[dict, int]:
    """build-sft's report on the one task, and the model calls it made."""
    gateway, backend = counting_gateway(pairs)
    return run_sft_pipeline(gateway, [task], {task.video_id: clips}, out), backend.calls


def written(out: Path) -> tuple[bytes, bytes]:
    """The dataset and rejection sidecar of a build-sft run."""
    return out.read_bytes(), Path(f"{out}{REJECTED_SUFFIX}").read_bytes()


class TestProcessSample:
    def run_one(self, pairs, clips, task=None):
        """The sample's outcome, and the counting backend that served its calls."""
        gateway, backend = counting_gateway(pairs)
        return process_sample(gateway, task or make_task(), clips, lenient=False), backend

    def test_happy_path_emits(self):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa)
        (stage, payload), backend = self.run_one(pairs, clips, task)
        assert stage == "emitted"
        # 4 captions + selection + 2 cue captions + filter + rationale
        assert backend.calls == 9
        assert payload == {"rationale": "I narrow the search. I narrow the search."}
        record = sft_record(task, payload["rationale"])
        assert record["id"] == "v#0"
        assert record["rationale"] == "I narrow the search. I narrow the search."
        assert record["target"] == (
            "<locate>I narrow the search. I narrow the search.</locate>\n<answer>B</answer>"
        )
        assert record["prompt"] == render_train_infer(
            task.qa.formatted_question(), "multiple_choice"
        )

    def test_missing_clips(self):
        outcome, backend = self.run_one([], None)
        assert outcome == ("rejected", {"reason": "missing_clips", "detail": "no clips for video v"})
        assert backend.calls == 0

    @pytest.mark.parametrize(
        "tweak,reason",
        [
            ({"captions": ["  ", "b", "c", "d"]}, "empty_caption"),
            ({"skip_stages": ("caption",)}, "caption_failed"),
            ({"selection_reply": "clips 1 and 3"}, "selection_unparseable"),
            ({"selection_reply": "[0, 9]"}, "selection_out_of_range"),
            ({"selection_reply": "[]"}, "selection_empty"),
            ({"skip_stages": ("selection",)}, "selection_failed"),
            ({"skip_stages": ("cue_caption",)}, "cue_caption_failed"),
            ({"filter_reply": "perhaps"}, "filter_unparseable"),
            ({"skip_stages": ("filter",)}, "filter_failed"),
            ({"filter_reply": "No"}, "insufficient_cues"),
            ({"rationale_reply": "Step 1: a. Step 2: b. Step 3: c."}, "step_count_mismatch"),
            ({"rationale_reply": "   "}, "empty_rationale"),
            ({"skip_stages": ("rationale",)}, "rationale_failed"),
            ({"rationale_reply": "Step 1: Step 2:"}, "empty_rationale"),
            ({"rationale_reply": "Step 1: a. Step 2: b <locate>"}, "reserved_tag"),
            ({"rationale_reply": "Step 1: a. Step 2: b </locate>"}, "reserved_tag"),
            ({"rationale_reply": "Step 1: a. Step 2: b <answer>A"}, "reserved_tag"),
            ({"rationale_reply": "Step 1: a. Step 2: b </answer>"}, "reserved_tag"),
            # the tag only forms once the step marker inside it is stripped
            ({"rationale_reply": "Step 1: a <ansStep 2: wer>A"}, "reserved_tag"),
        ],
    )
    def test_rejection_reasons(self, tweak, reason):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, **tweak)
        (stage, payload), _ = self.run_one(pairs, clips, task)
        assert stage == "rejected"
        assert payload["reason"] == reason
        assert payload["detail"]

    def test_empty_cue_caption_rejects(self):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, cue_captions=["good cue", " "])
        (stage, payload), _ = self.run_one(pairs, clips, task)
        assert stage == "rejected" and payload["reason"] == "empty_caption"

    # The tests below run the sample through run_sft_pipeline, which alone
    # reads and writes the journal.

    def test_finished_sample_resumes_without_calls(self, tmp_path):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa)
        out = tmp_path / "sft.records"
        report, _ = run_alone(pairs, task, clips, out)
        files, journal = written(out), Path(f"{out}{JOURNAL_SUFFIX}").read_bytes()
        assert report["emitted"] == 1
        assert run_alone(pairs, task, clips, out) == (report, 0)
        assert written(out) == files
        assert Path(f"{out}{JOURNAL_SUFFIX}").read_bytes() == journal

    def test_non_ascii_rationale_is_journalled_as_utf8(self, tmp_path):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, rationale_reply="Step 1: Le café. Step 2: 視頻 ✓.")
        out = tmp_path / "sft.records"
        run_alone(pairs, task, clips, out)
        line = Path(f"{out}{JOURNAL_SUFFIX}").read_text(encoding="utf-8")
        assert json.loads(line)["payload"] == {"rationale": "Le café. 視頻 ✓."}
        assert "Le café. 視頻 ✓." in line and "\\u" not in line
        files = written(out)
        assert run_alone(pairs, task, clips, out)[1] == 0
        assert written(out) == files

    def test_ascii_escaped_line_still_resumes(self, tmp_path):
        # earlier versions wrote journal lines with json.dumps's \uXXXX escapes
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, rationale_reply="Step 1: Le café. Step 2: 視頻 ✓.")
        out = tmp_path / "sft.records"
        run_alone(pairs, task, clips, out)
        files = written(out)
        journal = Path(f"{out}{JOURNAL_SUFFIX}")
        journal.write_text(json.dumps(json.loads(journal.read_text(encoding="utf-8"))) + "\n",
                           encoding="ascii")
        assert "\\u00e9" in journal.read_text(encoding="ascii")
        out.unlink()
        assert run_alone(pairs, task, clips, out)[1] == 0
        assert written(out) == files

    def test_rejection_is_sticky(self, tmp_path):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, filter_reply="No")
        out = tmp_path / "sft.records"
        report, _ = run_alone(pairs, task, clips, out)
        assert report["rejection_reasons"] == {"insufficient_cues": 1}
        files = written(out)
        assert run_alone(pairs, task, clips, out) == (report, 0)
        assert written(out) == files

    @pytest.mark.parametrize(
        "stage,reason",
        [("caption", "caption_failed"), ("selection", "selection_failed"),
         ("cue_caption", "cue_caption_failed"), ("filter", "filter_failed"),
         ("rationale", "rationale_failed")],
    )
    def test_backend_failure_is_retried_by_the_next_run(self, tmp_path, stage, reason):
        clips, task = make_clips(4), make_task()
        out = tmp_path / "sft.records"
        report, _ = run_alone(full_script(clips, task.qa, skip_stages=(stage,)), task, clips, out)
        assert report["rejection_reasons"] == {reason: 1}
        assert not Path(f"{out}{JOURNAL_SUFFIX}").exists()
        report, calls = run_alone(full_script(clips, task.qa), task, clips, out)
        assert report["emitted"] == 1 and calls == 9

    def test_rejected_credential_journals_nothing(self, tmp_path):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa)
        captions = MockBackend({request_digest(r): reply for r, reply in pairs})
        denied = HttpBackend(
            "https://example.test", "m", "key", 60.0,
            post=lambda *a, **kw: SimpleNamespace(status_code=401),
        )
        gateway = Gateway(
            backends={"mllm": captions, "llm": denied},
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            sleep=lambda s: None,
        )
        out = tmp_path / "sft.records"
        with pytest.raises(AuthError, match="status 401"):
            run_sft_pipeline(gateway, [task], {"v": clips}, out)
        assert not Path(f"{out}{JOURNAL_SUFFIX}").exists()
        # the sample starts over: 4 captions, the selection, 2 cue captions, filter, rationale
        report, calls = run_alone(pairs, task, clips, out)
        assert report["emitted"] == 1 and calls == 9

    # wherever the crash lands, nothing of the sample was journalled, so the
    # resume makes all 9 of its calls
    @pytest.mark.parametrize("crash_after,resume_calls", [(2, 9), (5, 9), (7, 9)])
    def test_crash_then_resume_matches_clean_run(self, tmp_path, crash_after, resume_calls):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa)
        clean = tmp_path / "clean.records"
        clean_report, _ = run_alone(pairs, task, clips, clean)

        out = tmp_path / "resumed.records"
        crash_gw, _ = crashing_gateway(pairs, crash_after)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sft_pipeline(crash_gw, [task], {"v": clips}, out)
        assert not Path(f"{out}{JOURNAL_SUFFIX}").exists()

        assert run_alone(pairs, task, clips, out) == (clean_report, resume_calls)
        assert written(out) == written(clean)
        journal = Path(f"{out}{JOURNAL_SUFFIX}").read_bytes()
        assert journal == Path(f"{clean}{JOURNAL_SUFFIX}").read_bytes()

    # A journal of an earlier version holds one line per stage, captioned to
    # emitted; resuming from its first `kept` lines skips the checkpoints, so
    # the sample starts over unless its outcome line was kept.  The rejected
    # sample is cut just before its "rejected" line.
    @pytest.mark.parametrize(
        "tweak,kept,resume_calls",
        [({}, kept, calls) for kept, calls in enumerate([9, 9, 9, 9, 9, 0])]
        + [({"filter_reply": "No"}, 3, 8)],
    )
    def test_resume_from_every_checkpoint(self, tmp_path, tweak, kept, resume_calls):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, **tweak)
        clean = tmp_path / "clean.records"
        clean_report, _ = run_alone(pairs, task, clips, clean)
        lines = five_stage_lines(clips, Path(f"{clean}{JOURNAL_SUFFIX}"))
        assert len(lines) == (4 if tweak else 5)
        out = tmp_path / "cut.records"
        Path(f"{out}{JOURNAL_SUFFIX}").write_bytes(b"".join(lines[:kept]))
        assert run_alone(pairs, task, clips, out) == (clean_report, resume_calls)
        assert written(out) == written(clean)

    # a 4-clip sample selecting [0, 2] has a chain of 2 compilations; the
    # checkpoints are skipped, not checked against the sample
    @pytest.mark.parametrize(
        "kept,updates",
        [
            (1, {"captions": ["a", "b", "c"]}),
            (2, {"selected": [4]}),
            (2, {"selected": []}),
            (3, {"cues": ["a", "b", "c"]}),
            (4, {"cues": ["a"]}),
        ],
        ids=["captions_cut", "selected_outside", "selected_empty", "cues_extra",
             "filtered_cues_cut"],
    )
    def test_checkpoint_that_does_not_fit_is_skipped(self, tmp_path, kept, updates):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa)
        clean = tmp_path / "clean.records"
        clean_report, _ = run_alone(pairs, task, clips, clean)
        lines = five_stage_lines(clips, Path(f"{clean}{JOURNAL_SUFFIX}"))[:kept]
        entries = [json.loads(line) for line in lines]
        for entry in entries:
            entry["payload"].update((k, v) for k, v in updates.items() if k in entry["payload"])
        out = tmp_path / "cut.records"
        Path(f"{out}{JOURNAL_SUFFIX}").write_text(
            "".join(json.dumps(entry) + "\n" for entry in entries), encoding="utf-8"
        )
        assert run_alone(pairs, task, clips, out) == (clean_report, 9)
        assert written(out) == written(clean)


class TestRunSftPipeline:
    def two_sample_setup(self, tmp_path):
        clips_a = make_clips(4, "va")
        clips_b = make_clips(3, "vb")
        qa_a, qa_b = make_qa("B"), make_qa("C")
        task_a = make_task("va", qa_a)
        task_b = make_task("vb", qa_b)
        pairs = full_script(clips_a, qa_a) + full_script(
            clips_b, qa_b, selected=(0, 1), filter_reply="No"
        )
        clips_by_video = {"va": clips_a, "vb": clips_b}
        out = tmp_path / "sft.records"
        return pairs, [task_a, task_b], clips_by_video, out

    def test_writes_dataset_and_sidecar(self, tmp_path):
        pairs, tasks, clips_by_video, out = self.two_sample_setup(tmp_path)
        gateway, _ = counting_gateway(pairs)
        summary = run_sft_pipeline(gateway, tasks, clips_by_video, out)
        assert summary == {
            "total": 2,
            "emitted": 1,
            "rejected": 1,
            "invalidated": 0,
            "rejection_reasons": {"insufficient_cues": 1},
        }
        emitted = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in emitted] == ["va#0"]
        sidecar = [
            json.loads(line)
            for line in (tmp_path / "sft.records.rejected").read_text().splitlines()
        ]
        assert sidecar == [
            {
                "id": "vb#0",
                "reason": "insufficient_cues",
                "detail": "final cue judged insufficient",
            }
        ]

    def test_rerun_rewrites_identical_bytes_without_calls(self, tmp_path):
        pairs, tasks, clips_by_video, out = self.two_sample_setup(tmp_path)
        gateway, _ = counting_gateway(pairs)
        run_sft_pipeline(gateway, tasks, clips_by_video, out)
        first = out.read_bytes()
        first_sidecar = (tmp_path / "sft.records.rejected").read_bytes()

        out.unlink()  # states survive; outputs are rebuilt from them
        gateway2, backend2 = counting_gateway(pairs)
        summary = run_sft_pipeline(gateway2, tasks, clips_by_video, out)
        assert backend2.calls == 0
        assert summary["emitted"] == 1
        assert out.read_bytes() == first
        assert (tmp_path / "sft.records.rejected").read_bytes() == first_sidecar

    def test_edited_answer_restarts_only_that_sample(self, tmp_path):
        pairs, tasks, clips_by_video, out = self.two_sample_setup(tmp_path)
        gateway, _ = counting_gateway(pairs)
        run_sft_pipeline(gateway, tasks, clips_by_video, out)
        sidecar = (tmp_path / "sft.records.rejected").read_bytes()

        edited_qa = make_qa("C")
        edited_tasks = [replace(tasks[0], qa=edited_qa), tasks[1]]
        # the backend answers only the edited sample's requests
        gateway2, backend2 = counting_gateway(full_script(clips_by_video["va"], edited_qa))
        summary = run_sft_pipeline(gateway2, edited_tasks, clips_by_video, out)
        assert summary["invalidated"] == 1 and summary["emitted"] == 1
        assert backend2.calls == 9
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert record["answer"] == "C"
        assert record["target"].endswith("<answer>C</answer>")
        assert (tmp_path / "sft.records.rejected").read_bytes() == sidecar

    def test_torn_journal_resumes_to_clean_bytes(self, corpus, tmp_path):
        paths = corpus.manifest["paths"]
        tasks = load_qa_tasks(paths["qa"])
        clips_by_video = load_clips(paths["clips"])

        def run(out):
            backend = CountingBackend(MockBackend.from_file(paths["mock_table"]))
            gateway = Gateway(backends={"mllm": backend, "llm": backend})
            run_sft_pipeline(gateway, tasks, clips_by_video, out)
            return backend.calls

        clean = tmp_path / "clean" / "sft.records"
        torn = tmp_path / "torn" / "sft.records"
        for out in (clean, torn):
            out.parent.mkdir()
            clean_calls = run(out)
        journal = Path(f"{torn}.journal")
        data = journal.read_bytes()
        cut = data.index(b"\n", len(data) // 2) - 10  # mid-way through a line
        journal.write_bytes(data[:cut])
        torn.unlink()

        assert 0 < run(torn) < clean_calls
        assert torn.read_bytes() == clean.read_bytes()
        assert Path(f"{torn}.rejected").read_bytes() == Path(f"{clean}.rejected").read_bytes()
        assert journal.read_bytes().endswith(b"\n")
        assert not Path(f"{torn}.state").exists()

    def test_missing_video_clips_rejected(self, tmp_path):
        task = make_task("ghost")
        gateway, _ = counting_gateway([])
        out = tmp_path / "sft.records"
        summary = run_sft_pipeline(gateway, [task], {}, out)
        assert summary["rejection_reasons"] == {"missing_clips": 1}

    def test_workers_give_identical_bytes(self, corpus, tmp_path, fast_thread_switching):
        paths = corpus.manifest["paths"]
        tasks = load_qa_tasks(paths["qa"])
        clips_by_video = load_clips(paths["clips"])
        outputs = []
        for workers in (1, 4):
            config = apply_overrides(load_config(paths["config"]), parallelism=workers)
            out = tmp_path / f"workers{workers}" / "sft.records"
            out.parent.mkdir()
            summary = run_sft_pipeline(
                build_gateway(config), tasks, clips_by_video, out, workers=workers
            )
            assert summary["emitted"] == corpus.manifest["expected_emitted"]
            outputs.append((out.read_bytes(), Path(f"{out}.rejected").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("depth", [3000, 100_000])
    def test_selection_nested_too_deep_is_unparseable(self, tmp_path, depth):
        pairs, tasks, clips_by_video, out = self.two_sample_setup(tmp_path)
        nested = "[" * depth + "]" * depth
        pairs = full_script(clips_by_video["va"], tasks[0].qa, selection_reply=nested)
        gateway, _ = counting_gateway(pairs)
        summary = run_sft_pipeline(gateway, tasks[:1], clips_by_video, out, workers=2)
        assert summary["rejection_reasons"] == {"selection_unparseable": 1}

    def test_finished_run_resumes_without_the_pool(self, corpus, tmp_path, monkeypatch):
        paths = corpus.manifest["paths"]
        tasks, clips_by_video = load_qa_tasks(paths["qa"]), load_clips(paths["clips"])
        gateway = build_gateway(apply_overrides(load_config(paths["config"]), parallelism=4))
        out = tmp_path / "sft.records"
        submitted = []
        submit = ThreadPoolExecutor.submit
        monkeypatch.setattr(ThreadPoolExecutor, "submit",
                            lambda pool, *args: submitted.append(args) or submit(pool, *args))
        cold = run_sft_pipeline(gateway, tasks, clips_by_video, out, workers=4)
        assert len(submitted) == len(tasks)
        dataset, sidecar = out.read_bytes(), Path(f"{out}.rejected").read_bytes()
        submitted.clear()
        assert run_sft_pipeline(gateway, tasks, clips_by_video, out, workers=4) == cold
        assert submitted == []
        assert (out.read_bytes(), Path(f"{out}.rejected").read_bytes()) == (dataset, sidecar)

    def test_crash_cancels_queued_samples(self, corpus, tmp_path):
        paths = corpus.manifest["paths"]
        tasks = load_qa_tasks(paths["qa"])
        assert len(tasks) == 20
        backend = FailingBackend()
        gateway = Gateway(backends={"mllm": backend, "llm": backend}, max_in_flight=4)
        with pytest.raises(RuntimeError, match="backend crashed"):
            run_sft_pipeline(
                gateway, tasks, load_clips(paths["clips"]), tmp_path / "sft.records", workers=4
            )
        # each sample fails on its first call, so calls count the samples started
        assert backend.calls < len(tasks)


class TestResumeAfterFailure:
    """A rerun makes exactly the calls of the samples the failed run left without an outcome."""

    @pytest.fixture
    def inputs(self, corpus):
        paths = corpus.manifest["paths"]
        return load_qa_tasks(paths["qa"]), load_clips(paths["clips"]), paths["mock_table"]

    @staticmethod
    def gateway(backend) -> Gateway:
        return Gateway(backends={"mllm": backend, "llm": backend},
                       retry=RetryPolicy(max_attempts=1, base_delay_s=0.0), sleep=lambda s: None)

    def clean_calls(self, inputs, tmp_path) -> dict[str, Counter]:
        """Each sample's request digests in a clean run of it alone."""
        tasks, clips_by_video, table = inputs
        calls = {}
        for task in tasks:
            backend = OutageBackend(MockBackend.from_file(table), 0, 0)
            process_sample(self.gateway(backend), task, clips_by_video.get(task.video_id),
                           lenient=False)
            calls[task.sample_id] = Counter(map(request_digest, backend.requests))
        return calls

    def outputs(self, out: Path) -> tuple[bytes, bytes, list[bytes]]:
        journal = sorted(Path(f"{out}{JOURNAL_SUFFIX}").read_bytes().splitlines())
        return out.read_bytes(), Path(f"{out}{REJECTED_SUFFIX}").read_bytes(), journal

    def rerun(self, inputs, out: Path, workers: int = 1) -> tuple[dict, Counter]:
        tasks, clips_by_video, table = inputs
        backend = OutageBackend(MockBackend.from_file(table), 0, 0)
        report = run_sft_pipeline(self.gateway(backend), tasks, clips_by_video, out, workers=workers)
        return report, Counter(map(request_digest, backend.requests))

    def journalled(self, out: Path) -> set[str]:
        return {rec["sample_id"] for rec in read_records(f"{out}{JOURNAL_SUFFIX}")}

    @pytest.mark.parametrize("workers,crash_after", [(1, 40), (1, 101), (4, 40), (4, 101)])
    def test_crash_then_resume_calls_only_unfinished_samples(self, inputs, tmp_path, workers,
                                                              crash_after):
        tasks, clips_by_video, table = inputs
        clean_calls = self.clean_calls(inputs, tmp_path)
        clean = tmp_path / "clean" / "sft.records"
        clean.parent.mkdir()
        self.rerun(inputs, clean)

        out = tmp_path / "crashed" / "sft.records"
        out.parent.mkdir()
        crashing = CrashingBackend(MockBackend.from_file(table), crash_after)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sft_pipeline(self.gateway(crashing), tasks, clips_by_video, out, workers=workers)
        finished = self.journalled(out)
        assert 0 < len(finished) < len(tasks)

        _, calls = self.rerun(inputs, out, workers)
        assert calls == sum((clean_calls[t.sample_id] for t in tasks if t.sample_id not in finished),
                            Counter())
        assert self.outputs(out) == self.outputs(clean)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_backend_outage_is_retried_by_the_next_run(self, inputs, tmp_path, workers):
        tasks, clips_by_video, table = inputs
        clean_calls = self.clean_calls(inputs, tmp_path)
        clean = tmp_path / "clean" / "sft.records"
        clean.parent.mkdir()
        clean_report, _ = self.rerun(inputs, clean)

        out = tmp_path / "outage" / "sft.records"
        out.parent.mkdir()
        outage = OutageBackend(MockBackend.from_file(table), 30, 90)
        report = run_sft_pipeline(self.gateway(outage), tasks, clips_by_video, out, workers=workers)
        failed = {r["id"] for r in read_records(f"{out}{REJECTED_SUFFIX}")
                  if r["reason"].endswith("_failed")}
        assert failed
        assert sum(n for reason, n in report["rejection_reasons"].items()
                   if reason.endswith("_failed")) == len(failed)
        assert self.journalled(out) == {t.sample_id for t in tasks} - failed

        report, calls = self.rerun(inputs, out, workers)
        assert report == clean_report
        assert calls == sum((clean_calls[sample_id] for sample_id in failed), Counter())
        assert self.outputs(out) == self.outputs(clean)


class TestLoadClips:
    def test_groups_and_validates(self, tmp_path):
        path = tmp_path / "clips.records"
        v2 = make_clips(3, "v2")
        rows = [c.to_record() for c in make_clips(2, "v1")] + [
            c.to_record() for c in (v2[2], v2[0], v2[1])
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        by_video = load_clips(path)
        assert sorted(by_video) == ["v1", "v2"]
        assert by_video["v2"] == v2

    @pytest.mark.parametrize(
        "rows,message",
        [
            # the breaking clip comes first in the file, before the clip it follows
            ([("a", 2, 3.0, 5.0), ("a", 0, 0.0, 3.0)],
             "clips.records:1: video 'a': clip indices are not contiguous 0..1: [0, 2]"),
            ([("a", 1, 2.0, 5.0), ("a", 0, 0.0, 3.0)],
             "clips.records:1: video 'a': clip 1 starts at 2.0 before clip 0 ends at 3.0"),
            ([("a", 0, 0.0, 3.0), ("b", 0, 0.0, 1.0), ("a", 0, 0.0, 3.0)],
             "clips.records:3: video 'a': clip indices are not contiguous 0..1: [0, 0]"),
            # an overlap before a gap: the gap is named
            ([("a", 0, 0.0, 3.0), ("a", 1, 2.0, 5.0), ("a", 3, 5.0, 6.0)],
             "clips.records:3: video 'a': clip indices are not contiguous 0..2: [0, 1, 3]"),
        ],
        ids=["gap", "overlap", "repeated_index", "gap_and_overlap"],
    )
    def test_broken_run_names_line_and_video(self, tmp_path, rows, message):
        path = tmp_path / "clips.records"
        write_records(
            path,
            [{"video_id": v, "index": i, "start_s": s, "end_s": e} for v, i, s, e in rows],
        )
        with pytest.raises(RecordError) as info:
            load_clips(path)
        assert str(info.value) == f"{tmp_path}/{message}"


class _NullContent:
    """An HTTP 200 reply whose message content is null."""

    status_code = 200

    def json(self):
        return {"choices": [{"message": {"content": None}}]}


def test_null_backend_content_rejects_as_caption_failed(tmp_path):
    backend = HttpBackend("https://example.test", "m", "key", 60.0, post=lambda *a, **kw: _NullContent())
    gateway = Gateway(
        backends={"mllm": backend, "llm": backend},
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        sleep=lambda s: None,
    )
    summary = run_sft_pipeline(gateway, [make_task()], {"v": make_clips(3)}, tmp_path / "sft.records")
    assert summary["rejection_reasons"] == {"caption_failed": 1}
