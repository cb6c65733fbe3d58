"""Stage operations, per-sample state, rejection routing, and resume."""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import CountingBackend, CrashingBackend, FailingBackend, scripted_gateway

from toc.config import apply_overrides, build_gateway, load_config
from toc.cue_tree import backtrack, build_tree, layer_compilations
from toc.errors import (
    EmptyCaptionError,
    EmptyRationaleError,
    EmptySelectionError,
    OutOfRangeError,
    ParseError,
    RecordError,
    StepCountMismatchError,
)
from toc.gateway import Gateway, MockBackend, RetryPolicy, request_digest
from toc.records import Clip, QaPair, QaTask, load_qa_tasks
from toc.rl_pipeline import trial_request
from toc.sft_pipeline import (
    STAGES,
    Journal,
    PipelineState,
    caption_clips,
    caption_compilations,
    clip_caption_request,
    clip_descriptions_json,
    compilation_caption_request,
    filter_low_quality,
    filter_request,
    linearize_trajectory,
    load_clips,
    process_sample,
    rationale_request,
    run_sft_pipeline,
    sample_digest,
    select_key_clips,
    selection_request,
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
        "trial": trial_request(qa, "v/full", 3),
    }
    task = QaTask(video_id="v", qa_index=0, qa=qa, video_ref="v/full")
    digests = {name: request_digest(request) for name, request in requests.items()}
    return {**digests, "sample": sample_digest(task, clips, False)}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_stored_digests_are_pinned(name):
    assert stored_digests()[name] == PINNED_DIGESTS[name]


class TestJournal:
    def test_advance_resume_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal(path)
        state = journal.advance(journal.resume("v#0", "d1"), "captioned", {"captions": ["café"]})
        assert Journal(path).resume("v#0", "d1") == state

    def test_missing_sample_starts_fresh(self, tmp_path):
        journal = Journal(tmp_path / "run.journal")
        assert journal.resume("nope", "d1") == PipelineState("nope", None, {}, "d1")
        assert not journal.invalidated

    def test_one_line_per_transition_in_one_file(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal(path)
        state = journal.advance(journal.resume("v#0", "d1"), "captioned", {"captions": ["x"]})
        journal.advance(state, "rejected", {"reason": "selection_empty", "detail": "why"})
        assert [p.name for p in tmp_path.iterdir()] == ["run.journal"]
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            {"sample_id": "v#0", "digest": "d1", "stage": "captioned",
             "payload": {"captions": ["x"]}},
            {"sample_id": "v#0", "digest": "d1", "stage": "rejected",
             "payload": {"reason": "selection_empty", "detail": "why"}},
        ]
        assert Journal(path).resume("v#0", "d1").payload == {
            "captions": ["x"], "reason": "selection_empty", "detail": "why",
        }

    def test_ids_with_path_separators_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal(path)
        journal.advance(journal.resume("a/b#0", "d1"), "captioned", {})
        assert Journal(path).resume("a/b#0", "d1").stage == "captioned"

    def test_changed_digest_restarts_and_counts_invalidated(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal(path)
        state = journal.advance(journal.resume("v#0", "old"), "captioned", {"captions": ["x"]})
        journal.advance(state, "selected", {"selected": [0]})
        journal = Journal(path)
        fresh = journal.resume("v#0", "new")
        assert fresh == PipelineState("v#0", None, {}, "new")
        assert journal.invalidated == {"v#0"}
        journal.advance(fresh, "captioned", {"captions": ["y"]})
        # the new digest's lines replace, not extend, the old run's payload
        replayed = Journal(path)
        assert replayed.resume("v#0", "new") == PipelineState(
            "v#0", "captioned", {"captions": ["y"]}, "new"
        )
        assert not replayed.invalidated

    def test_torn_last_line_is_truncated_before_appending(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal(path)
        journal.advance(journal.resume("v#0", "d1"), "captioned", {"captions": ["x"]})
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"sample_id": "v#0", "digest": "d1", "sta')
        journal = Journal(path)
        assert path.read_bytes() == whole
        state = journal.resume("v#0", "d1")
        assert state.stage == "captioned"
        journal.advance(state, "selected", {"selected": [0]})
        assert Journal(path).resume("v#0", "d1").stage == "selected"

    def test_concurrent_appends_replay_whole(self, tmp_path, fast_thread_switching):
        path = tmp_path / "run.journal"

        def walk(journal, worker):
            for n in range(40):
                state = journal.resume(f"w{worker}#{n}", "d1")
                for stage in STAGES:
                    state = journal.advance(state, stage, {stage: [worker, n] * 8})

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
                assert state.stage == "emitted"
                assert state.payload == {stage: [worker, n] * 8 for stage in STAGES}

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"sample_id": "v#0", "digest": "d1", "stage": "captioned"}',
            '{"sample_id": "v#0", "digest": "d1", "stage": "bogus", "payload": {}}',
            '{"sample_id": "v#0", "digest": "d1", "stage": "captioned", "payload": 3}',
            '{"sample_id": "v#0", "digest": "d1", "stage": "captioned", "payload": []}',
            '{"sample_id": 5, "digest": "d1", "stage": "captioned", "payload": {}}',
        ],
        ids=["not_json", "no_payload", "unknown_stage", "payload_not_object", "payload_list",
             "number_sample_id"],
    )
    def test_invalid_complete_line_is_record_error(self, tmp_path, line):
        path = tmp_path / "run.journal"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match="run.journal:1: invalid journal line"):
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

    def selection_setup(self, reply):
        clips = [replace(c, caption=f"cap{c.index}") for c in make_clips(4)]
        qa = make_qa()
        gateway = scripted_gateway([(selection_request(clips, qa), reply)])
        return gateway, clips, qa

    def test_select_key_clips(self):
        gateway, clips, qa = self.selection_setup("[2, 0]")
        assert select_key_clips(gateway, clips, qa) == [0, 2]

    def test_select_empty(self):
        gateway, clips, qa = self.selection_setup("[]")
        with pytest.raises(EmptySelectionError):
            select_key_clips(gateway, clips, qa)

    def test_select_out_of_range(self):
        gateway, clips, qa = self.selection_setup("[0, 7]")
        with pytest.raises(OutOfRangeError):
            select_key_clips(gateway, clips, qa)

    def test_select_strict_parse(self):
        gateway, clips, qa = self.selection_setup("```json\n[1]\n```")
        with pytest.raises(ParseError):
            select_key_clips(gateway, clips, qa)

    def test_select_lenient_parse(self):
        gateway, clips, qa = self.selection_setup("```json\n[1]\n```")
        assert select_key_clips(gateway, clips, qa, lenient=True) == [1]

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

    def test_filter_low_quality(self):
        qa = make_qa()
        yes = scripted_gateway([(filter_request("the cue", qa), "Yes.")])
        no = scripted_gateway([(filter_request("the cue", qa), "No")])
        assert filter_low_quality(yes, "the cue", qa) is True
        assert filter_low_quality(no, "the cue", qa) is False

    def rationale_gateway(self, cues, qa, reply):
        return scripted_gateway([(rationale_request(cues, qa), reply)])

    def test_summarize_rationale_strips_markers(self):
        qa = make_qa()
        cues = ["wide", "narrow"]
        reply = "Step 1: I scan the video. Step 2: I focus on the door."
        gateway = self.rationale_gateway(cues, qa, reply)
        stripped, raw = summarize_rationale(gateway, cues, qa)
        assert stripped == "I scan the video. I focus on the door."
        assert raw == reply

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

    def test_summarize_rationale_needs_cues(self):
        with pytest.raises(ValueError):
            summarize_rationale(scripted_gateway([]), [], make_qa())


def make_task(video_id: str = "v", qa: QaPair | None = None) -> QaTask:
    return QaTask(
        video_id=video_id, qa_index=0, qa=qa or make_qa(), video_ref=f"{video_id}/full"
    )


class TestProcessSample:
    def run_one(self, pairs, clips, task=None, tmp_path=None, **kwargs):
        store = Journal(tmp_path / "state.journal")
        gateway, backend = counting_gateway(pairs)
        state = process_sample(gateway, task or make_task(), clips, store, **kwargs)
        return state, backend, store

    def test_happy_path_emits(self, tmp_path):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa)
        state, backend, _ = self.run_one(pairs, clips, task, tmp_path)
        assert state.stage == "emitted"
        # 4 captions + selection + 2 cue captions + filter + rationale
        assert backend.calls == 9
        record = state.payload["record"]
        assert record["id"] == "v#0"
        assert record["rationale"] == "I narrow the search. I narrow the search."
        assert record["target"] == (
            "<locate>I narrow the search. I narrow the search.</locate>\n<answer>B</answer>"
        )
        assert record["prompt"] == render_train_infer(
            task.qa.formatted_question(), "multiple_choice"
        )

    def test_missing_clips(self, tmp_path):
        state, backend, _ = self.run_one([], None, tmp_path=tmp_path)
        assert state.stage == "rejected" and state.payload["reason"] == "missing_clips"
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
    def test_rejection_reasons(self, tmp_path, tweak, reason):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, **tweak)
        state, _, _ = self.run_one(pairs, clips, task, tmp_path)
        assert state.stage == "rejected"
        assert state.payload["reason"] == reason
        assert state.payload["detail"]

    def test_empty_cue_caption_rejects(self, tmp_path):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, cue_captions=["good cue", " "])
        state, _, _ = self.run_one(pairs, clips, task, tmp_path)
        assert state.stage == "rejected" and state.payload["reason"] == "empty_caption"

    def test_finished_sample_resumes_without_calls(self, tmp_path):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa)
        state, backend, store = self.run_one(pairs, clips, task, tmp_path)
        gateway2, backend2 = counting_gateway(pairs)
        again = process_sample(gateway2, task, clips, store)
        assert again == state and backend2.calls == 0

    def test_rejection_is_sticky(self, tmp_path):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, filter_reply="No")
        state, _, store = self.run_one(pairs, clips, task, tmp_path)
        gateway2, backend2 = counting_gateway(pairs)
        again = process_sample(gateway2, task, clips, store)
        assert again == state and backend2.calls == 0

    # crashing mid-captioning persists nothing (9 calls to redo); after the
    # selection checkpoint only the cue/filter/rationale legs remain (4);
    # after the cue captions only filter and rationale remain (2)
    @pytest.mark.parametrize("crash_after,resume_calls", [(2, 9), (5, 4), (7, 2)])
    def test_crash_then_resume_matches_clean_run(self, tmp_path, crash_after, resume_calls):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa)

        clean_store = Journal(tmp_path / "clean.journal")
        clean_gateway, _ = counting_gateway(pairs)
        clean = process_sample(clean_gateway, task, clips, clean_store)

        resumed_store = Journal(tmp_path / "resumed.journal")
        crash_gw, _ = crashing_gateway(pairs, crash_after)
        with pytest.raises(RuntimeError, match="simulated crash"):
            process_sample(crash_gw, task, clips, resumed_store)
        retry_gateway, retry_backend = counting_gateway(pairs)
        resumed = process_sample(retry_gateway, task, clips, resumed_store)

        assert resumed == clean
        assert retry_backend.calls == resume_calls

    # A clean run journals one line per stage, captioned to emitted; resuming
    # from its first `kept` lines makes exactly the calls it made after them.
    # The rejected sample is cut just before its "rejected" line.
    @pytest.mark.parametrize(
        "tweak,kept,resume_calls",
        [({}, kept, calls) for kept, calls in enumerate([9, 5, 4, 4, 2, 1, 0, 0])]
        + [({"filter_reply": "No"}, 4, 1)],
    )
    def test_resume_from_every_checkpoint(self, tmp_path, tweak, kept, resume_calls):
        clips, task = make_clips(4), make_task()
        pairs = full_script(clips, task.qa, **tweak)
        clean, _, clean_store = self.run_one(pairs, clips, task, tmp_path)
        lines = clean_store.path.read_bytes().splitlines(keepends=True)
        assert len(lines) == (5 if tweak else 7)
        cut = tmp_path / "cut.journal"
        cut.write_bytes(b"".join(lines[:kept]))
        gateway, backend = counting_gateway(pairs)
        assert process_sample(gateway, task, clips, Journal(cut)) == clean
        assert backend.calls == resume_calls


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


class TestLoadClips:
    def test_groups_and_validates(self, tmp_path):
        path = tmp_path / "clips.records"
        rows = [c.to_record() for c in make_clips(2, "v1")] + [
            c.to_record() for c in make_clips(3, "v2")
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        by_video = load_clips(path)
        assert sorted(by_video) == ["v1", "v2"]
        assert [c.index for c in by_video["v2"]] == [0, 1, 2]
