"""Stage operations, per-sample state, rejection routing, and resume."""

from __future__ import annotations

import heapq
import io
import json
import os
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    CountingBackend,
    CrashingBackend,
    FailingBackend,
    OutageBackend,
    scripted_gateway,
)

from toc import records, sft_pipeline
from toc.config import apply_overrides, build_gateway, load_config
from toc.cue_tree import Compilation, backtrack, build_tree, layer_compilations
from toc.errors import (
    AuthError,
    EmptyCaptionError,
    EmptyRationaleError,
    RecordError,
    StepCountMismatchError,
)
from toc.gateway import Gateway, HttpBackend, MockBackend, request_digest
from toc.mockgen import synthesize_corpus
from toc.records import (
    STAGED_SUFFIX,
    Clip,
    QaPair,
    QaTask,
    load_qa_tasks,
    read_records,
    write_records,
)
from toc.rl_pipeline import trial_request
from toc.sft_pipeline import (
    JOURNAL_SUFFIX,
    REJECTED_SUFFIX,
    Journal,
    caption_clips,
    caption_compilations,
    caption_request,
    clip_descriptions_json,
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
    """(request, reply) pairs walking one sample of clips[0]'s video, at its
    default video_ref, through every stage.

    A request made before keeps its reply, as a sample makes it once: a
    one-clip compilation's cue is its clip's caption.
    """
    video_ref = f"{clips[0].video_id}/full"
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
    replies: dict[str, str] = {}

    def answer(stage, request, reply):
        reply = replies.setdefault(request_digest(request), reply)
        if stage not in skip_stages:
            pairs.append((request, reply))
        return reply

    for clip, caption in zip(clips, captions):
        answer("caption", caption_request(video_ref, [clip]), caption)
    answer("selection", selection_request(captioned, qa), selection_reply)
    shown = [[clips[i] for i in comp.clip_indices] for comp in chain]
    cues = [answer("cue_caption", caption_request(video_ref, comp_clips), cap)
            for comp_clips, cap in zip(shown, cue_captions)]
    answer("filter", filter_request(cues[-1], qa), filter_reply)
    answer("rationale", rationale_request(cues, qa), rationale_reply)
    return pairs


def one_try_gateway(backend) -> Gateway:
    """A gateway serving both roles from backend, with no retry."""
    return Gateway(backends={"mllm": backend, "llm": backend}, max_in_flight=4,
                   retry_max_attempts=1, retry_base_delay_s=0.0, sleep=lambda s: None)


def counting_gateway(pairs):
    backend = CountingBackend(MockBackend({request_digest(r): reply for r, reply in pairs}))
    return one_try_gateway(backend), backend


def crashing_gateway(pairs, crash_after):
    backend = CrashingBackend(
        MockBackend({request_digest(r): reply for r, reply in pairs}), crash_after
    )
    return one_try_gateway(backend), backend


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
        # a temporal media fragment per run of touching clips: one clip is exactly its own span
        clips = make_clips(3)
        assert caption_request("v/full", [clips[2]]).media == ("v/full#t=4.0,6.0",)
        assert caption_request("v/full", clips).media == ("v/full#t=0.0,6.0",)
        req = caption_request("v/full", [clips[0], clips[2]])
        assert req.media == ("v/full#t=0.0,2.0", "v/full#t=4.0,6.0")
        spaced = [Clip("v", 0, 0.5, 1.25), Clip("v", 1, 1.5, 3.0), Clip("v", 2, 3.0, 7.1)]
        req = caption_request("s3://b/v.mp4", spaced)
        assert req.media == ("s3://b/v.mp4#t=0.5,1.25", "s3://b/v.mp4#t=1.5,7.1")
        # npt-sec is digits and a point: no exponent, no sign on zero
        spans = [Clip("v", 0, -0.0, 1e-05), Clip("v", 1, 1e-05, 2.0), Clip("v", 2, 2.0, 2e16)]
        assert [caption_request("a/full", [clip]).media for clip in spans] == [
            ("a/full#t=0.0,0.00001",), ("a/full#t=0.00001,2.0",),
            ("a/full#t=2.0,20000000000000000.0",)]

    def test_one_clip_compilation_is_its_clip_caption(self):
        # an uncaptioned one-clip compilation asks exactly its clip's request
        clips = make_clips(3)
        gateway = scripted_gateway([(caption_request("v/full", [clips[1]]), "clip one")])
        (cue,) = caption_compilations(gateway, [Compilation((1,))], clips, "v/full")
        assert cue.caption == "clip one"

    def test_http_payload_names_each_fragment(self):
        posted = []

        def post(url, json=None, headers=None, timeout=None):
            posted.append(json)
            body = {"choices": [{"message": {"content": "a caption"}}]}
            return SimpleNamespace(status_code=200, json=lambda: body)

        backend = HttpBackend("https://example.test", "m", "key", 60.0, post=post)
        clips = [Clip("v", 0, 0.0, 2.5), Clip("v", 1, 2.5, 4.0), Clip("v", 2, 6.0, 7.5),
                 Clip("v", 3, 7.5, 9.0)]
        backend.complete(caption_request("s3://b/v.mp4", [clips[1]]))
        backend.complete(caption_request("s3://b/v.mp4", clips))
        urls = [[part["video_url"]["url"] for part in payload["messages"][0]["content"]
                 if part["type"] == "video_url"] for payload in posted]
        assert urls == [["s3://b/v.mp4#t=2.5,4.0"],
                        ["s3://b/v.mp4#t=0.0,4.0", "s3://b/v.mp4#t=6.0,9.0"]]

    def test_caption_steps_default_the_video_ref_like_a_qa_record(self, tmp_path):
        clips = make_clips(2)
        qa = tmp_path / "qa.records"
        write_records(qa, [{**make_qa().to_record(), "video_id": "v"}])
        (task,) = load_qa_tasks(qa)
        pairs = [(caption_request(task.video_ref, [c]), f"caption {c.index}") for c in clips]
        pairs.append((caption_request(task.video_ref, clips), "cue"))
        gateway = scripted_gateway(pairs)
        assert [c.caption for c in caption_clips(gateway, clips)] == ["caption 0", "caption 1"]
        assert caption_compilations(gateway, [Compilation((0, 1))], clips)[0].caption == "cue"


# Request digests key mock tables and sample digests key journal lines, so
# a change to either orphans every stored file; these literals pin both.
PINNED_DIGESTS = {
    "clip_caption": "d67140cf5c7c9580",
    "compilation_caption": "b44ed5cee8dbd0f0",
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
        "clip_caption": caption_request("v/full", [clips[2]]),
        "compilation_caption": caption_request("v/full", [clips[i] for i in chain[0].clip_indices]),
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


def emitted(sample_id: str, digest: str = "d1", rationale: str = "r") -> tuple:
    """Journal.append's arguments for an emitted sample."""
    return sample_id, digest, "emitted", {"rationale": rationale}


def rejected(sample_id: str, reason: str, detail: str, digest: str = "d1") -> tuple:
    """Journal.append's arguments for a rejected sample."""
    return sample_id, digest, "rejected", {"reason": reason, "detail": detail}


def outcome(entry: tuple) -> tuple[str, dict]:
    """The (stage, payload) that Journal.resume gives back for an appended entry."""
    return entry[2:]


def append(path: Path, *entries: tuple) -> None:
    """Journal each entry to path."""
    journal = Journal(path)
    for entry in entries:
        journal.append(*entry)


def journal_line(sample_id: str, stage: str, payload: object, digest: str = "d1") -> str:
    return json.dumps({"sample_id": sample_id, "digest": digest, "stage": stage, "payload": payload})


class TestJournal:
    def test_advance_resume_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        entry = emitted("v#0", rationale="café")
        append(path, entry)
        assert Journal(path).resume("v#0", "d1") == ("emitted", {"rationale": "café"})

    def test_missing_sample_starts_fresh(self, tmp_path):
        journal = Journal(tmp_path / "run.journal")
        assert journal.resume("nope", "d1") is None
        assert journal.invalidated == 0

    def test_one_line_per_transition_in_one_file(self, tmp_path):
        path = tmp_path / "run.journal"
        append(path, emitted("v#0", rationale="x"),
               rejected("v#1", "selection_empty", "why"))
        assert [p.name for p in tmp_path.iterdir()] == ["run.journal"]
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            {"sample_id": "v#0", "digest": "d1", "stage": "emitted", "payload": {"rationale": "x"}},
            {"sample_id": "v#1", "digest": "d1", "stage": "rejected",
             "payload": {"reason": "selection_empty", "detail": "why"}},
        ]
        assert Journal(path).resume("v#1", "d1") == (
            "rejected", {"reason": "selection_empty", "detail": "why"})

    def test_ids_with_path_separators_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        append(path, emitted("a/b#0"))
        assert Journal(path).resume("a/b#0", "d1") == ("emitted", {"rationale": "r"})

    def test_changed_digest_restarts_and_counts_invalidated(self, tmp_path):
        path = tmp_path / "run.journal"
        append(path, emitted("v#0", "old", "x"))
        entry = emitted("v#0", "new", "y")
        journal = Journal(path)
        assert journal.resume("v#0", "new") is None
        assert journal.invalidated == 1
        journal.append(*entry)
        # the sample's last outcome line wins
        replayed = Journal(path)
        assert replayed.resume("v#0", "new") == outcome(entry)
        assert replayed.invalidated == 0

    def test_torn_last_line_is_truncated_before_appending(self, tmp_path):
        path = tmp_path / "run.journal"
        entry = emitted("v#0")
        append(path, entry)
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"sample_id": "v#1", "digest": "d1", "sta')
        journal = Journal(path)
        assert path.read_bytes() == whole
        assert journal.resume("v#0", "d1") == outcome(entry)
        journal.append(*emitted("v#1"))
        assert Journal(path).resume("v#1", "d1") == ("emitted", {"rationale": "r"})

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.journal"
        entry = emitted("v#0")
        append(path, entry)
        path.write_bytes(b"\n" + path.read_bytes() + b"  \n")
        journal = Journal(path)
        assert journal.resume("v#0", "d1") == outcome(entry)
        journal.append(*emitted("v#1"))
        assert Journal(path).resume("v#1", "d1") == ("emitted", {"rationale": "r"})

    def test_non_utf8_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "run.journal"
        append(path, emitted("v#0"))
        line = b'{"sample_id": "v#1", "digest": "d1", "stage": "emitted", "payload": {"rationale": "\xff"}}\n'
        path.write_bytes(path.read_bytes() + line)
        with pytest.raises(RecordError, match=rf"{path}:2: not valid UTF-8"):
            Journal(path)

    def test_line_nested_too_deep_names_path_and_line(self, tmp_path):
        path = tmp_path / "run.journal"
        append(path, emitted("v#0"))
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
        append(path, emitted("v#0"))
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
        entry = emitted("v#0")
        append(path, entry)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(journal_line("v#1", stage, payload) + "\n")
        journal = Journal(path)
        assert journal.resume("v#1", "d1") is None
        assert journal.resume("v#0", "d1") == outcome(entry)

    def test_backend_failure_line_is_skipped(self, tmp_path):
        # an earlier version journalled a rejection for a backend failure too
        path = tmp_path / "run.journal"
        failed = {"reason": "caption_failed", "detail": "backend error (status 503)"}
        path.write_text(journal_line("v#0", "rejected", failed) + "\n", encoding="utf-8")
        assert Journal(path).resume("v#0", "d1") is None

    def test_terminal_line_alone_replays(self, tmp_path):
        path = tmp_path / "run.journal"
        append(path, emitted("v#0"), rejected("v#1", "insufficient_cues", "y"))
        replayed = Journal(path)
        assert replayed.resume("v#0", "d1") == ("emitted", {"rationale": "r"})
        assert replayed.resume("v#1", "d1") == ("rejected", {"reason": "insufficient_cues", "detail": "y"})

    def test_concurrent_appends_replay_whole(self, tmp_path, fast_thread_switching):
        path = tmp_path / "run.journal"

        def rationale(worker, n):
            """Odd-numbered lines are longer than a write buffer holds."""
            line = f"worker {worker} sample {n} " * 40
            return line.ljust(io.DEFAULT_BUFFER_SIZE + 1, "x") if n % 2 else line

        def walk(journal, worker):
            for n in range(40):
                journal.append(*emitted(f"w{worker}#{n}", rationale=rationale(worker, n)))

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
                assert replayed.resume(f"w{worker}#{n}", "d1") == (
                    "emitted", {"rationale": rationale(worker, n)})

    def test_appends_forced_to_interleave_replay_whole(self, tmp_path, monkeypatch):
        """Each line is written in two halves with a barrier between them, so two appends
        that are not serialized interleave their halves; a serialized append meets no
        partner there and goes on when the barrier times out."""
        barrier = threading.Barrier(2, timeout=0.5)

        class SplitWrites:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                half = len(text) // 2
                self.fh.write(text[:half])
                self.fh.flush()
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass
                return self.fh.write(text[half:])

        def split_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            return SplitWrites(fh) if "a" in mode else fh

        monkeypatch.setattr(sft_pipeline, "open", split_open, raising=False)
        path = tmp_path / "run.journal"
        journal = Journal(path)
        threads = [threading.Thread(target=journal.append, args=emitted(f"v#{n}", rationale=f"r{n}"))
                   for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(path.read_bytes().splitlines()) == 2
        replayed = Journal(path)
        for n in range(2):
            assert replayed.resume(f"v#{n}", "d1") == ("emitted", {"rationale": f"r{n}"})

    def test_append_after_the_file_moved_writes_to_the_path(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal(path)
        journal.append(*emitted("v#0", rationale="first"))
        os.replace(path, f"{path}.old")
        journal.append(*emitted("v#1", rationale="second"))
        assert [rec["sample_id"] for rec in read_records(path)] == ["v#1"]
        assert [rec["sample_id"] for rec in read_records(f"{path}.old")] == ["v#0"]

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
        pairs = [(caption_request("s3://b/v.mp4", [c]), f"caption {c.index}") for c in clips]
        out = caption_clips(scripted_gateway(pairs), clips, "s3://b/v.mp4")
        assert [c.caption for c in out] == ["caption 0", "caption 1", "caption 2"]
        assert [c.index for c in out] == [0, 1, 2]

    def test_caption_clips_rejects_blank_reply(self):
        clips = make_clips(1)
        pairs = [(caption_request("v/full", [clips[0]]), "   ")]
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
            (caption_request("s3://b/v.mp4", [clips[i] for i in comp.clip_indices]), f"cue {pos}")
            for pos, comp in enumerate(chain)
        ]
        out = caption_compilations(scripted_gateway(pairs), chain, clips, "s3://b/v.mp4")
        assert [c.caption for c in out] == [f"cue {pos}" for pos in range(len(chain))]
        assert [c.clip_indices for c in out] == [c.clip_indices for c in chain]

    def test_one_clip_compilation_takes_its_clips_caption(self):
        clips = [replace(c, caption=f"caption {c.index}") for c in make_clips(4)]
        chain = layer_compilations(backtrack(build_tree(4), [1]))
        assert [c.clip_indices for c in chain] == [(0, 1, 2, 3), (0, 1), (1,)]
        # only the multi-clip cues are scripted: a request for (1,) would fail
        pairs = [
            (caption_request("s3://b/v.mp4", [clips[i] for i in comp.clip_indices]), f"cue {pos}")
            for pos, comp in enumerate(chain[:2])
        ]
        out = caption_compilations(scripted_gateway(pairs), chain, clips, "s3://b/v.mp4")
        assert [c.caption for c in out] == ["cue 0", "cue 1", "caption 1"]

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
    return run_sft_pipeline(gateway, [task], {task.video_id: clips}, out,
                            lenient=False, workers=1), backend.calls


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
            max_in_flight=4,
            retry_max_attempts=3, retry_base_delay_s=0.0,
            sleep=lambda s: None,
        )
        out = tmp_path / "sft.records"
        with pytest.raises(AuthError, match="status 401"):
            run_sft_pipeline(gateway, [task], {"v": clips}, out, lenient=False, workers=1)
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
            run_sft_pipeline(crash_gw, [task], {"v": clips}, out, lenient=False, workers=1)
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
        summary = run_sft_pipeline(gateway, tasks, clips_by_video, out, lenient=False, workers=1)
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
        run_sft_pipeline(gateway, tasks, clips_by_video, out, lenient=False, workers=1)
        first = out.read_bytes()
        first_sidecar = (tmp_path / "sft.records.rejected").read_bytes()

        out.unlink()  # states survive; outputs are rebuilt from them
        gateway2, backend2 = counting_gateway(pairs)
        summary = run_sft_pipeline(gateway2, tasks, clips_by_video, out, lenient=False, workers=1)
        assert backend2.calls == 0
        assert summary["emitted"] == 1
        assert out.read_bytes() == first
        assert (tmp_path / "sft.records.rejected").read_bytes() == first_sidecar

    def test_edited_answer_restarts_only_that_sample(self, tmp_path):
        pairs, tasks, clips_by_video, out = self.two_sample_setup(tmp_path)
        gateway, _ = counting_gateway(pairs)
        run_sft_pipeline(gateway, tasks, clips_by_video, out, lenient=False, workers=1)
        sidecar = (tmp_path / "sft.records.rejected").read_bytes()

        edited_qa = make_qa("C")
        edited_tasks = [replace(tasks[0], qa=edited_qa), tasks[1]]
        # the backend answers only the edited sample's requests
        gateway2, backend2 = counting_gateway(full_script(clips_by_video["va"], edited_qa))
        summary = run_sft_pipeline(gateway2, edited_tasks, clips_by_video, out,
                                   lenient=False, workers=1)
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
            gateway = Gateway(backends={"mllm": backend, "llm": backend}, max_in_flight=4)
            run_sft_pipeline(gateway, tasks, clips_by_video, out, lenient=False, workers=1)
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
        summary = run_sft_pipeline(gateway, [task], {}, out, lenient=False, workers=1)
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
                build_gateway(config), tasks, clips_by_video, out, lenient=False, workers=workers
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
        summary = run_sft_pipeline(gateway, tasks[:1], clips_by_video, out, lenient=False, workers=2)
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
        cold = run_sft_pipeline(gateway, tasks, clips_by_video, out, lenient=False, workers=4)
        assert len(submitted) == len(tasks)
        dataset, sidecar = out.read_bytes(), Path(f"{out}.rejected").read_bytes()
        submitted.clear()
        assert run_sft_pipeline(gateway, tasks, clips_by_video, out, lenient=False, workers=4) == cold
        assert submitted == []
        assert (out.read_bytes(), Path(f"{out}.rejected").read_bytes()) == (dataset, sidecar)

    def test_each_line_is_written_as_its_sample_finishes(self, corpus, tmp_path, monkeypatch):
        paths = corpus.manifest["paths"]
        tasks, clips_by_video = load_qa_tasks(paths["qa"]), load_clips(paths["clips"])
        clean = tmp_path / "clean.records"
        run_sft_pipeline(one_try_gateway(MockBackend.from_file(paths["mock_table"])),
                         tasks, clips_by_video, clean, lenient=False, workers=1)
        last = tasks[-1]
        earlier = b"".join(line for line in clean.read_bytes().splitlines(keepends=True)
                           if json.loads(line)["id"] != last.sample_id)
        assert earlier.count(b"\n") > 1

        # line-buffered, so <out>.tmp shows each line as soon as it is written
        def line_buffered(file, mode="r", **kwargs):
            return open(file, mode, **({**kwargs, "buffering": 1} if mode == "w" else kwargs))

        monkeypatch.setattr(records, "open", line_buffered, raising=False)
        out = tmp_path / "sft.records"
        seen = []

        class LastSampleWaits:
            """At the last sample's first call, waits up to 10 s for every earlier line."""

            def __init__(self, inner):
                self.inner = inner

            def complete(self, request):
                first_of_last = request.media and request.media[0].startswith(f"{last.video_ref}#t=")
                if first_of_last and not seen:
                    tmp, deadline = Path(f"{out}.tmp"), time.monotonic() + 10.0
                    seen.append(None)
                    while time.monotonic() < deadline:
                        seen[0] = tmp.read_bytes() if tmp.exists() else None
                        if seen[0] == earlier:
                            break
                        time.sleep(0.01)
                return self.inner.complete(request)

        backend = LastSampleWaits(MockBackend.from_file(paths["mock_table"]))
        gateway = Gateway(backends={"mllm": backend, "llm": backend}, max_in_flight=1)
        run_sft_pipeline(gateway, tasks, clips_by_video, out, lenient=False, workers=1)
        assert seen == [earlier]
        assert out.read_bytes() == clean.read_bytes()

    def test_pool_drains_before_the_run_returns(self, corpus, tmp_path, monkeypatch):
        paths = corpus.manifest["paths"]
        tasks, clips_by_video = load_qa_tasks(paths["qa"]), load_clips(paths["clips"])
        out = tmp_path / "sft.records"
        run_sft_pipeline(one_try_gateway(MockBackend.from_file(paths["mock_table"])),
                         tasks, clips_by_video, out, lenient=False, workers=1)
        # only the second sample stays journalled, and writing its line fails;
        # every other sample is fresh, so the first runs before it is written
        # and the ones after it are in flight when it is
        journal = Path(f"{out}{JOURNAL_SUFFIX}")
        entries = {rec["sample_id"]: rec for rec in read_records(journal)}
        kept = entries[tasks[1].sample_id]
        assert kept["stage"] == "emitted"
        journal.write_text(json.dumps(kept) + "\n", encoding="utf-8")
        record = sft_pipeline.sft_record

        def sft_record_failing(task, rationale):
            if task.sample_id == tasks[1].sample_id:
                raise OSError("disk full")
            return record(task, rationale)

        monkeypatch.setattr(sft_pipeline, "sft_record", sft_record_failing)

        lock, calls = threading.Lock(), {"running": 0}

        class Slow:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, request):
                with lock:
                    calls["running"] += 1
                try:
                    time.sleep(0.05)
                    return self.inner.complete(request)
                finally:
                    with lock:
                        calls["running"] -= 1

        finished = []
        run_sample = sft_pipeline.process_sample

        def process_sample_noted(gateway, task, *args, **kwargs):
            outcome = run_sample(gateway, task, *args, **kwargs)
            finished.append(task.sample_id)
            return outcome

        monkeypatch.setattr(sft_pipeline, "process_sample", process_sample_noted)
        backend = Slow(MockBackend.from_file(paths["mock_table"]))
        gateway = Gateway(backends={"mllm": backend, "llm": backend}, max_in_flight=4)
        with pytest.raises(OSError, match="disk full"):
            run_sft_pipeline(gateway, tasks, clips_by_video, out, lenient=False, workers=4)
        # no model call is still running when the run raises
        assert calls["running"] == 0
        journalled = [rec["sample_id"] for rec in read_records(journal)]
        assert journalled[0] == tasks[1].sample_id
        assert sorted(journalled[1:]) == sorted(finished)
        assert 4 <= len(finished) < len(tasks) - 1

    def test_crash_cancels_queued_samples(self, corpus, tmp_path):
        paths = corpus.manifest["paths"]
        tasks = load_qa_tasks(paths["qa"])
        assert len(tasks) == 20
        backend = FailingBackend()
        gateway = Gateway(backends={"mllm": backend, "llm": backend}, max_in_flight=4)
        with pytest.raises(RuntimeError, match="backend crashed"):
            run_sft_pipeline(
                gateway, tasks, load_clips(paths["clips"]), tmp_path / "sft.records",
                lenient=False, workers=4,
            )
        # each sample fails on its first call, so calls count the samples started
        assert backend.calls < len(tasks)


def resume_run(inputs, out: Path, backend, workers: int = 1, attempts: int = 1) -> dict:
    """build-sft's report on the corpus `inputs`, every call answered by `backend`."""
    gateway = Gateway(backends={"mllm": backend, "llm": backend}, max_in_flight=4,
                      retry_max_attempts=attempts, sleep=lambda s: None)
    return run_sft_pipeline(gateway, inputs.tasks, inputs.clips_by_video, out,
                            lenient=False, workers=workers)


def run_outputs(out: Path) -> tuple[bytes, bytes, list[bytes]]:
    """The dataset, the rejections and the sorted journal lines of a run."""
    journal = sorted(Path(f"{out}{JOURNAL_SUFFIX}").read_bytes().splitlines())
    return out.read_bytes(), Path(f"{out}{REJECTED_SUFFIX}").read_bytes(), journal


class CleanRun(SimpleNamespace):
    def __repr__(self) -> str:  # hypothesis prints it with every falsifying example
        return f"CleanRun(<{len(self.tasks)}-sample corpus>)"


def clean_run(paths: dict) -> CleanRun:
    """The corpus's tasks, clips and mock table, each sample's distinct request
    digests in a run of it alone, and the report and outputs of a clean run.

    A sample makes a request it repeats (a one-clip compilation is its
    clip's caption) once, and in a mock corpus no two samples share a
    video, so no two share a request.
    """
    clean = CleanRun(tasks=load_qa_tasks(paths["qa"]), clips_by_video=load_clips(paths["clips"]),
                     table=MockBackend.from_file(paths["mock_table"]).table, calls={})
    for task in clean.tasks:
        backend = OutageBackend(MockBackend(clean.table))
        process_sample(one_try_gateway(backend), task, clean.clips_by_video.get(task.video_id),
                       lenient=False)
        clean.calls[task.sample_id] = Counter(set(map(request_digest, backend.requests)))
    clean.owner = {digest: sample_id for sample_id, calls in clean.calls.items() for digest in calls}
    assert len(clean.owner) == sum(map(len, clean.calls.values()))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sft.records"
        clean.report = resume_run(clean, out, MockBackend(clean.table))
        clean.outputs = run_outputs(out)
    return clean


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """clean_runs(size, seed): the CleanRun of the mock corpus of that size and seed, built once."""
    built = {}

    def get(size: int, seed: int) -> CleanRun:
        if (size, seed) not in built:
            corpus = synthesize_corpus(tmp_path_factory.mktemp("corpus"), size, seed, 8)
            built[size, seed] = clean_run(corpus["paths"])
        return built[size, seed]

    return get


def outputs_on_disk(*paths: Path) -> list[bytes | None]:
    return [path.read_bytes() if path.exists() else None for path in paths]


def unjournalled(clean: CleanRun, journal: Path) -> set[str]:
    """The samples of `clean` without a line in `journal`."""
    journalled = {rec["sample_id"] for rec in read_records(journal)} if journal.exists() else set()
    return {task.sample_id for task in clean.tasks} - journalled


class Fault(NamedTuple):
    """The faults of a run before a healthy one: calls failing in the windows [start, stop)
    of the run's call numbers, each call tried up to `attempts` times, and a crash once
    `crash_after` calls are made (taken modulo the calls the run is sure to make), or none."""

    windows: tuple[tuple[int, int], ...] = ()
    attempts: int = 1
    crash_after: int | None = None


def crash(calls: int):
    return st.integers(0, calls - 1).map(lambda k: Fault(crash_after=k))


def windows(stop: int, longest: int):
    """1 to 3 windows that start before `stop`, each at most `longest` calls long."""
    window = st.integers(0, stop - 1).flatmap(
        lambda start: st.tuples(st.just(start), st.integers(start + 1, start + longest)))
    return st.lists(window, min_size=1, max_size=3).map(tuple)


def outage(calls: int):
    return st.tuples(windows(calls, calls // 2), st.sampled_from([1, 2])).map(lambda t: Fault(*t))


def outage_then_crash(calls: int):
    """Windows that start before the crash; they are short, which leaves the run many calls
    it is sure to make, so the crash most often comes after them."""
    return st.integers(1, calls - 1).flatmap(lambda k: st.tuples(
        windows(k, 2), st.sampled_from([1, 2]), st.just(k)).map(lambda t: Fault(*t)))


def sure_calls(clean: CleanRun, unfinished: set[str], fault: Fault) -> int:
    """Calls that a run of the unfinished samples makes under the fault's outage, whatever
    the order of its calls: each sample makes its first call, and only a call that fails
    every attempt, each on a call number in a window, stops a sample before its last call."""
    needed = [n for sample_id in unfinished if (n := clean.calls[sample_id].total())]
    ended = sum(stop - start for start, stop in fault.windows) // fault.attempts
    return sum(needed) - sum(heapq.nlargest(ended, (n - 1 for n in needed)))


class TestResumeAfterFailure:
    """A rerun makes exactly the calls of the samples the failed runs left without an outcome."""

    def run_through(self, clean: CleanRun, workers: int, faults: list[Fault]) -> list[set[str]]:
        """Run the corpus into each fault in turn, then once on a healthy backend, and
        check every run; return the samples each run found without an outcome."""
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "sft.records"
            rejected, journal = Path(f"{out}{REJECTED_SUFFIX}"), Path(f"{out}{JOURNAL_SUFFIX}")
            unfinished_by_run = []
            for fault in [*faults, Fault()]:
                unfinished = unjournalled(clean, journal)
                needed = sum((clean.calls[sample_id] for sample_id in unfinished), Counter())
                if fault.crash_after is not None and not needed:
                    continue  # a run with no call to make cannot crash
                unfinished_by_run.append(unfinished)
                answered = OutageBackend(MockBackend(clean.table), *fault.windows)
                if fault.crash_after is not None:
                    before = outputs_on_disk(out, rejected)
                    crash_after = fault.crash_after % sure_calls(clean, unfinished, fault)
                    with pytest.raises(RuntimeError, match="simulated crash"):
                        resume_run(clean, out, CrashingBackend(answered, crash_after), workers,
                                   fault.attempts)
                    # each output is absent or the whole file a finished run wrote
                    assert outputs_on_disk(out, rejected) == before
                    assert list(Path(tmp).glob(f"*{STAGED_SUFFIX}")) == []
                    assert not journal.exists() or journal.read_bytes().endswith(b"\n")
                else:
                    report = resume_run(clean, out, answered, workers, fault.attempts)
                # a journalled sample makes no call
                assert {clean.owner[request_digest(r)] for r in answered.requests} <= unfinished
                if fault.windows and fault.crash_after is None:
                    # the samples left to rerun are the ones rejected as *_failed
                    failed = {r["id"] for r in read_records(rejected) if r["reason"].endswith("_failed")}
                    assert sum(n for reason, n in report["rejection_reasons"].items()
                               if reason.endswith("_failed")) == len(failed)
                    assert failed == unjournalled(clean, journal)
            assert Counter(map(request_digest, answered.requests)) == needed
            assert report == clean.report
            assert run_outputs(out) == clean.outputs
        return unfinished_by_run

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(size=st.integers(3, 20), seed=st.integers(0, 9), workers=st.sampled_from([1, 2, 4]),
           data=st.data())
    def test_rerun_calls_only_unfinished_samples(self, clean_runs, size, seed, workers, data):
        clean = clean_runs(size, seed)
        calls = sum(sum(c.values()) for c in clean.calls.values())
        kind = data.draw(st.sampled_from([crash, outage, outage_then_crash]), label="first run")
        first = data.draw(kind(calls), label="its fault")
        resume = data.draw(crash(calls), label="resume")
        self.run_through(clean, workers, [first, resume])

    @pytest.mark.parametrize("workers,crash_after", [(1, 40), (1, 101), (4, 40), (4, 101)])
    def test_crash_then_resume_calls_only_unfinished_samples(self, clean_runs, workers, crash_after):
        clean = clean_runs(20, 7)
        _, unfinished = self.run_through(clean, workers, [Fault(crash_after=crash_after)])
        assert 0 < len(unfinished) < len(clean.tasks)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_backend_outage_is_retried_by_the_next_run(self, clean_runs, workers):
        _, unfinished = self.run_through(clean_runs(20, 7), workers, [Fault(((30, 120),))])
        assert unfinished


class TestOncePerSample:
    """A sample makes each distinct request once."""

    def test_one_clip_compilation_costs_no_call(self, tmp_path):
        clips, task = make_clips(4), make_task()
        chain = layer_compilations(backtrack(build_tree(4), [1]))
        assert [c.clip_indices for c in chain] == [(0, 1, 2, 3), (0, 1), (1,)]
        pairs = full_script(clips, task.qa, selected=(1,))
        report, calls = run_alone(pairs, task, clips, tmp_path / "sft.records")
        assert report["emitted"] == 1
        # 4 clip captions, the selection, 2 of the 3 cue captions, filter, rationale
        assert calls == 9 == len({request_digest(r) for r, _ in pairs})


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

    def test_keeps_only_the_span(self, tmp_path):
        path = tmp_path / "clips.records"
        spans = make_clips(3)
        write_records(path, [
            {**c.to_record(), "embedding": [0.5 + i] * 512, "caption": f"caption {i}"}
            for i, c in enumerate(spans)
        ])
        clips = load_clips(path)["v"]
        assert clips == spans
        assert all(c.embedding is None and c.caption is None for c in clips)

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
        max_in_flight=4,
        retry_max_attempts=2, retry_base_delay_s=0.0,
        sleep=lambda s: None,
    )
    summary = run_sft_pipeline(gateway, [make_task()], {"v": make_clips(3)}, tmp_path / "sft.records",
                               lenient=False, workers=1)
    assert summary["rejection_reasons"] == {"caption_failed": 1}
