"""Build the rationale-bearing SFT dataset, stage by stage.

Per sample: caption every clip, ask the LLM which clips matter, caption
each compilation of the coarse-to-fine chain derived from that selection,
screen the final cue for answerability, and summarize the chain into a
step-style rationale.  A sample that fails a stage is rejected with a reason
instead of aborting the run.  Each sample's outcome, the rationale or the
rejection, is appended to the run's journal, so a rerun makes no backend
call for a finished sample; a sample in flight at a crash starts over, and
one rejected for a backend failure is retried.  The training record is
rendered from the journalled rationale where it is used.

Each caption request names the video by its QA record's `video_ref` and the
span it shows as a temporal media fragment, so a request is fully
determined by what it asks for, and a sample makes each distinct request
once.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import Counter
from contextlib import closing
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from typing import Sequence

from .cue_tree import Compilation, backtrack, layer_compilations
from .errors import (
    EmptyCaptionError,
    EmptyRationaleError,
    EmptySelectionError,
    GatewayError,
    ParseError,
    RangeError,
    RecordError,
    ReservedTagError,
    StepCountMismatchError,
)
from .gateway import ChatRequest, Gateway, ordered_map
from .records import (
    Clip,
    QaPair,
    QaTask,
    SftSample,
    check_rationale,
    check_record,
    default_video_ref,
    dump_record,
    json_encoder,
    parse_records,
    render_target,
    write_records,
)
from .templates import (
    TASK_INSTRUCTIONS,
    TEMPLATES,
    parse_index_array,
    parse_yes_no,
    render_train_infer,
    step_numbers,
    strip_step_markers,
)

CAPTION_MAX_TOKENS = 512
SELECTION_MAX_TOKENS = 64
FILTER_MAX_TOKENS = 8
RATIONALE_MAX_TOKENS = 512

# The two files build-sft writes next to its dataset `<out>`.
REJECTED_SUFFIX = ".rejected"
JOURNAL_SUFFIX = ".journal"

# Captioning has no prompt box to reproduce; the media references carry what
# is shown, so one fixed instruction suffices.
DESCRIBE_PROMPT = "Describe this video clip in detail."


# --- request builders, shared with the mock-corpus generator ---


def _npt(seconds: float) -> str:
    """`seconds` as a media fragment's npt-sec: repr's digits, but no exponent or signed zero."""
    text = repr(seconds + 0.0)  # -0.0 + 0.0 is 0.0
    if "e" in text:  # repr writes times below 1e-4, and from 1e16 on, with an exponent
        text = f"{Decimal(text):f}"
    return text if "." in text else f"{text}.0"


def caption_request(video_ref: str, clips: Sequence[Clip]) -> ChatRequest:
    """Describe `clips`, in order: one W3C temporal media fragment,
    `<video_ref>#t=<start_s>,<end_s>` in plain decimals, per run of touching
    clips (each starts where the one before ends).  One clip is one fragment."""
    runs: list[list[float]] = []
    for clip in clips:
        if runs and runs[-1][1] == clip.start_s:
            runs[-1][1] = clip.end_s
        else:
            runs.append([clip.start_s, clip.end_s])
    media = tuple(f"{video_ref}#t={_npt(start_s)},{_npt(end_s)}" for start_s, end_s in runs)
    return ChatRequest("mllm", DESCRIBE_PROMPT, media=media, max_tokens=CAPTION_MAX_TOKENS)


def clip_descriptions_json(clips: Sequence[Clip], qa: QaPair) -> str:
    """The structured object the selection prompt's guidelines describe."""
    return dump_record(
        {
            "num_clips": len(clips),
            "clips": [{"index": c.index, "description": c.caption} for c in clips],
            "question": qa.formatted_question(),
            "answer": qa.answer,
        }
    )


def selection_request(clips: Sequence[Clip], qa: QaPair) -> ChatRequest:
    prompt = TEMPLATES["key_clip_selection"].format_map(
        {
            "Video Clip Descriptions": clip_descriptions_json(clips, qa),
            "Question": qa.formatted_question(),
            "Answer": qa.answer,
        }
    )
    return ChatRequest("llm", prompt, max_tokens=SELECTION_MAX_TOKENS)


def filter_request(final_cue: str, qa: QaPair) -> ChatRequest:
    prompt = TEMPLATES["low_quality_filter"].format_map(
        {"Question": qa.formatted_question(), "Answer": qa.answer, "Cues": final_cue}
    )
    return ChatRequest("llm", prompt, max_tokens=FILTER_MAX_TOKENS)


def linearize_trajectory(cues: Sequence[str]) -> str:
    """One line per localization step, coarsest compilation first."""
    return "\n".join(f"Step {i}: {cue}" for i, cue in enumerate(cues, 1))


def rationale_request(cues: Sequence[str], qa: QaPair) -> ChatRequest:
    prompt = TEMPLATES["rationale_generation"].format_map(
        {
            "Question": qa.formatted_question(),
            "Answer": qa.answer,
            "Reasoning Trajectory": linearize_trajectory(cues),
        }
    )
    return ChatRequest("llm", prompt, max_tokens=RATIONALE_MAX_TOKENS)


# --- per-sample outcomes and their journal ---


_sorted_json = json_encoder(sort_keys=True)  # json.dumps(obj, sort_keys=True)

# Prompt text and request limits shared by every sample, hashed once;
# sample_digest extends a copy with one sample's own inputs.
_PROMPTS_DIGEST = hashlib.sha256(
    _sorted_json(
        [
            DESCRIBE_PROMPT,
            list(TEMPLATES.values()),
            TASK_INSTRUCTIONS,
            [CAPTION_MAX_TOKENS, SELECTION_MAX_TOKENS, FILTER_MAX_TOKENS, RATIONALE_MAX_TOKENS],
        ]
    ).encode("ascii")
)


def sample_digest(task: QaTask, clips: Sequence[Clip] | None, lenient: bool) -> str:
    """Fingerprint of everything that shapes one sample's requests and parsing."""
    inputs = {
        "qa": task.qa.to_record(),
        "video_ref": task.video_ref,
        "spans": [[clip.start_s, clip.end_s] for clip in clips or ()],
        "lenient": lenient,
    }
    digest = _PROMPTS_DIGEST.copy()
    digest.update(_sorted_json(inputs).encode("ascii"))
    return digest.hexdigest()


class Journal:
    """Append-only JSONL log of sample outcomes, one line per finished sample.

    Read once, on construction: a torn last line (left by a crash) is
    truncated away, and the rest goes through the shared record reader.
    Checkpoint lines of earlier versions are skipped.  A rejection for a
    backend failure is neither appended nor read: the next run retries
    it.  Another stage, a rationale breaking check_rationale's rule, or a
    reason not in REASONS is a RecordError naming its line.  Appends are
    serialized, and each opens the file, writes its whole line and closes
    it; the first creates the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.invalidated = 0  # resumes refused because the sample's inputs changed
        self._outcomes: dict[str, tuple[str, str, dict]] = {}  # sample id -> (digest, stage, payload)
        self._lock = threading.Lock()
        self._replay()

    def _replay(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                end = fh.seek(0, os.SEEK_END)
                if end:
                    fh.seek(end - 1)
                    if fh.read(1) != b"\n":
                        fh.seek(0)
                        os.truncate(self.path, fh.read().rfind(b"\n") + 1)
        except FileNotFoundError:
            return
        for _ in parse_records(self.path, self._read):
            pass

    def _read(self, entry: dict) -> None:
        """Keep the outcome one journal line holds."""
        check_record(entry, "journal")
        stage, payload = entry["stage"], entry["payload"]
        if stage in _CHECKPOINT_STAGES:
            return
        if stage not in ("emitted", "rejected"):
            raise ValueError(f"unknown stage {stage!r}")
        check_record(payload, f"{stage} payload")
        if stage == "emitted":
            check_rationale(payload["rationale"])
        elif payload["reason"] not in REASONS:
            raise ValueError(f"unknown rejection reason {payload['reason']!r}")
        if payload.get("reason") not in _RETRIED_REASONS:
            self._outcomes[entry["sample_id"]] = (entry["digest"], stage, payload)

    def resume(self, sample_id: str, digest: str) -> tuple[str, dict] | None:
        """The sample's journalled (stage, payload); None if absent or from other inputs."""
        known = self._outcomes.get(sample_id)
        if known is not None and known[0] != digest:
            self.invalidated += 1
            return None
        return None if known is None else known[1:]

    def append(self, sample_id: str, digest: str, stage: str, payload: dict) -> None:
        """Journal a sample's outcome; resume still answers from what was read."""
        if payload.get("reason") in _RETRIED_REASONS:
            return
        line = dump_record({"sample_id": sample_id, "digest": digest, "stage": stage,
                            "payload": payload})
        with self._lock, open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


# --- stage operations ---


def _describe(gateway: Gateway, request: ChatRequest, what: str) -> str:
    """The stripped caption the mllm role gives for one describe request."""
    caption = gateway.complete(request).strip()
    if not caption:
        raise EmptyCaptionError(f"empty caption for {what}")
    return caption


def _video_ref(video_ref: str | None, clips: Sequence[Clip]) -> str:
    """video_ref, or the ref a QA record without one gets for the clips' video."""
    return default_video_ref(clips[0].video_id) if video_ref is None else video_ref


def caption_clips(
    gateway: Gateway, clips: Sequence[Clip], video_ref: str | None = None
) -> list[Clip]:
    """Fill every clip's caption via the mllm role; order preserved."""
    video_ref = _video_ref(video_ref, clips)
    return [
        replace(c, caption=_describe(gateway, caption_request(video_ref, [c]), f"clip {c.index}"))
        for c in clips
    ]


def caption_compilations(
    gateway: Gateway,
    compilations: Sequence[Compilation],
    clips: Sequence[Clip],
    video_ref: str | None = None,
) -> list[Compilation]:
    """Fill captions for every chain element; these are the ordered visual cues.

    A one-clip compilation takes the caption its clip carries, with no call;
    one whose clip has no caption is described like any other.
    """
    video_ref = _video_ref(video_ref, clips)

    def caption(c: Compilation) -> str:
        own = clips[c.clip_indices[0]].caption if len(c.clip_indices) == 1 else None
        return own or _describe(
            gateway, caption_request(video_ref, [clips[i] for i in c.clip_indices]),
            f"compilation {c.clip_indices}",
        )

    return [replace(c, caption=caption(c)) for c in compilations]


def summarize_rationale(gateway: Gateway, cues: Sequence[str], qa: QaPair) -> str:
    """Summarize the trajectory; returns the rationale with its step markers stripped.

    The reply must carry exactly one step marker per cue, in ascending
    order, before the markers are stripped; what is left must keep
    check_rationale's rule.
    """
    reply = gateway.complete(rationale_request(cues, qa))
    if not reply.strip():
        raise EmptyRationaleError("rationale reply is empty")
    numbers = step_numbers(reply)
    ascending = all(b > a for a, b in zip(numbers, numbers[1:]))
    if len(numbers) != len(cues) or not ascending:
        raise StepCountMismatchError(
            f"expected {len(cues)} ascending step markers, found {numbers}"
        )
    rationale = strip_step_markers(reply)
    check_rationale(rationale)
    return rationale


# --- orchestration ---


def sft_record(task: QaTask, rationale: str) -> dict:
    """The dataset line of an emitted sample."""
    question = task.qa.formatted_question()
    return SftSample(
        id=task.sample_id,
        video_id=task.video_id,
        question=question,
        answer=task.qa.answer,
        rationale=rationale,
        prompt=render_train_infer(question, task.qa.qa_type),
        target=render_target(rationale, task.qa.answer),
    ).to_record()


# Per step, in order, the rejection reason for each exception type the step
# may raise.  Any other exception aborts the run, and the samples in flight
# start over on the next one.
REJECTION_REASONS: dict[str, dict[type, str]] = {
    "caption": {EmptyCaptionError: "empty_caption", GatewayError: "caption_failed"},
    "select": {
        ParseError: "selection_unparseable",
        RangeError: "selection_out_of_range",
        EmptySelectionError: "selection_empty",
        GatewayError: "selection_failed",
    },
    "caption_cues": {EmptyCaptionError: "empty_caption", GatewayError: "cue_caption_failed"},
    "filter": {ParseError: "filter_unparseable", GatewayError: "filter_failed"},
    "summarize": {
        StepCountMismatchError: "step_count_mismatch",
        EmptyRationaleError: "empty_rationale",
        ReservedTagError: "reserved_tag",
        GatewayError: "rationale_failed",
    },
}
# Every reason a sample is rejected for: it has no clips, its final cue is
# judged insufficient, or a step rejects it.
REASONS = frozenset(
    {"missing_clips", "insufficient_cues", *(r for row in REJECTION_REASONS.values() for r in row.values())}
)
# The reasons for a backend failure: rejected in this run, retried by the next.
_RETRIED_REASONS = frozenset(reasons[GatewayError] for reasons in REJECTION_REASONS.values())
# The stages short of an outcome that journals of earlier versions also hold.
_CHECKPOINT_STAGES = ("captioned", "selected", "cue_captioned", "filtered")


def process_sample(
    gateway: Gateway, task: QaTask, clips: Sequence[Clip] | None, *, lenient: bool
) -> tuple[str, dict]:
    """Run every step of one sample: ("emitted", {"rationale"}) or
    ("rejected", {"reason", "detail"}).  The journal is left to the caller."""
    if not clips:
        return "rejected", {"reason": "missing_clips", "detail": f"no clips for video {task.video_id}"}
    step = "caption"  # the running step: the except clause below reads its row
    try:
        captioned = caption_clips(gateway, clips, task.video_ref)
        step = "select"
        reply = gateway.complete(selection_request(captioned, task.qa))
        selected = parse_index_array(reply, lenient=lenient)
        chain = layer_compilations(backtrack(len(clips), selected))
        step = "caption_cues"
        cues = [c.caption for c in caption_compilations(gateway, chain, captioned, task.video_ref)]
        step = "filter"
        if not parse_yes_no(gateway.complete(filter_request(cues[-1], task.qa))):
            return "rejected", {"reason": "insufficient_cues", "detail": "final cue judged insufficient"}
        step = "summarize"
        rationale = summarize_rationale(gateway, cues, task.qa)
    except tuple(REJECTION_REASONS[step]) as exc:
        reason = next(r for kind, r in REJECTION_REASONS[step].items() if isinstance(exc, kind))
        return "rejected", {"reason": reason, "detail": str(exc)}
    return "emitted", {"rationale": rationale}


def _clip_span(rec: dict) -> Clip:
    """A checked clip record's span: build-sft captions clips itself and reads no embedding."""
    check_record(rec, "clip")
    return Clip(rec["video_id"], rec["index"], float(rec["start_s"]), float(rec["end_s"]))


def load_clips(path: str | Path) -> dict[str, list[Clip]]:
    """Group a clip record file by video, each video's clips sorted by index.

    Every key is checked, but a clip keeps only its span.  A video's indices
    must be exactly 0..N-1, and each clip must start no earlier than the
    clip before it ends.  A broken run is a RecordError naming its first
    breaking clip's line; a gap is found before an overlap.
    """
    by_video: dict[str, list[tuple[int, Clip]]] = {}
    for line_no, clip in parse_records(path, _clip_span):
        by_video.setdefault(clip.video_id, []).append((line_no, clip))
    clips_by_video = {}
    for video_id, numbered in by_video.items():
        numbered.sort(key=lambda pair: pair[1].index)
        clips = [clip for _, clip in numbered]
        indices = [clip.index for clip in clips]
        gap = next((pos for pos, index in enumerate(indices) if index != pos), None)
        if gap is not None:
            raise RecordError(
                f"{path}:{numbered[gap][0]}: video {video_id!r}: "
                f"clip indices are not contiguous 0..{len(clips) - 1}: {indices}"
            )
        for pos, (prev, nxt) in enumerate(zip(clips, clips[1:]), 1):
            if nxt.start_s < prev.end_s:
                raise RecordError(
                    f"{path}:{numbered[pos][0]}: video {video_id!r}: clip {nxt.index} "
                    f"starts at {nxt.start_s} before clip {prev.index} ends at {prev.end_s}"
                )
        clips_by_video[video_id] = clips
    return clips_by_video


def run_sft_pipeline(
    gateway: Gateway,
    tasks: Sequence[QaTask],
    clips_by_video: dict[str, list[Clip]],
    out_path: str | Path,
    *,
    lenient: bool,
    workers: int,
) -> dict:
    """Process every task; write the dataset, the rejection sidecar, and a report.

    Up to `workers` samples are in flight at once.  Each outcome is
    appended to `<out>.journal` as its sample finishes; the dataset and
    sidecar are rendered from the outcomes on every run, so a resumed run
    produces the same bytes as a clean one.  Each dataset line is written
    as its sample finishes, in task order, and the rejections after the
    last of them; each file still appears only once complete.  However the
    write ends, the samples running finish and are journalled, and the
    queued ones are cancelled, before the run returns.  A sample whose
    inputs changed since it was journalled restarts and is counted as
    invalidated.
    """
    out = Path(out_path)
    journal = Journal(f"{out}{JOURNAL_SUFFIX}")

    def run_one(pending: tuple[QaTask, str]) -> tuple[str, dict]:
        """Run a sample and journal its outcome."""
        task, digest = pending
        stage, payload = process_sample(gateway, task, clips_by_video.get(task.video_id),
                                        lenient=lenient)
        journal.append(task.sample_id, digest, stage, payload)
        return stage, payload

    # A journalled outcome is read on this thread; only the other samples go to the pool.
    known, todo = [], []
    for task in tasks:
        digest = sample_digest(task, clips_by_video.get(task.video_id), lenient)
        outcome = journal.resume(task.sample_id, digest)
        known.append(outcome)
        if outcome is None:
            todo.append((task, digest))
    fresh = ordered_map(run_one, todo, workers)
    outcomes = (next(fresh) if outcome is None else outcome for outcome in known)
    rejections = []

    def dataset():
        """The dataset lines in task order; the rejections are kept as they pass."""
        for task, (stage, payload) in zip(tasks, outcomes):
            if stage != "emitted":
                rejections.append(
                    {"id": task.sample_id, "reason": payload["reason"], "detail": payload["detail"]}
                )
                continue
            yield sft_record(task, payload["rationale"])

    with closing(fresh):  # the running samples finish and are journalled before the run returns
        emitted = write_records(out, dataset())
    write_records(f"{out}{REJECTED_SUFFIX}", rejections)
    reasons = Counter(r["reason"] for r in rejections)
    return {
        "total": len(tasks),
        "emitted": emitted,
        "rejected": len(rejections),
        "invalidated": journal.invalidated,
        "rejection_reasons": dict(sorted(reasons.items())),
    }
