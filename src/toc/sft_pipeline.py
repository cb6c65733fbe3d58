"""Build the rationale-bearing SFT dataset, stage by stage.

Per sample: caption every clip, ask the LLM which clips matter, derive the
coarse-to-fine compilation chain, caption each compilation, screen the final
cue for answerability, summarize the chain into a step-style rationale, and
emit the training record.  Every stage checkpoint is appended to the run's
journal, so an interrupted run resumes without repeating backend calls, and
a sample that fails a stage is parked with a rejection reason instead of
aborting the run.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .cue_tree import Compilation, backtrack, build_tree, layer_compilations
from .errors import (
    EmptyCaptionError,
    EmptyRationaleError,
    EmptySelectionError,
    GatewayError,
    InsufficientCuesError,
    OutOfRangeError,
    ParseError,
    RecordError,
    ReservedTagError,
    StepCountMismatchError,
)
from .gateway import ChatRequest, Gateway
from .records import (
    TARGET_TAGS,
    Clip,
    QaPair,
    QaTask,
    SftSample,
    check_record,
    parse_records,
    validate_clip_sequence,
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
    substitute,
)

CAPTION_MAX_TOKENS = 512
SELECTION_MAX_TOKENS = 64
FILTER_MAX_TOKENS = 8
RATIONALE_MAX_TOKENS = 512

# Captioning has no prompt box to reproduce; the media reference carries the
# clip identity, so one fixed instruction suffices.
DESCRIBE_PROMPT = "Describe this video clip in detail."


# --- request builders, shared with the mock-corpus generator ---


def clip_media_ref(clip: Clip) -> str:
    return f"{clip.video_id}#clip{clip.index}"


def compilation_media_ref(video_id: str, compilation: Compilation) -> str:
    joined = "-".join(str(i) for i in compilation.clip_indices)
    return f"{video_id}#comp{joined}"


def clip_caption_request(clip: Clip) -> ChatRequest:
    return ChatRequest(
        "mllm", DESCRIBE_PROMPT, media=(clip_media_ref(clip),), max_tokens=CAPTION_MAX_TOKENS
    )


def compilation_caption_request(video_id: str, compilation: Compilation) -> ChatRequest:
    return ChatRequest(
        "mllm",
        DESCRIBE_PROMPT,
        media=(compilation_media_ref(video_id, compilation),),
        max_tokens=CAPTION_MAX_TOKENS,
    )


def clip_descriptions_json(clips: Sequence[Clip], qa: QaPair) -> str:
    """The structured object the selection prompt's guidelines describe."""
    return json.dumps(
        {
            "num_clips": len(clips),
            "clips": [{"index": c.index, "description": c.caption} for c in clips],
            "question": qa.formatted_question(),
            "answer": qa.answer,
        },
        ensure_ascii=False,
    )


def selection_request(clips: Sequence[Clip], qa: QaPair) -> ChatRequest:
    prompt = substitute(
        TEMPLATES["key_clip_selection"],
        {
            "Video Clip Descriptions": clip_descriptions_json(clips, qa),
            "Question": qa.formatted_question(),
            "Answer": qa.answer,
        },
    )
    return ChatRequest("llm", prompt, max_tokens=SELECTION_MAX_TOKENS)


def filter_request(final_cue: str, qa: QaPair) -> ChatRequest:
    prompt = substitute(
        TEMPLATES["low_quality_filter"],
        {"Question": qa.formatted_question(), "Answer": qa.answer, "Cues": final_cue},
    )
    return ChatRequest("llm", prompt, max_tokens=FILTER_MAX_TOKENS)


def linearize_trajectory(cues: Sequence[str]) -> str:
    """One line per localization step, coarsest compilation first."""
    return "\n".join(f"Step {i}: {cue}" for i, cue in enumerate(cues, 1))


def rationale_request(cues: Sequence[str], qa: QaPair) -> ChatRequest:
    prompt = substitute(
        TEMPLATES["rationale_generation"],
        {
            "Question": qa.formatted_question(),
            "Answer": qa.answer,
            "Reasoning Trajectory": linearize_trajectory(cues),
        },
    )
    return ChatRequest("llm", prompt, max_tokens=RATIONALE_MAX_TOKENS)


# --- per-sample state and its journal ---


@dataclass(frozen=True)
class PipelineState:
    """Where one sample stands; payload accumulates stage outputs.

    stage is None before the first checkpoint, then a STAGES entry or
    "rejected".  digest fingerprints the inputs the state was computed from;
    a state is only resumed for a sample whose inputs still hash to it.
    """

    sample_id: str
    stage: str | None
    payload: dict
    digest: str = ""


# Prompt text and request limits shared by every sample, hashed once;
# sample_digest extends a copy with one sample's own inputs.
_PROMPTS_DIGEST = hashlib.sha256(
    json.dumps(
        [
            DESCRIBE_PROMPT,
            list(TEMPLATES.values()),
            TASK_INSTRUCTIONS,
            [CAPTION_MAX_TOKENS, SELECTION_MAX_TOKENS, FILTER_MAX_TOKENS, RATIONALE_MAX_TOKENS],
        ],
        sort_keys=True,
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
    digest.update(json.dumps(inputs, sort_keys=True).encode("ascii"))
    return digest.hexdigest()


class Journal:
    """Append-only JSONL log of stage transitions; the resume state of a run.

    Each line holds a sample id, its input digest, the stage reached and
    that stage's payload additions; a rejection is a "rejected" line whose
    payload holds the reason and detail.  The file is read once, on
    construction: a torn last line (no trailing newline, left by a crash) is
    truncated away before anything is appended, and a sample's lines are
    merged back into its state.  Appends are serialized, and each one is
    flushed by closing the file, so the file stays usable after a crash at
    any point.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.invalidated: set[str] = set()
        self._states: dict[str, PipelineState] = {}
        self._lock = threading.Lock()
        self._replay()

    def _replay(self) -> None:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        end = data.rfind(b"\n") + 1
        if end < len(data):
            with open(self.path, "r+b") as fh:
                fh.truncate(end)
        for line_no, line in enumerate(data[:end].splitlines(), 1):
            try:
                entry = json.loads(line)
                check_record(entry, "journal")
                sample_id, digest, stage = entry["sample_id"], entry["digest"], entry["stage"]
                if stage not in STAGES and stage != "rejected":
                    raise ValueError(f"unknown stage {stage!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise RecordError(f"{self.path}:{line_no}: invalid journal line: {exc}") from None
            known = self._states.get(sample_id)
            payload = known.payload if known is not None and known.digest == digest else {}
            payload.update(entry["payload"])
            self._states[sample_id] = PipelineState(sample_id, stage, payload, digest)

    def resume(self, sample_id: str, digest: str) -> PipelineState:
        """The sample's journalled state; a fresh one if absent or from other inputs."""
        with self._lock:
            known = self._states.get(sample_id)
            if known is not None and known.digest == digest:
                return known
            if known is not None:
                self.invalidated.add(sample_id)
        return PipelineState(sample_id, None, {}, digest)

    def advance(self, state: PipelineState, stage: str, updates: dict) -> PipelineState:
        """Move a sample to `stage` with the step's payload additions."""
        entry = {"sample_id": state.sample_id, "digest": state.digest, "stage": stage}
        line = json.dumps({**entry, "payload": updates})
        state = replace(state, stage=stage, payload={**state.payload, **updates})
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self._states[state.sample_id] = state
        return state


# --- stage operations ---


def caption_clips(gateway: Gateway, clips: Sequence[Clip]) -> list[Clip]:
    """Fill every clip's caption via the mllm role; order preserved."""

    def one(clip: Clip) -> Clip:
        caption = gateway.complete(clip_caption_request(clip)).strip()
        if not caption:
            raise EmptyCaptionError(f"empty caption for clip {clip.index}")
        return replace(clip, caption=caption)

    return [one(c) for c in clips]


def select_key_clips(
    gateway: Gateway, clips: Sequence[Clip], qa: QaPair, *, lenient: bool = False
) -> list[int]:
    """Ask which captioned clips are essential; returns sorted valid indices."""
    reply = gateway.complete(selection_request(clips, qa))
    indices = parse_index_array(reply, lenient=lenient)
    if not indices:
        raise EmptySelectionError("selection reply is an empty array")
    for idx in indices:
        if not 0 <= idx < len(clips):
            raise OutOfRangeError(f"selected clip {idx} outside [0, {len(clips) - 1}]")
    return indices


def caption_compilations(
    gateway: Gateway, compilations: Sequence[Compilation], clips: Sequence[Clip]
) -> list[Compilation]:
    """Fill captions for every chain element; these are the ordered visual cues."""
    video_id = clips[0].video_id

    def one(compilation: Compilation) -> Compilation:
        caption = gateway.complete(
            compilation_caption_request(video_id, compilation)
        ).strip()
        if not caption:
            raise EmptyCaptionError(
                f"empty caption for compilation {compilation.clip_indices}"
            )
        return replace(compilation, caption=caption)

    return [one(c) for c in compilations]


def filter_low_quality(gateway: Gateway, final_cue: str, qa: QaPair) -> bool:
    """True when the final cue suffices to answer the question."""
    return parse_yes_no(gateway.complete(filter_request(final_cue, qa)))


def summarize_rationale(
    gateway: Gateway, cues: Sequence[str], qa: QaPair
) -> tuple[str, str]:
    """Summarize the trajectory; returns (marker-stripped rationale, raw reply).

    The raw reply must carry exactly one step marker per cue, in ascending
    order, before the markers are stripped; what is left must be non-empty
    and hold none of the target's block tags.
    """
    if not cues:
        raise ValueError("no cue descriptions to summarize")
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
    if not rationale.strip():
        raise EmptyRationaleError("rationale is empty once its step markers are stripped")
    tags = [tag for tag in TARGET_TAGS if tag in rationale]
    if tags:
        raise ReservedTagError(f"rationale holds target tags {tags}")
    return rationale, reply


# --- orchestration ---


class _Sample(NamedTuple):
    """One sample's inputs; each step maps the payload so far to its additions."""

    gateway: Gateway
    task: QaTask
    clips: Sequence[Clip]
    lenient: bool

    def caption(self, payload: dict) -> dict:
        return {"captions": [c.caption for c in caption_clips(self.gateway, self.clips)]}

    def select(self, payload: dict) -> dict:
        clips = [replace(c, caption=cap) for c, cap in zip(self.clips, payload["captions"])]
        qa = self.task.qa
        return {"selected": select_key_clips(self.gateway, clips, qa, lenient=self.lenient)}

    def compile(self, payload: dict) -> dict:
        subtree = backtrack(build_tree(len(self.clips)), payload["selected"])
        return {"chain": [list(c.clip_indices) for c in layer_compilations(subtree)]}

    def caption_cues(self, payload: dict) -> dict:
        chain = [Compilation(clip_indices=tuple(ix)) for ix in payload["chain"]]
        return {"cues": [c.caption for c in caption_compilations(self.gateway, chain, self.clips)]}

    def filter(self, payload: dict) -> dict:
        if not filter_low_quality(self.gateway, payload["cues"][-1], self.task.qa):
            raise InsufficientCuesError("final cue judged insufficient")
        return {"keep": True}

    def summarize(self, payload: dict) -> dict:
        rationale, raw_reply = summarize_rationale(self.gateway, payload["cues"], self.task.qa)
        return {"rationale": rationale, "raw_rationale": raw_reply}

    def emit(self, payload: dict) -> dict:
        task, question = self.task, self.task.qa.formatted_question()
        sample = SftSample.build(
            id=task.sample_id,
            video_id=task.video_id,
            question=question,
            answer=task.qa.answer,
            rationale=payload["rationale"],
            prompt=render_train_infer(question, task.qa.qa_type),
        )
        return {"record": sample.to_record()}


# One row per stage, in checkpoint order: the step that reaches the stage, and
# the rejection reason for each exception type the step may raise.  Any other
# exception aborts the run with the sample parked at its last checkpoint.
STAGE_TABLE: dict[str, tuple[Callable[[_Sample, dict], dict], dict[type, str]]] = {
    "captioned": (
        _Sample.caption, {EmptyCaptionError: "empty_caption", GatewayError: "caption_failed"}
    ),
    "selected": (
        _Sample.select,
        {
            ParseError: "selection_unparseable",
            OutOfRangeError: "selection_out_of_range",
            EmptySelectionError: "selection_empty",
            GatewayError: "selection_failed",
        },
    ),
    "compiled": (_Sample.compile, {}),
    "cue_captioned": (
        _Sample.caption_cues,
        {EmptyCaptionError: "empty_caption", GatewayError: "cue_caption_failed"},
    ),
    "filtered": (
        _Sample.filter,
        {
            ParseError: "filter_unparseable",
            GatewayError: "filter_failed",
            InsufficientCuesError: "insufficient_cues",
        },
    ),
    "summarized": (
        _Sample.summarize,
        {
            StepCountMismatchError: "step_count_mismatch",
            EmptyRationaleError: "empty_rationale",
            ReservedTagError: "reserved_tag",
            GatewayError: "rationale_failed",
        },
    ),
    "emitted": (_Sample.emit, {}),
}
STAGES = tuple(STAGE_TABLE)


def process_sample(
    gateway: Gateway,
    task: QaTask,
    clips: Sequence[Clip] | None,
    journal: Journal,
    *,
    lenient: bool = False,
) -> PipelineState:
    """Walk one sample from its journalled stage to "emitted" or "rejected"."""
    state = journal.resume(task.sample_id, sample_digest(task, clips, lenient))
    if state.stage in ("emitted", "rejected"):
        return state
    if not clips:
        detail = f"no clips for video {task.video_id}"
        return journal.advance(state, "rejected", {"reason": "missing_clips", "detail": detail})
    sample = _Sample(gateway, task, clips, lenient)
    todo = STAGES if state.stage is None else STAGES[STAGES.index(state.stage) + 1:]
    for stage in todo:
        step, reasons = STAGE_TABLE[stage]
        try:
            updates = step(sample, state.payload)
        except tuple(reasons) as exc:
            reason = next(r for kind, r in reasons.items() if isinstance(exc, kind))
            return journal.advance(state, "rejected", {"reason": reason, "detail": str(exc)})
        state = journal.advance(state, stage, updates)
    return state


def load_clips(path: str | Path) -> dict[str, list[Clip]]:
    """Group a clip record file by video and validate each sequence."""
    by_video: dict[str, list[Clip]] = {}
    for _, clip in parse_records(path, Clip.from_record):
        by_video.setdefault(clip.video_id, []).append(clip)
    return {vid: validate_clip_sequence(clips) for vid, clips in by_video.items()}


def run_sft_pipeline(
    gateway: Gateway,
    tasks: Sequence[QaTask],
    clips_by_video: dict[str, list[Clip]],
    out_path: str | Path,
    *,
    lenient: bool = False,
    workers: int = 1,
) -> dict:
    """Process every task; write the dataset, the rejection sidecar, and a report.

    Up to `workers` samples are in flight at once.  Progress goes to
    `<out>.journal`; the dataset and sidecar are rewritten from the
    journalled states on every run, so a resumed run produces the same bytes
    as a clean one.  A sample whose inputs changed since it was journalled
    restarts and is counted as invalidated.
    """
    out = Path(out_path)
    journal = Journal(f"{out}.journal")

    def run_one(task: QaTask) -> PipelineState:
        clips = clips_by_video.get(task.video_id)
        return process_sample(gateway, task, clips, journal, lenient=lenient)

    # Samples run concurrently, results come back in task order; on an error
    # the samples still queued are cancelled rather than run first.
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        states = list(pool.map(run_one, tasks))
    finally:
        pool.shutdown(cancel_futures=True)
    emitted = [state.payload["record"] for state in states if state.stage == "emitted"]
    rejections = [
        {
            "id": state.sample_id,
            "reason": state.payload["reason"],
            "detail": state.payload["detail"],
        }
        for state in states
        if state.stage != "emitted"
    ]
    write_records(out, emitted)
    write_records(Path(str(out) + ".rejected"), rejections)
    reasons = Counter(r["reason"] for r in rejections)
    return {
        "total": len(tasks),
        "emitted": len(emitted),
        "rejected": len(rejections),
        "invalidated": len(journal.invalidated),
        "rejection_reasons": dict(sorted(reasons.items())),
    }
