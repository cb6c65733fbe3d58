"""Build the rationale-bearing SFT dataset, stage by stage.

Per sample: caption every clip, ask the LLM which clips matter, derive the
coarse-to-fine compilation chain, caption each compilation, screen the final
cue for answerability, summarize the chain into a step-style rationale, and
emit the training record.  Every stage checkpoint is persisted per sample,
so an interrupted run resumes without repeating backend calls, and a sample
that fails a stage is parked with a rejection reason instead of aborting
the run.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence
from urllib.parse import quote

from .cue_tree import Compilation, backtrack, build_tree, layer_compilations
from .errors import (
    EmptyCaptionError,
    EmptyRationaleError,
    EmptySelectionError,
    GatewayError,
    InsufficientCuesError,
    OutOfRangeError,
    ParseError,
    StepCountMismatchError,
)
from .gateway import ChatRequest, Gateway, single_turn
from .records import (
    Clip,
    QaPair,
    QaTask,
    SftSample,
    read_records,
    validate_clip_sequence,
    write_records,
)
from .templates import (
    TEMPLATES,
    parse_index_array,
    parse_yes_no,
    render_prompt,
    render_train_infer,
    step_numbers,
    strip_step_markers,
)

CAPTION_MAX_TOKENS = 512
SELECTION_MAX_TOKENS = 64
FILTER_MAX_TOKENS = 8
RATIONALE_MAX_TOKENS = 512

# Captioning has no prompt box to reproduce; the media reference carries the
# clip identity, so one fixed instruction suffices.
DESCRIBE_PROMPT = "Describe this video clip in detail."

# STAGES, the checkpoint order, is the key order of STAGE_TABLE below.
TERMINAL_STAGES = ("emitted", "rejected")


# --- request builders, shared with the mock-corpus generator ---


def clip_media_ref(clip: Clip) -> str:
    return f"{clip.video_id}#clip{clip.index}"


def compilation_media_ref(video_id: str, compilation: Compilation) -> str:
    joined = "-".join(str(i) for i in compilation.clip_indices)
    return f"{video_id}#comp{joined}"


def clip_caption_request(clip: Clip) -> ChatRequest:
    return single_turn(
        "mllm", DESCRIBE_PROMPT, media=(clip_media_ref(clip),), max_tokens=CAPTION_MAX_TOKENS
    )


def compilation_caption_request(video_id: str, compilation: Compilation) -> ChatRequest:
    return single_turn(
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
    prompt = render_prompt(
        TEMPLATES["key_clip_selection"],
        {
            "Video Clip Descriptions": clip_descriptions_json(clips, qa),
            "Question": qa.formatted_question(),
            "Answer": qa.answer,
        },
    )
    return single_turn("llm", prompt, max_tokens=SELECTION_MAX_TOKENS)


def filter_request(final_cue: str, qa: QaPair) -> ChatRequest:
    prompt = render_prompt(
        TEMPLATES["low_quality_filter"],
        {"Question": qa.formatted_question(), "Answer": qa.answer, "Cues": final_cue},
    )
    return single_turn("llm", prompt, max_tokens=FILTER_MAX_TOKENS)


def linearize_trajectory(cues: Sequence[str]) -> str:
    """One line per localization step, coarsest compilation first."""
    return "\n".join(f"Step {i}: {cue}" for i, cue in enumerate(cues, 1))


def rationale_request(cues: Sequence[str], qa: QaPair) -> ChatRequest:
    prompt = render_prompt(
        TEMPLATES["rationale_generation"],
        {
            "Question": qa.formatted_question(),
            "Answer": qa.answer,
            "Reasoning Trajectory": linearize_trajectory(cues),
        },
    )
    return single_turn("llm", prompt, max_tokens=RATIONALE_MAX_TOKENS)


# --- per-sample state ---


@dataclass(frozen=True)
class PipelineState:
    """Where one sample stands; payload accumulates stage outputs."""

    sample_id: str
    stage: str | None
    payload: dict

    @property
    def terminal(self) -> bool:
        return self.stage in TERMINAL_STAGES

    def reached(self, stage: str) -> bool:
        if self.stage is None or self.stage == "rejected":
            return False
        if self.stage == "emitted":
            return True
        return STAGES.index(self.stage) >= STAGES.index(stage)

    def advanced(self, stage: str, payload: dict) -> "PipelineState":
        if self.terminal:
            raise ValueError(f"cannot advance terminal state {self.stage}")
        if self.stage is not None and STAGES.index(stage) <= STAGES.index(self.stage):
            raise ValueError(f"stage {stage} does not advance past {self.stage}")
        return PipelineState(self.sample_id, stage, payload)

    def rejected_with(self, reason: str, detail: str) -> "PipelineState":
        if self.terminal:
            raise ValueError(f"cannot reject terminal state {self.stage}")
        payload = {**self.payload, "reason": reason, "detail": detail}
        return PipelineState(self.sample_id, "rejected", payload)

    def to_record(self) -> dict:
        return {"sample_id": self.sample_id, "stage": self.stage, "payload": self.payload}

    @classmethod
    def from_record(cls, rec: dict) -> "PipelineState":
        return cls(sample_id=rec["sample_id"], stage=rec["stage"], payload=rec["payload"])


class StateStore:
    """One JSON file per sample; writes are atomic so a crash never corrupts state."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, sample_id: str) -> Path:
        return self.root / f"{quote(sample_id, safe='#-_.')}.json"

    def load(self, sample_id: str) -> PipelineState | None:
        path = self.path(sample_id)
        if not path.exists():
            return None
        return PipelineState.from_record(json.loads(path.read_text(encoding="utf-8")))

    def save(self, state: PipelineState) -> None:
        path = self.path(state.sample_id)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(state.to_record(), ensure_ascii=False), encoding="utf-8"
        )
        os.replace(tmp, path)


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
    order, before the markers are stripped.
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
    return strip_step_markers(reply), reply


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
    store: StateStore,
    *,
    lenient: bool = False,
) -> PipelineState:
    """Advance one sample to a terminal state, resuming any persisted progress."""
    state = store.load(task.sample_id) or PipelineState(task.sample_id, None, {})
    if state.terminal:
        return state
    if not clips:
        state = state.rejected_with("missing_clips", f"no clips for video {task.video_id}")
        store.save(state)
        return state
    sample = _Sample(gateway, task, clips, lenient)
    for stage, (step, reasons) in STAGE_TABLE.items():
        if state.reached(stage):
            continue
        try:
            updates = step(sample, state.payload)
        except tuple(reasons) as exc:
            reason = next(r for kind, r in reasons.items() if isinstance(exc, kind))
            state = state.rejected_with(reason, str(exc))
            store.save(state)
            return state
        state = state.advanced(stage, {**state.payload, **updates})
        store.save(state)
    return state


def load_clips(path: str | Path) -> dict[str, list[Clip]]:
    """Group a clip record file by video and validate each sequence."""
    by_video: dict[str, list[Clip]] = {}
    for rec in read_records(path):
        clip = Clip.from_record(rec)
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

    Up to `workers` samples are in flight at once.  The dataset and sidecar
    are rewritten from persisted states on every run, so a resumed run
    produces the same bytes as a clean one.
    """
    out = Path(out_path)
    store = StateStore(Path(str(out) + ".state"))

    def run_one(task: QaTask) -> PipelineState:
        clips = clips_by_video.get(task.video_id)
        return process_sample(gateway, task, clips, store, lenient=lenient)

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
            "reason": state.payload.get("reason", "unknown"),
            "detail": state.payload.get("detail", ""),
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
        "rejection_reasons": dict(sorted(reasons.items())),
    }
