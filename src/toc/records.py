"""Core record types and the newline-delimited record format shared by all stages.

Every dataset, sidecar, and report file in this toolchain is a UTF-8 text file
with one JSON object per line, keys matching the dataclass field names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    EmptyError,
    EmptyRationaleError,
    GapError,
    OverlapError,
    RangeError,
    RecordError,
)
from .templates import step_numbers

QA_TYPES = ("multiple_choice", "open_ended", "numerical")

_OPTION_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def option_label(position: int) -> str:
    """Label for the option at a 0-based position: 0 -> "A", 1 -> "B", ..."""
    return _OPTION_LABELS[position]


@dataclass(frozen=True)
class Clip:
    """A temporally contiguous segment of one video."""

    video_id: str
    index: int
    start_s: float
    end_s: float
    embedding: tuple[float, ...] | None = None
    caption: str | None = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"clip index must be >= 0, got {self.index}")
        if self.start_s < 0:
            raise ValueError(f"clip start must be >= 0, got {self.start_s}")
        if self.end_s <= self.start_s:
            raise ValueError(
                f"clip span must be non-empty, got [{self.start_s}, {self.end_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_record(self) -> dict:
        rec: dict = {
            "video_id": self.video_id,
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        if self.embedding is not None:
            rec["embedding"] = list(self.embedding)
        if self.caption is not None:
            rec["caption"] = self.caption
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Clip":
        embedding = rec.get("embedding")
        return cls(
            video_id=rec["video_id"],
            index=rec["index"],
            start_s=float(rec["start_s"]),
            end_s=float(rec["end_s"]),
            embedding=tuple(float(v) for v in embedding) if embedding is not None else None,
            caption=rec.get("caption"),
        )


def validate_clip_sequence(clips: list[Clip]) -> list[Clip]:
    """Sort one video's clips by index and enforce the sequence invariants.

    Indices must be exactly 0..N-1 and time spans must be non-overlapping and
    increasing with index.
    """
    if not clips:
        raise EmptyError("clip sequence is empty")
    video_ids = {c.video_id for c in clips}
    if len(video_ids) != 1:
        raise ValueError(f"clips span multiple videos: {sorted(video_ids)}")
    ordered = sorted(clips, key=lambda c: c.index)
    indices = [c.index for c in ordered]
    if indices != list(range(len(ordered))):
        raise GapError(f"clip indices are not contiguous 0..{len(ordered) - 1}: {indices}")
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.start_s < prev.end_s:
            raise OverlapError(
                f"clip {nxt.index} starts at {nxt.start_s} before clip "
                f"{prev.index} ends at {prev.end_s}"
            )
    return ordered


@dataclass(frozen=True)
class QaPair:
    """A question with its gold answer.

    Options are stored as bare texts; their labels are implied by position
    ("A" for the first option, "B" for the second, ...).
    """

    question: str
    answer: str
    qa_type: str
    options: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.qa_type not in QA_TYPES:
            raise ValueError(f"unknown qa_type {self.qa_type!r}")
        if self.qa_type == "multiple_choice":
            if not self.options:
                raise ValueError("multiple_choice requires a non-empty options list")
            if self.answer not in self.labels():
                raise ValueError(
                    f"answer {self.answer!r} is not one of the option labels {self.labels()}"
                )

    def labels(self) -> tuple[str, ...]:
        return tuple(option_label(i) for i in range(len(self.options or ())))

    def formatted_question(self) -> str:
        """Question text with labeled options appended, one per line."""
        if not self.options:
            return self.question
        lines = [self.question]
        lines += [f"{option_label(i)}. {text}" for i, text in enumerate(self.options)]
        return "\n".join(lines)

    def to_record(self) -> dict:
        rec: dict = {
            "question": self.question,
            "answer": self.answer,
            "qa_type": self.qa_type,
        }
        if self.options is not None:
            rec["options"] = list(self.options)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "QaPair":
        options = rec.get("options")
        return cls(
            question=rec["question"],
            answer=rec["answer"],
            qa_type=rec["qa_type"],
            options=tuple(options) if options is not None else None,
        )


def render_target(rationale: str, answer: str) -> str:
    """Render the two-block training target: locate block, newline, answer block."""
    if not rationale.strip():
        raise EmptyRationaleError("rationale must be non-empty")
    return f"<locate>{rationale}</locate>\n<answer>{answer}</answer>"


@dataclass(frozen=True)
class SftSample:
    """One emitted supervised training record."""

    id: str
    video_id: str
    question: str
    answer: str
    rationale: str
    target: str
    prompt: str

    @classmethod
    def build(
        cls,
        id: str,
        video_id: str,
        question: str,
        answer: str,
        rationale: str,
        prompt: str,
    ) -> "SftSample":
        sample = cls(
            id=id,
            video_id=video_id,
            question=question,
            answer=answer,
            rationale=rationale,
            target=render_target(rationale, answer),
            prompt=prompt,
        )
        sample.validate()
        return sample

    def validate(self) -> None:
        if step_numbers(self.rationale):
            raise ValueError("rationale still contains a step marker")
        if self.target.count("<locate>") != 1 or self.target.count("</locate>") != 1:
            raise ValueError("target must contain exactly one locate block")
        if self.target.count("<answer>") != 1 or self.target.count("</answer>") != 1:
            raise ValueError("target must contain exactly one answer block")
        if self.target.index("</locate>") > self.target.index("<answer>"):
            raise ValueError("locate block must precede answer block")

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "video_id": self.video_id,
            "question": self.question,
            "answer": self.answer,
            "rationale": self.rationale,
            "target": self.target,
            "prompt": self.prompt,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "SftSample":
        return cls(**{k: rec[k] for k in ("id", "video_id", "question", "answer", "rationale", "target", "prompt")})


def demand_from_alpha(alpha: int, m_trials: int) -> float:
    """Reasoning demand e^(-alpha/M) for alpha correct no-think answers in M trials."""
    if m_trials < 1:
        raise RangeError(f"m_trials must be >= 1, got {m_trials}")
    if not 0 <= alpha <= m_trials:
        raise RangeError(f"alpha must be in [0, {m_trials}], got {alpha}")
    return math.exp(-alpha / m_trials)


def difficulty_from_alpha(alpha: int, m_trials: int) -> float:
    """Difficulty score 1 - alpha/M."""
    if m_trials < 1:
        raise RangeError(f"m_trials must be >= 1, got {m_trials}")
    if not 0 <= alpha <= m_trials:
        raise RangeError(f"alpha must be in [0, {m_trials}], got {alpha}")
    return 1.0 - alpha / m_trials


@dataclass(frozen=True)
class RlSample:
    """One demand-annotated record for the reinforcement-learning dataset.

    reasoning_demand and difficulty are stored redundantly with alpha so
    downstream consumers can cross-check for corruption.
    """

    id: str
    video_id: str
    question: str
    options: tuple[str, ...]
    answer: str
    alpha: int
    m_trials: int
    reasoning_demand: float
    difficulty: float

    @classmethod
    def from_trial_count(
        cls,
        id: str,
        video_id: str,
        question: str,
        options: tuple[str, ...],
        answer: str,
        alpha: int,
        m_trials: int,
    ) -> "RlSample":
        return cls(
            id=id,
            video_id=video_id,
            question=question,
            options=tuple(options),
            answer=answer,
            alpha=alpha,
            m_trials=m_trials,
            reasoning_demand=demand_from_alpha(alpha, m_trials),
            difficulty=difficulty_from_alpha(alpha, m_trials),
        )

    def recompute_consistent(self, tol: float = 1e-12) -> bool:
        """True when the stored demand and difficulty agree with alpha/m_trials."""
        return (
            abs(self.reasoning_demand - demand_from_alpha(self.alpha, self.m_trials)) <= tol
            and abs(self.difficulty - difficulty_from_alpha(self.alpha, self.m_trials)) <= tol
        )

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "video_id": self.video_id,
            "question": self.question,
            "options": list(self.options),
            "answer": self.answer,
            "alpha": self.alpha,
            "m_trials": self.m_trials,
            "reasoning_demand": self.reasoning_demand,
            "difficulty": self.difficulty,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "RlSample":
        return cls(
            id=rec["id"],
            video_id=rec["video_id"],
            question=rec["question"],
            options=tuple(rec["options"]),
            answer=rec["answer"],
            alpha=rec["alpha"],
            m_trials=rec["m_trials"],
            reasoning_demand=float(rec["reasoning_demand"]),
            difficulty=float(rec["difficulty"]),
        )


@dataclass(frozen=True)
class QaTask:
    """A (video, question) unit of pipeline work."""

    video_id: str
    qa_index: int
    qa: QaPair
    video_ref: str

    @property
    def sample_id(self) -> str:
        return f"{self.video_id}#{self.qa_index}"


def load_qa_tasks(path: str | Path) -> list[QaTask]:
    """Read a QA record file; qa_index defaults to the per-video position.

    Sample ids must be unique: two samples would share one resume state.
    """
    tasks: list[QaTask] = []
    counters: dict[str, int] = {}
    first_lines: dict[str, int] = {}
    for line_no, rec in _numbered_records(path):
        video_id = rec["video_id"]
        qa_index = rec.get("qa_index")
        if qa_index is None:
            qa_index = counters.get(video_id, 0)
        counters[video_id] = qa_index + 1
        task = QaTask(
            video_id=video_id,
            qa_index=qa_index,
            qa=QaPair.from_record(rec),
            video_ref=rec.get("video_ref", f"{video_id}/full"),
        )
        first = first_lines.setdefault(task.sample_id, line_no)
        if first != line_no:
            raise RecordError(
                f"{path}:{line_no}: sample_id {task.sample_id!r} duplicates line {first}"
            )
        tasks.append(task)
    return tasks


# --- newline-delimited record IO ---


def dump_record(rec: dict) -> str:
    return json.dumps(rec, ensure_ascii=False)


def write_records(path: str | Path, records: Iterable[dict]) -> int:
    """Write one JSON object per line; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(dump_record(rec))
            fh.write("\n")
            count += 1
    return count


def _numbered_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(1-based line number, record) for every non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{path}:{line_no}: malformed JSON: {exc}") from None
            yield line_no, rec


def read_records(path: str | Path) -> Iterator[dict]:
    return (rec for _, rec in _numbered_records(path))
