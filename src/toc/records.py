"""Core record types and the newline-delimited record format shared by all stages.

Every dataset, sidecar, and report file in this toolchain is a UTF-8 text file
with one JSON object per line, keys matching the dataclass field names.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import EmptyRationaleError, NonFiniteError, RangeError, RecordError
from .templates import step_numbers

QA_TYPES = ("multiple_choice", "open_ended", "numerical")

_OPTION_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# The tags that delimit the two blocks of a training target; neither block
# may hold one.
TARGET_TAGS = ("<locate>", "</locate>", "<answer>", "</answer>")


# Per record shape read from a file, and for the config: each key's JSON
# type ([T] is a list of T), its lower bound, and whether it is optional.  A
# bool is not a number, an int counts as a float, every number and every
# number in a list must be finite, null means absent, and keys not listed are
# ignored.  A numeric payload is a list of lists here; float_array checks its
# values.
SHAPES: dict[str, dict[str, tuple[type | list[type], float | None, bool]]] = {
    "qa": {"video_id": (str, None, False), "qa_index": (int, 0, True),
           "video_ref": (str, None, True), "question": (str, None, False),
           "options": ([str], None, True), "answer": (str, None, False),
           "qa_type": (str, None, False)},
    "clip": {"video_id": (str, None, False), "index": (int, 0, False),
             "start_s": (float, 0, False), "end_s": (float, None, False),
             "embedding": ([float], None, True), "caption": (str, None, True)},
    "shots": {"video_id": (str, None, False), "boundaries_s": ([float], None, False),
              "embeddings": ([list], None, False)},
    "rl sample": {"id": (str, None, False), "video_id": (str, None, False),
                  "question": (str, None, False), "options": ([str], None, False),
                  "answer": (str, None, False), "alpha": (int, 0, False),
                  "m_trials": (int, 1, False), "reasoning_demand": (float, None, False),
                  "difficulty": (float, None, False)},
    "reward group": {"gamma": (float, None, False), "correct": ([bool], None, False)},
    "logprobs": {"current": ([list], None, False), "old": ([list], None, False),
                 "ref": ([list], None, False), "scaled_advantages": ([float], None, False)},
    "mock table": {"digest": (str, None, False), "reply": (str, None, False)},
    "journal": {"sample_id": (str, None, False), "digest": (str, None, False),
                "stage": (str, None, False), "payload": (dict, None, False)},
    # The payload of a journalled outcome of each stage.
    "emitted payload": {"rationale": (str, None, False)},
    "rejected payload": {"reason": (str, None, False), "detail": (str, None, False)},
    "config": {"backends": (dict, None, False), "m_trials": (int, 1, False),
               "parallelism": (int, 1, False), "strict_parsing": (bool, None, False),
               "mock_table_path": (str, None, True), "trial_temperature": (float, 0, False),
               "retry_max_attempts": (int, 1, False), "retry_base_delay_s": (float, 0, False)},
    "backend": {"kind": (str, None, False), "endpoint": (str, None, True),
                "model": (str, None, True), "timeout_s": (float, 0.001, False)},
}

# Per table type: the types json.loads gives for it, its name, and its plural.
_JSON_TYPES: dict[type, tuple[tuple[type, ...], str, str]] = {
    str: ((str,), "a string", "strings"),
    int: ((int,), "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    bool: ((bool,), "true or false", "booleans"),
    dict: ((dict,), "an object", "objects"),
    list: ((list,), "a list", "lists"),
}

# The lowest finite float: the bound of a number that has none of its own.
_LOWEST = -sys.float_info.max


def _rule(key: str, kind: type | list[type], lower: float | None, optional: bool) -> tuple:
    """A SHAPES entry as check_record walks it: key, value types, item types, bound, name.

    The bound applies to the value, or to each item of a list; a number
    without a lower bound gets the lowest finite float, so that it too must
    be finite.
    """
    number = kind is float or kind == [float]
    bound = _LOWEST if number and lower is None else lower
    if type(kind) is list:
        items, _, plural = _JSON_TYPES[kind[0]]
        return key, (list, type(None)) if optional else (list,), items, bound, f"a list of {plural}"
    accepted, name, _ = _JSON_TYPES[kind]
    return key, accepted + (type(None),) * optional, None, bound, name


def _bound_error(key: str, lower: float, value: object, where: str = "") -> ValueError:
    bound = "finite" if lower == _LOWEST else f"finite and >= {lower}"
    return ValueError(f"{key} must be {bound}, got {reprlib.repr(value)}{where}")


_RULES = {shape: [_rule(key, *rule) for key, rule in keys.items()] for shape, keys in SHAPES.items()}


def check_record(rec: object, shape: str) -> None:
    """KeyError, TypeError or ValueError for the first key breaking SHAPES[shape]."""
    if type(rec) is not dict:
        raise TypeError(f"expected a JSON object, got {reprlib.repr(rec)}")
    for key, accepted, items, lower, name in _RULES[shape]:
        value = rec.get(key)
        if type(value) not in accepted:
            if key not in rec:
                raise KeyError(key)
            raise TypeError(f"{key} must be {name}, got {reprlib.repr(value)}")
        if items:
            for pos, item in enumerate(value or ()):
                if type(item) not in items:
                    raise TypeError(f"{key} must be {name}, got {reprlib.repr(item)} at index {pos}")
                if lower is not None and not lower <= item < math.inf:
                    raise _bound_error(key, lower, item, f" at index {pos}")
        elif lower is not None and value is not None and not lower <= value < math.inf:
            raise _bound_error(key, lower, value)


def float_array(values: object, ndim: int, what: str) -> np.ndarray:
    """values as a read-only float64 array of ndim dimensions, built by one NumPy call.

    Only JSON numbers are accepted.  The call is left to infer the dtype:
    forcing float would read None as NaN.  None, strings, all-boolean input
    and integers beyond 64 bits infer a dtype that is not numeric, and nested
    lists another shape; each is a TypeError.  NaN and ±Infinity are a
    NonFiniteError.
    """
    try:
        array = np.array(values)
    except ValueError:  # lists nested to different depths
        raise TypeError(f"{what} must be JSON numbers in {ndim}-D lists") from None
    if array.ndim != ndim or array.dtype.kind not in "fiu":
        raise TypeError(f"{what} must be JSON numbers in {ndim}-D lists")
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise NonFiniteError(f"{what} must be finite")
    array.flags.writeable = False
    return array


def _set_fields(record: object) -> dict:
    """The fields of a record type that are not None, in field order, each tuple as a list."""
    return {
        key: list(value) if type(value) is tuple else value
        for key in record.__dataclass_fields__  # the fields, in order; no record type has a ClassVar
        if (value := getattr(record, key)) is not None
    }


def option_label(position: int) -> str:
    """Label for the option at a 0-based position: 0 -> "A", 1 -> "B", ..."""
    return _OPTION_LABELS[position]


@dataclass(frozen=True, slots=True)
class Clip:
    """A temporally contiguous segment of one video."""

    video_id: str
    index: int
    start_s: float
    end_s: float
    embedding: tuple[float, ...] | None = None
    caption: str | None = None

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError(
                f"clip span must be non-empty, got [{self.start_s}, {self.end_s})"
            )

    def to_record(self) -> dict:
        return _set_fields(self)

    @classmethod
    def from_record(cls, rec: dict) -> "Clip":
        check_record(rec, "clip")
        embedding = rec.get("embedding")
        return cls(
            video_id=rec["video_id"],
            index=rec["index"],
            start_s=float(rec["start_s"]),
            end_s=float(rec["end_s"]),
            embedding=tuple(float(v) for v in embedding) if embedding is not None else None,
            caption=rec.get("caption"),
        )


@dataclass(frozen=True, slots=True)
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
        if self.options and self.qa_type != "multiple_choice":
            raise ValueError(f"only multiple_choice takes options, not {self.qa_type}")
        if any(tag in self.answer for tag in TARGET_TAGS):
            raise ValueError(f"answer must not contain any of {TARGET_TAGS}")
        if len(self.options or ()) > len(_OPTION_LABELS):
            raise ValueError(f"at most {len(_OPTION_LABELS)} options have labels")
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
        return _set_fields(self)

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
        return dict(vars(self))

    @classmethod
    def from_record(cls, rec: dict) -> "SftSample":
        return cls(**{k: rec[k] for k in ("id", "video_id", "question", "answer", "rationale", "target", "prompt")})


def _check_alpha(alpha: int, m_trials: int) -> None:
    if m_trials < 1:
        raise RangeError(f"m_trials must be >= 1, got {m_trials}")
    if not 0 <= alpha <= m_trials:
        raise RangeError(f"alpha must be in [0, {m_trials}], got {alpha}")


_TOL = 1e-12  # how far a stored demand or difficulty may sit from its recomputed value


def _demand_and_difficulty(alpha: int, m_trials: int) -> tuple[float, float]:
    """Both scores of alpha correct answers in M trials, after one range check."""
    _check_alpha(alpha, m_trials)
    ratio = alpha / m_trials
    return math.exp(-ratio), 1.0 - ratio


def demand_from_alpha(alpha: int, m_trials: int) -> float:
    """Reasoning demand e^(-alpha/M) for alpha correct no-think answers in M trials."""
    return _demand_and_difficulty(alpha, m_trials)[0]


@dataclass(frozen=True, slots=True)
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
        demand, difficulty = _demand_and_difficulty(alpha, m_trials)
        return cls(id, video_id, question, tuple(options), answer, alpha, m_trials, demand, difficulty)

    def recompute_consistent(self) -> bool:
        """True when the stored demand and difficulty agree with alpha/m_trials."""
        demand, difficulty = _demand_and_difficulty(self.alpha, self.m_trials)
        return abs(self.reasoning_demand - demand) <= _TOL and abs(self.difficulty - difficulty) <= _TOL

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
        """Read a stored sample; its demand and difficulty must match alpha/m_trials."""
        check_record(rec, "rl sample")
        sample = cls(
            rec["id"], rec["video_id"], rec["question"], tuple(rec["options"]), rec["answer"],
            rec["alpha"], rec["m_trials"], float(rec["reasoning_demand"]), float(rec["difficulty"]),
        )
        if not sample.recompute_consistent():
            raise ValueError(
                f"reasoning_demand {sample.reasoning_demand} and difficulty {sample.difficulty} "
                f"disagree with alpha {sample.alpha} of m_trials {sample.m_trials}"
            )
        return sample


@dataclass(frozen=True, slots=True)
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
    counters: dict[str, int] = {}

    def parse(rec: dict) -> QaTask:
        check_record(rec, "qa")
        video_id, qa_index, video_ref = rec["video_id"], rec.get("qa_index"), rec.get("video_ref")
        if qa_index is None:
            qa_index = counters.get(video_id, 0)
        counters[video_id] = qa_index + 1
        return QaTask(
            video_id=video_id,
            qa_index=qa_index,
            qa=QaPair.from_record(rec),
            video_ref=f"{video_id}/full" if video_ref is None else video_ref,
        )

    return list(parse_unique(path, parse, "sample_id", lambda task: task.sample_id))


# --- newline-delimited record IO ---


def json_encoder(
    *, sort_keys: bool = False, separators: tuple[str, str] = (", ", ": "), ensure_ascii: bool = True
) -> Callable[[object], str]:
    """json.dumps with these options, its C encoder built once instead of per call.

    The encoder gets the arguments JSONEncoder.iterencode passes it, except
    that it keeps no circular-reference check: records are trees.  It then
    holds no state between calls, so threads may share it.  A value JSON
    cannot hold raises the same TypeError as json.dumps.
    """
    enc = json.encoder.c_make_encoder(
        None,
        json.JSONEncoder().default,
        json.encoder.encode_basestring_ascii if ensure_ascii else json.encoder.encode_basestring,
        None,
        separators[1],
        separators[0],
        sort_keys,
        False,
        True,
    )
    return lambda obj: "".join(enc(obj, 0))


# json.dumps(rec, ensure_ascii=False)
dump_record: Callable[[dict], str] = json_encoder(ensure_ascii=False)

_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str) -> object:
    """The JSON value of a stripped line, as json.loads gives it.

    One raw_decode call reads a valid line.  Anything else goes through
    json.loads again, so that its error (extra data, a byte order mark, a
    nesting too deep) is the one raised.
    """
    try:
        value, end = _raw_decode(line)
        if end == len(line):
            return value
    except (ValueError, RecursionError):
        pass
    return json.loads(line)


def write_records(path: str | Path, records: Iterable[dict]) -> int:
    """Write one JSON object per line; returns the number of lines written.

    The lines go to `<path>.tmp`, which then replaces `path`, so the file
    on disk is always either complete or as it was before the call.
    """
    tmp = Path(f"{path}.tmp")
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(dump_record(rec))
                fh.write("\n")
                count += 1
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def _numbered_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(1-based line number, record) for every non-blank line.

    Bytes that are not UTF-8 are read as surrogate escapes, which no valid
    line holds, so the first faulty line is the one named.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise RecordError(f"{path}:{line_no}: not valid UTF-8") from None
            try:
                rec = _decode_line(line)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise RecordError(f"{path}:{line_no}: malformed JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise RecordError(f"{path}:{line_no}: expected a JSON object")
            # Only a \uXXXX escape can put a surrogate into a decoded string,
            # and a paired one decodes to a single character that encodes
            # fine.  Most lines hold no backslash, which one fast scan finds.
            if "\\" in line and ("\\ud" in line or "\\uD" in line):
                try:
                    dump_record(rec).encode("utf-8")
                except UnicodeEncodeError:
                    raise RecordError(
                        f"{path}:{line_no}: a string holds a lone surrogate escape"
                    ) from None
            yield line_no, rec


def read_records(path: str | Path) -> Iterator[dict]:
    return (rec for _, rec in _numbered_records(path))


T = TypeVar("T")


def parse_records(path: str | Path, parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """(line number, parse(record)) for every record.

    A record that `parse` rejects with KeyError, TypeError, ValueError or
    OverflowError (an integer literal too large for a float) is a
    RecordError naming path:line.
    """
    for line_no, rec in _numbered_records(path):
        try:
            parsed = parse(rec)
        except KeyError as exc:
            raise RecordError(f"{path}:{line_no}: invalid record: missing key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise RecordError(f"{path}:{line_no}: invalid record: {exc}") from None
        yield line_no, parsed


def parse_unique(
    path: str | Path, parse: Callable[[dict], T], what: str, key: Callable[[T], str]
) -> Iterator[T]:
    """parse(record) for every record; a line repeating an earlier line's key is a RecordError."""
    first_lines: dict[str, int] = {}
    for line_no, parsed in parse_records(path, parse):
        first = first_lines.setdefault(key(parsed), line_no)
        if first != line_no:
            raise RecordError(f"{path}:{line_no}: {what} {key(parsed)!r} duplicates line {first}")
        yield parsed
