"""Build the demand-annotated RL dataset.

Each multiple-choice question is answered directly (no reasoning prompt) M
times; the count of correct answers sets the reasoning demand and the
difficulty score.  The band filter then drops questions that are too easy
or too hard to carry a gradient, and tier balancing evens out the supply
across the surviving difficulty values.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .errors import GatewayError, InvalidBandError, NonMultipleChoiceError
from .gateway import ChatRequest, Gateway, single_turn
from .records import QaPair, QaTask, RlSample
from .rewards import EMPTY_ANSWER, answers_match, extract_answer
from .templates import render_direct_answer

log = logging.getLogger(__name__)

TRIAL_MAX_TOKENS = 32
DEFAULT_TRIAL_TEMPERATURE = 1.0


@dataclass(frozen=True)
class TrialRecord:
    """One direct-answer attempt."""

    sample_id: str
    trial_index: int
    raw_reply: str
    extracted: str | None
    correct: bool

    def to_record(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "trial_index": self.trial_index,
            "raw_reply": self.raw_reply,
            "extracted": self.extracted,
            "correct": self.correct,
        }


def trial_request(
    qa: QaPair,
    video_ref: str,
    trial_index: int,
    temperature: float = DEFAULT_TRIAL_TEMPERATURE,
) -> ChatRequest:
    """The no-think elicitation; the trial index doubles as the sampling seed."""
    return single_turn(
        "mllm",
        render_direct_answer(qa.formatted_question()),
        media=(video_ref,),
        temperature=temperature,
        max_tokens=TRIAL_MAX_TOKENS,
        seed=trial_index,
    )


def run_trials(
    gateway: Gateway,
    qa: QaPair,
    video_ref: str,
    m_trials: int,
    *,
    sample_id: str = "",
    temperature: float = DEFAULT_TRIAL_TEMPERATURE,
) -> list[TrialRecord]:
    """Issue M independent trials; a failed or unparseable trial counts incorrect."""
    if qa.qa_type != "multiple_choice":
        raise NonMultipleChoiceError(
            f"demand estimation needs multiple_choice, got {qa.qa_type}"
        )

    def one_trial(trial_index: int) -> TrialRecord:
        request = trial_request(qa, video_ref, trial_index, temperature)
        try:
            reply = gateway.complete(request)
        except GatewayError as exc:
            log.warning("trial %d for %s failed: %s", trial_index, sample_id or "?", exc)
            return TrialRecord(sample_id, trial_index, "", None, False)
        extracted = extract_answer(reply)
        correct = answers_match(extracted, qa.answer, "multiple_choice")
        return TrialRecord(
            sample_id=sample_id,
            trial_index=trial_index,
            raw_reply=reply,
            extracted=None if extracted == EMPTY_ANSWER else extracted,
            correct=correct,
        )

    return [one_trial(i) for i in range(m_trials)]


def filter_by_difficulty(
    samples: Sequence[RlSample], lo: float = 0.2, hi: float = 0.8
) -> list[RlSample]:
    """Keep samples with lo <= difficulty <= hi, preserving order."""
    if lo >= hi:
        raise InvalidBandError(f"band must satisfy lo < hi, got [{lo}, {hi}]")
    return [s for s in samples if lo <= s.difficulty <= hi]


def balance_tiers(samples: Sequence[RlSample], target: int, seed: int) -> list[RlSample]:
    """Even out the per-difficulty-tier counts by seeded sampling.

    Each tier (distinct difficulty value) contributes floor(target/tiers)
    samples drawn without replacement; the remainder is filled one at a time
    round-robin from tiers that still have surplus.  Output keeps the input
    order of the chosen samples, so balancing is deterministic given seed.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    if not samples:
        return []
    rng = random.Random(seed)
    by_tier: dict[float, list[int]] = {}
    for pos, sample in enumerate(samples):
        by_tier.setdefault(sample.difficulty, []).append(pos)
    tiers = sorted(by_tier)
    base = target // len(tiers)
    chosen: set[int] = set()
    for tier in tiers:
        members = by_tier[tier]
        chosen.update(rng.sample(members, min(base, len(members))))
    while len(chosen) < min(target, len(samples)):
        progressed = False
        for tier in tiers:
            if len(chosen) >= target:
                break
            surplus = [pos for pos in by_tier[tier] if pos not in chosen]
            if surplus:
                chosen.add(rng.choice(surplus))
                progressed = True
        if not progressed:
            break
    return [samples[pos] for pos in sorted(chosen)]


def tier_histogram(samples: Sequence[RlSample]) -> dict[float, int]:
    counts = Counter(s.difficulty for s in samples)
    return dict(sorted(counts.items()))


def run_demand_pipeline(
    gateway: Gateway,
    tasks: Sequence[QaTask],
    m_trials: int,
    *,
    temperature: float = DEFAULT_TRIAL_TEMPERATURE,
    workers: int = 1,
) -> tuple[list[RlSample], Counter]:
    """Annotate every multiple-choice task with its demand; count skips.

    Up to `workers` questions are in flight at once; output keeps task order.
    """

    def annotate(task: QaTask) -> RlSample | None:
        if task.qa.qa_type != "multiple_choice":
            return None
        trials = run_trials(
            gateway,
            task.qa,
            task.video_ref,
            m_trials,
            sample_id=task.sample_id,
            temperature=temperature,
        )
        return RlSample.from_trial_count(
            id=task.sample_id,
            video_id=task.video_id,
            question=task.qa.question,
            options=task.qa.options or (),
            answer=task.qa.answer,
            alpha=sum(1 for t in trials if t.correct),
            m_trials=m_trials,
        )

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        results = list(pool.map(annotate, tasks))
    finally:
        pool.shutdown(cancel_futures=True)
    annotated = [sample for sample in results if sample is not None]
    skipped = Counter("non_multiple_choice" for sample in results if sample is None)
    return annotated, skipped


def run_build_rl(
    samples: Sequence[RlSample],
    band_lo: float,
    band_hi: float,
    target: int,
    seed: int,
) -> tuple[list[RlSample], list[str]]:
    """Band-filter then balance; returns the dataset and any warnings."""
    in_band = filter_by_difficulty(samples, band_lo, band_hi)
    selected = balance_tiers(in_band, target, seed) if in_band else []
    warnings = []
    if len(selected) < target:
        warnings.append(
            f"supply below target: emitted {len(selected)} of {target} requested"
        )
    return selected, warnings
