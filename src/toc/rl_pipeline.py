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
from itertools import zip_longest
from typing import Sequence

from .errors import GatewayError, InvalidBandError, NonMultipleChoiceError
from .gateway import ChatRequest, Gateway
from .records import QaPair, QaTask, RlSample
from .rewards import answers_match, extract_answer
from .templates import render_direct_answer

log = logging.getLogger(__name__)

TRIAL_MAX_TOKENS = 32
DEFAULT_TRIAL_TEMPERATURE = 1.0


def trial_request(
    qa: QaPair,
    video_ref: str,
    trial_index: int,
    temperature: float = DEFAULT_TRIAL_TEMPERATURE,
) -> ChatRequest:
    """The no-think elicitation; the trial index doubles as the sampling seed."""
    return ChatRequest(
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
    temperature: float = DEFAULT_TRIAL_TEMPERATURE,
) -> list[bool]:
    """Issue M independent trials; return whether each answered correctly.

    An unparseable reply counts incorrect.  A failed backend call raises its
    GatewayError: it says nothing about the model's answer, so it must not
    count either way.
    """
    if qa.qa_type != "multiple_choice":
        raise NonMultipleChoiceError(
            f"demand estimation needs multiple_choice, got {qa.qa_type}"
        )
    return [
        answers_match(
            extract_answer(gateway.complete(trial_request(qa, video_ref, i, temperature))),
            qa.answer,
            "multiple_choice",
        )
        for i in range(m_trials)
    ]


def filter_by_difficulty(
    samples: Sequence[RlSample], lo: float = 0.2, hi: float = 0.8
) -> list[RlSample]:
    """Keep samples with lo <= difficulty <= hi, preserving order."""
    if lo >= hi:
        raise InvalidBandError(f"band must satisfy lo < hi, got [{lo}, {hi}]")
    return [s for s in samples if lo <= s.difficulty <= hi]


def balance_tiers(samples: Sequence[RlSample], target: int, seed: int) -> list[RlSample]:
    """Even out the per-difficulty-tier counts by seeded sampling.

    Each tier (distinct difficulty value) is shuffled once; the tiers are
    then dealt round-robin in ascending difficulty, one member per tier per
    round, until min(target, len(samples)) are picked.  So every tier gets
    floor(target/tiers) samples, or all it has if fewer, and the rest goes
    one per tier per round, lowest difficulty first, to tiers with members
    left.  The per-tier counts do not depend on the seed; which members a
    tier contributes does.  Output keeps the input order of the chosen
    samples.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    rng = random.Random(seed)
    by_tier: dict[float, list[int]] = {}
    for pos, sample in enumerate(samples):
        by_tier.setdefault(sample.difficulty, []).append(pos)
    tiers = [by_tier[difficulty] for difficulty in sorted(by_tier)]
    for members in tiers:
        rng.shuffle(members)
    dealt = [pos for row in zip_longest(*tiers) for pos in row if pos is not None]
    return [samples[pos] for pos in sorted(dealt[:target])]


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
    """Annotate every multiple-choice task with its demand; count skips by reason.

    A question is skipped as `non_multiple_choice`, or as `trials_failed`
    when any of its trials fails in the gateway.  Up to `workers` questions
    are in flight at once; output keeps task order.
    """

    def annotate(task: QaTask) -> RlSample | str:
        if task.qa.qa_type != "multiple_choice":
            return "non_multiple_choice"
        try:
            trials = run_trials(
                gateway, task.qa, task.video_ref, m_trials, temperature=temperature
            )
        except GatewayError as exc:
            log.warning("skipping %s: a trial failed: %s", task.sample_id, exc)
            return "trials_failed"
        return RlSample.from_trial_count(
            id=task.sample_id,
            video_id=task.video_id,
            question=task.qa.question,
            options=task.qa.options or (),
            answer=task.qa.answer,
            alpha=sum(trials),
            m_trials=m_trials,
        )

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        results = list(pool.map(annotate, tasks))
    finally:
        pool.shutdown(cancel_futures=True)
    annotated = [result for result in results if isinstance(result, RlSample)]
    skipped = Counter(result for result in results if isinstance(result, str))
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
