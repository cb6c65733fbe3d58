"""Rewards, group-normalized advantages, and the clipped surrogate objective.

Everything here is pure arithmetic on plain floats; math.fsum keeps the
group statistics exact enough for the tight tolerances the tests demand.
Token log-probs are held as float64 arrays, and each sum converts its
array to a list first: fsum over an array iterates far slower.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    GroupTooSmallError,
    MisalignedSequencesError,
    NonFiniteError,
    RangeError,
)
from .records import check_record, demand_from_alpha, float_array

# What extract_answer returns when no answer block exists; never a valid answer.
EMPTY_ANSWER = ""

_ANSWER_BLOCK = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)


def extract_answer(response: str) -> str:
    """Trimmed content of the last answer block; EMPTY_ANSWER when there is none.

    There is deliberately no format reward: a response that never produces an
    answer block scores zero through this marker, even if the right answer
    appears in the prose.
    """
    blocks = _ANSWER_BLOCK.findall(response)
    if not blocks:
        return EMPTY_ANSWER
    return blocks[-1].strip()


def answers_match(extracted: str, gold: str) -> bool:
    """Compare an extracted option letter against the gold one, ignoring case."""
    if extracted == EMPTY_ANSWER:
        return False
    return extracted.strip().upper() == gold.strip().upper()


def vanilla_reward(correct: bool) -> float:
    """Plain binary success reward."""
    return 1.0 if correct else 0.0


def rd_reward(correct: bool, alpha: int, m: int) -> float:
    """Demand-weighted success reward: e^(-alpha/m) when correct, else 0."""
    gamma = demand_from_alpha(alpha, m)
    return gamma if correct else 0.0


def normalize_advantages(rewards: Sequence[float]) -> list[float]:
    """Center by the group mean and divide by the sample standard deviation.

    The divisor is G-1; that choice is what makes closed_form_advantages
    exact.  A group with all rewards equal has zero deviation and is defined
    to yield all-zero advantages rather than dividing by zero.  Unequal
    rewards whose variance underflows the normal float range are scaled by
    a power of two, which is exact, and normalized again.  A reward that is
    not finite, or a sum or square beyond the float range, is a
    NonFiniteError.
    """
    size = len(rewards)
    if size < 2:
        raise GroupTooSmallError(f"need at least 2 rewards, got {size}")
    if not all(map(math.isfinite, rewards)):
        raise NonFiniteError("rewards must be finite")
    first = rewards[0]
    if all(r == first for r in rewards):
        return [0.0] * size

    def moments(values: Sequence[float]) -> tuple[float, float]:
        mean = math.fsum(values) / size
        return mean, math.fsum((v - mean) ** 2 for v in values) / (size - 1)

    try:
        mean, variance = moments(rewards)
    except OverflowError:
        raise NonFiniteError("reward statistics overflowed") from None
    if variance == math.inf:  # a reward's distance from the mean overflowed
        raise NonFiniteError("reward statistics overflowed")
    if variance < sys.float_info.min:
        # The squared deviations underflowed.  Bringing the largest magnitude
        # into [0.5, 1) by a power of two is exact.  A group whose variance
        # is normal is never scaled: a square of scaled values can round
        # differently in its last bit.
        shift = -math.frexp(max(map(abs, rewards)))[1]
        rewards = [math.ldexp(r, shift) for r in rewards]
        mean, variance = moments(rewards)
    std = math.sqrt(variance)
    return [(r - mean) / std for r in rewards]


def closed_form_advantages(g: int, x: int) -> tuple[float | None, float | None]:
    """Advantages for a binary reward group of size g with x correct responses.

    Returns (a_correct, a_wrong).  At x=0 there is no correct response, so
    a_correct is None (and symmetrically at x=g); the surviving endpoint
    value is 0 because the group is degenerate there.
    """
    if g < 2:
        raise RangeError(f"group size must be >= 2, got {g}")
    if not 0 <= x <= g:
        raise RangeError(f"correct count must be in [0, {g}], got {x}")
    if x == 0:
        return None, 0.0
    if x == g:
        return 0.0, None
    a_correct = math.sqrt((g - 1) * (g - x) / (g * x))
    a_wrong = -math.sqrt(x * (g - 1) / (g * (g - x)))
    return a_correct, a_wrong


def scale_advantages(advantages: Sequence[float], gamma: float) -> list[float]:
    """Multiply every advantage by the question's reasoning demand."""
    if not 0.0 < gamma <= 1.0:
        raise RangeError(f"gamma must be in (0, 1], got {gamma}")
    return [a * gamma for a in advantages]


@dataclass(frozen=True)
class RewardGroup:
    """A full response group scored under one question's demand gamma."""

    gamma: float
    correct: list[bool]
    x: int
    rewards: list[float]
    advantages: list[float]
    scaled_advantages: list[float]

    @property
    def size(self) -> int:
        return len(self.correct)


def score_flags(gamma: float, correct_flags: Sequence[bool]) -> RewardGroup:
    """Score a group from correctness flags alone.

    Normalizing the rewards gamma · correct cancels gamma, so each flag's
    advantage is closed_form_advantages(size, x); the demand reaches the
    scaled advantages alone.  An all-equal group has all-zero advantages.
    """
    if not 0.0 < gamma <= 1.0:
        raise RangeError(f"gamma must be in (0, 1], got {gamma}")
    correct = [bool(c) for c in correct_flags]
    size = len(correct)
    if size < 2:
        raise GroupTooSmallError(f"need at least 2 rewards, got {size}")
    x = sum(correct)
    # At x = 0 or x = size the missing side is None, and no flag picks it.
    a_correct, a_wrong = closed_form_advantages(size, x)
    advantages = [a_correct if c else a_wrong for c in correct]
    return RewardGroup(
        gamma=gamma,
        correct=correct,
        x=x,
        rewards=[gamma if c else 0.0 for c in correct],
        advantages=advantages,
        scaled_advantages=scale_advantages(advantages, gamma),
    )


@dataclass(frozen=True, eq=False)
class PolicyLogProbs:
    """Per-token log-probabilities for one response group under three policies.

    current/old/ref hold one read-only float64 array of token log-probs per
    response; the three arrays for a response must align token-for-token.
    """

    current: tuple[np.ndarray, ...]
    old: tuple[np.ndarray, ...]
    ref: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for name in ("current", "old", "ref"):
            rows = tuple(float_array(row, 1, f"{name} log-probs") for row in getattr(self, name))
            object.__setattr__(self, name, rows)
        if not len(self.current) == len(self.old) == len(self.ref):
            raise MisalignedSequencesError(
                f"response counts differ: {len(self.current)}/{len(self.old)}/{len(self.ref)}"
            )
        for i, (cur, old, ref) in enumerate(zip(self.current, self.old, self.ref)):
            if not len(cur) == len(old) == len(ref):
                raise MisalignedSequencesError(
                    f"response {i} token counts differ: {len(cur)}/{len(old)}/{len(ref)}"
                )

    @property
    def num_responses(self) -> int:
        return len(self.current)

    @classmethod
    def from_record(cls, rec: dict) -> "PolicyLogProbs":
        """The log-probs of a logprobs record: one or more responses, one scaled advantage each."""
        check_record(rec, "logprobs")
        log_probs = cls(current=rec["current"], old=rec["old"], ref=rec["ref"])
        _check_group(log_probs, len(rec["scaled_advantages"]))
        return log_probs


def _check_group(log_probs: PolicyLogProbs, advantages: int) -> None:
    """A group needs one or more responses and one scaled advantage per response."""
    if log_probs.num_responses == 0:
        raise GroupTooSmallError("group has no responses")
    if advantages != log_probs.num_responses:
        raise MisalignedSequencesError(f"{advantages} advantages for {log_probs.num_responses} responses")


def _kl_estimate(current: Sequence[float], ref: Sequence[float]) -> float:
    """Token-averaged unbiased KL estimator r - log r - 1 with r = ref/current."""
    if len(current) == 0:
        return 0.0
    log_ratios = np.subtract(ref, current).tolist()
    try:
        # expm1(x) - x never rounds below zero, where exp(x) - x - 1 can for
        # a tiny x; math.expm1, not np.expm1: the two can differ in the last bit.
        per_token = [math.expm1(log_r) - log_r for log_r in log_ratios]
        return math.fsum(per_token) / len(per_token)
    except OverflowError:
        raise NonFiniteError("KL estimate overflowed") from None


def grpo_objective(
    groups: Sequence[tuple[PolicyLogProbs, Sequence[float]]],
    epsilon: float,
    beta: float,
) -> float:
    """Mean over groups of the clipped, KL-penalized surrogate.

    Per response: the importance ratio is exp of the summed log-prob gap to
    the old policy; the surrogate takes the min of the unclipped and clipped
    ratio times the scaled advantage; the KL penalty to the reference policy
    is averaged over tokens and weighted by beta.
    """
    if not epsilon > 0:
        raise RangeError(f"epsilon must be > 0, got {epsilon}")
    if not beta >= 0:
        raise RangeError(f"beta must be >= 0, got {beta}")
    if not groups:
        raise RangeError("need at least one group")
    group_values = []
    for log_probs, scaled_advantages in groups:
        _check_group(log_probs, len(scaled_advantages))
        terms = []
        for cur, old, ref, advantage in zip(
            log_probs.current, log_probs.old, log_probs.ref, scaled_advantages
        ):
            try:
                ratio = math.exp(math.fsum(cur.tolist()) - math.fsum(old.tolist()))
            except OverflowError:
                raise NonFiniteError("importance ratio overflowed") from None
            if not math.isfinite(ratio):
                raise NonFiniteError("importance ratio overflowed")
            clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)
            surrogate = min(ratio * advantage, clipped * advantage)
            term = surrogate - beta * _kl_estimate(cur, ref)
            if not math.isfinite(term):
                raise NonFiniteError("objective term is not finite")
            terms.append(term)
        group_values.append(_finite_mean(terms))
    return _finite_mean(group_values)


def _finite_mean(values: Sequence[float]) -> float:
    """Mean of finite values; a sum beyond the float range is a NonFiniteError."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise NonFiniteError("objective overflowed") from None
