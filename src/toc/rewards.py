"""Rewards, group-normalized advantages, and the clipped surrogate objective.

Everything here is pure arithmetic on plain floats; math.fsum keeps the
group statistics exact enough for the tight tolerances the tests demand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    GroupTooSmallError,
    MisalignedSequencesError,
    NonFiniteError,
    RangeError,
)
from .records import demand_from_alpha

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


def answers_match(
    extracted: str,
    gold: str,
    qa_type: str = "multiple_choice",
    *,
    numeric_rel_tol: float | None = None,
) -> bool:
    """Compare an extracted answer against the gold one.

    Option letters compare case-insensitively; numerical answers compare as
    trimmed strings unless a relative tolerance is given.
    """
    if extracted == EMPTY_ANSWER:
        return False
    if qa_type == "multiple_choice":
        return extracted.strip().upper() == gold.strip().upper()
    if qa_type == "numerical" and numeric_rel_tol is not None:
        try:
            return math.isclose(float(extracted), float(gold), rel_tol=numeric_rel_tol)
        except ValueError:
            return False
    return extracted.strip() == gold.strip()


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
    to yield all-zero advantages rather than dividing by zero.
    """
    size = len(rewards)
    if size < 2:
        raise GroupTooSmallError(f"need at least 2 rewards, got {size}")
    first = rewards[0]
    if all(r == first for r in rewards):
        return [0.0] * size
    mean = math.fsum(rewards) / size
    variance = math.fsum((r - mean) ** 2 for r in rewards) / (size - 1)
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
class ResponseOutcome:
    """One response's scoring trail, from text to scaled advantage."""

    response_text: str
    correct: bool
    reward: float
    advantage: float
    scaled_advantage: float


@dataclass(frozen=True)
class RewardGroup:
    """A full response group scored under one question's demand gamma."""

    gamma: float
    size: int
    outcomes: tuple[ResponseOutcome, ...]
    x: int

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise RangeError(f"gamma must be in (0, 1], got {self.gamma}")
        if len(self.outcomes) != self.size:
            raise ValueError(f"{len(self.outcomes)} outcomes for declared size {self.size}")
        correct = sum(1 for o in self.outcomes if o.correct)
        if correct != self.x:
            raise ValueError(f"declared x={self.x} but {correct} outcomes are correct")

    @property
    def rewards(self) -> list[float]:
        return [o.reward for o in self.outcomes]

    @property
    def advantages(self) -> list[float]:
        return [o.advantage for o in self.outcomes]

    @property
    def scaled_advantages(self) -> list[float]:
        return [o.scaled_advantage for o in self.outcomes]


def score_flags(gamma: float, correct_flags: Sequence[bool], texts: Sequence[str] | None = None) -> RewardGroup:
    """Score a group from correctness flags alone."""
    if not 0.0 < gamma <= 1.0:
        raise RangeError(f"gamma must be in (0, 1], got {gamma}")
    if texts is None:
        texts = [""] * len(correct_flags)
    rewards = [gamma if c else 0.0 for c in correct_flags]
    advantages = normalize_advantages(rewards)
    scaled = scale_advantages(advantages, gamma)
    outcomes = tuple(
        ResponseOutcome(
            response_text=text,
            correct=bool(c),
            reward=r,
            advantage=a,
            scaled_advantage=s,
        )
        for text, c, r, a, s in zip(texts, correct_flags, rewards, advantages, scaled)
    )
    return RewardGroup(gamma=gamma, size=len(outcomes), outcomes=outcomes, x=sum(map(bool, correct_flags)))


def score_group(
    responses: Sequence[str],
    gold: str,
    alpha: int,
    m: int,
    qa_type: str = "multiple_choice",
    *,
    numeric_rel_tol: float | None = None,
) -> RewardGroup:
    """Extract, match, and score a group of raw response texts."""
    gamma = demand_from_alpha(alpha, m)
    flags = [
        answers_match(extract_answer(text), gold, qa_type, numeric_rel_tol=numeric_rel_tol)
        for text in responses
    ]
    return score_flags(gamma, flags, texts=responses)


@dataclass(frozen=True)
class PolicyLogProbs:
    """Per-token log-probabilities for one response group under three policies.

    current/old/ref are indexed [response][token]; the three sequences for a
    response must align token-for-token.
    """

    current: tuple[tuple[float, ...], ...]
    old: tuple[tuple[float, ...], ...]
    ref: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not len(self.current) == len(self.old) == len(self.ref):
            raise MisalignedSequencesError(
                f"response counts differ: {len(self.current)}/{len(self.old)}/{len(self.ref)}"
            )
        for i, (cur, old, ref) in enumerate(zip(self.current, self.old, self.ref)):
            if not len(cur) == len(old) == len(ref):
                raise MisalignedSequencesError(
                    f"response {i} token counts differ: {len(cur)}/{len(old)}/{len(ref)}"
                )
            for seq in (cur, old, ref):
                if any(not math.isfinite(v) for v in seq):
                    raise NonFiniteError(f"non-finite log-probability in response {i}")

    @property
    def num_responses(self) -> int:
        return len(self.current)

    @classmethod
    def from_record(cls, rec: dict) -> "PolicyLogProbs":
        as_tuples = lambda rows: tuple(tuple(float(v) for v in row) for row in rows)
        return cls(current=as_tuples(rec["current"]), old=as_tuples(rec["old"]), ref=as_tuples(rec["ref"]))


def _kl_estimate(current: Sequence[float], ref: Sequence[float]) -> float:
    """Token-averaged unbiased KL estimator r - log r - 1 with r = ref/current."""
    if not current:
        return 0.0
    log_ratios = [ref_lp - cur_lp for cur_lp, ref_lp in zip(current, ref)]
    try:
        per_token = [math.exp(log_r) - log_r - 1.0 for log_r in log_ratios]
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
    if epsilon <= 0:
        raise RangeError(f"epsilon must be > 0, got {epsilon}")
    if beta < 0:
        raise RangeError(f"beta must be >= 0, got {beta}")
    if not groups:
        raise RangeError("need at least one group")
    group_values = []
    for log_probs, scaled_advantages in groups:
        if log_probs.num_responses == 0:
            raise GroupTooSmallError("group has no responses")
        if len(scaled_advantages) != log_probs.num_responses:
            raise MisalignedSequencesError(
                f"{len(scaled_advantages)} advantages for {log_probs.num_responses} responses"
            )
        terms = []
        for cur, old, ref, advantage in zip(
            log_probs.current, log_probs.old, log_probs.ref, scaled_advantages
        ):
            try:
                ratio = math.exp(math.fsum(cur) - math.fsum(old))
            except OverflowError:
                raise NonFiniteError("importance ratio overflowed") from None
            if not math.isfinite(ratio):
                raise NonFiniteError("importance ratio overflowed")
            clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)
            surrogate = min(ratio * advantage, clipped * advantage)
            terms.append(surrogate - beta * _kl_estimate(cur, ref))
        group_values.append(math.fsum(terms) / len(terms))
    return math.fsum(group_values) / len(group_values)
