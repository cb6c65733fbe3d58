"""Seeded inputs for the benchmark workloads.

Everything the program reads is generated here from the workload seed and
written as record files; the expectations the checks compare against are
kept beside them in memory.  The same seed always gives the same files.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from toc.gateway import request_digest
from toc.mockgen import synthesize_corpus
from toc.records import RlSample, load_qa_tasks, read_records, write_records
from toc.rl_pipeline import trial_request
from toc.segmentation import DEFAULT_TAU

M_TRIALS = 8
TRIAL_TEMPERATURE = 1.0
BAND = (0.2, 0.8)
GROUP_SIZE = 8
EPSILON = 0.2
BETA = 0.04

# A stitch similarity must stay this far from tau, so a reordered or
# vectorised stitch cannot flip a merge through rounding.
STITCH_MARGIN = 0.05
# Share of noise in a shot direction; cos(shot, scene) = 1/sqrt(1 + 0.25^2).
SHOT_NOISE = 0.25

# Skewed supply per alpha (M = 8).  Alphas 2..6 fall in the 0.2:0.8 band; the
# three small in-band tiers cannot fill their share of the target, so
# balancing must top up from the large ones, which is its slow path.
TIER_SHARES = {0: 0.03, 1: 0.03, 2: 0.50, 3: 0.18, 4: 0.10, 5: 0.06, 6: 0.04, 7: 0.03, 8: 0.03}
RL_TARGET_SHARE = 0.75

_OPTIONS = ("a red kite", "a blue boat", "a green tent", "a grey van", "a white horse")


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files and what a correct run must produce from them."""

    corpus: dict
    gold_answers: dict[str, str]
    sft_digests: Counter
    trial_digests: Counter
    shots: Path
    scene_cuts: dict[str, list[tuple[float, float]]]
    demand: Path
    rl_target: int
    rl_supply: int
    groups: Path
    logprobs: Path
    objective: float

    @property
    def config(self) -> Path:
        return Path(self.corpus["paths"]["config"])


def make_inputs(root: Path, seed: int, *, sft_samples: int, shot_videos: int,
                shots_per_video: int, dims: int, rl_records: int, reward_groups: int,
                grpo_groups: int) -> Inputs:
    root.mkdir(parents=True, exist_ok=True)
    corpus = synthesize_corpus(root / "corpus", sft_samples, seed=seed, m_trials=M_TRIALS)
    tasks = load_qa_tasks(corpus["paths"]["qa"])
    trial_digests = Counter(
        request_digest(trial_request(t.qa, t.video_ref, k, TRIAL_TEMPERATURE))
        for t in tasks
        for k in range(M_TRIALS)
    )
    table = Counter(rec["digest"] for rec in read_records(corpus["paths"]["mock_table"]))
    scene_cuts = write_shots(root / "shots.records", _rng(seed, 1), shot_videos, shots_per_video, dims)
    supply = write_demand(root / "demand.records", _rng(seed, 2), rl_records)
    write_groups(root / "groups.records", _rng(seed, 3), reward_groups)
    objective = write_logprobs(root / "logprobs.records", _rng(seed, 4), grpo_groups)
    return Inputs(
        corpus=corpus,
        gold_answers={t.sample_id: t.qa.answer for t in tasks},
        sft_digests=table - trial_digests,
        trial_digests=trial_digests,
        shots=root / "shots.records",
        scene_cuts=scene_cuts,
        demand=root / "demand.records",
        rl_target=int(rl_records * RL_TARGET_SHARE),
        rl_supply=supply,
        groups=root / "groups.records",
        logprobs=root / "logprobs.records",
        objective=objective,
    )


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def write_shots(path: Path, rng: np.random.Generator, videos: int, shots_per_video: int,
                dims: int) -> dict[str, list[tuple[float, float]]]:
    """Shot sets made of scenes; returns each video's scene spans, the clips stitch must find."""
    cuts: dict[str, list[tuple[float, float]]] = {}

    def rows():
        for v in range(videos):
            lengths = []
            while sum(lengths) < shots_per_video:
                lengths.append(min(int(rng.integers(3, 13)), shots_per_video - sum(lengths)))
            scenes = _unit_rows(rng.standard_normal((len(lengths), dims)))
            direction = np.repeat(scenes, lengths, axis=0)
            noise = _unit_rows(rng.standard_normal((shots_per_video, dims)))
            embeddings = np.round(_unit_rows(direction + SHOT_NOISE * noise), 5)
            boundaries = [0.0] + [
                round(float(b), 2) for b in np.cumsum(rng.uniform(1.0, 6.0, shots_per_video))
            ]
            starts = np.cumsum([0] + lengths)
            _check_margins(embeddings, boundaries, set(starts[1:-1].tolist()))
            video_id = f"s{v:03d}"
            cuts[video_id] = [(boundaries[a], boundaries[b]) for a, b in zip(starts, starts[1:])]
            yield {"video_id": video_id, "boundaries_s": boundaries, "embeddings": embeddings.tolist()}

    write_records(path, rows())
    return cuts


def _check_margins(embeddings: np.ndarray, boundaries: list[float], cut_at: set[int]) -> None:
    """Replay stitch's pooled-cosine test and require every decision to clear tau by the margin."""
    units = _unit_rows(embeddings)
    durations = np.diff(boundaries)
    pooled = durations[0] * units[0]
    for pos in range(1, len(units)):
        similarity = float(units[pos] @ pooled) / float(np.linalg.norm(pooled))
        if pos in cut_at:
            if similarity > DEFAULT_TAU - STITCH_MARGIN:
                raise RuntimeError(f"scene cut at shot {pos} has similarity {similarity:.3f}")
            pooled = durations[pos] * units[pos]
        else:
            if similarity < DEFAULT_TAU + STITCH_MARGIN:
                raise RuntimeError(f"in-scene shot {pos} has similarity {similarity:.3f}")
            pooled = pooled + durations[pos] * units[pos]


def write_demand(path: Path, rng: np.random.Generator, count: int) -> int:
    """Demand records with TIER_SHARES supply in shuffled order; returns the in-band supply."""
    per_alpha = {alpha: int(round(count * share)) for alpha, share in TIER_SHARES.items()}
    per_alpha[2] += count - sum(per_alpha.values())
    alphas = np.repeat(list(per_alpha), list(per_alpha.values()))
    rng.shuffle(alphas)
    rows = []
    for k, alpha in enumerate(alphas.tolist()):
        options = tuple(_OPTIONS[i] for i in rng.permutation(len(_OPTIONS))[:4])
        rows.append(
            RlSample.from_trial_count(
                id=f"q{k:06d}",
                video_id=f"v{int(rng.integers(0, count // 4 + 1)):05d}",
                question=f"What does the camera follow in clip {int(rng.integers(1, 99))}?",
                options=options,
                answer="ABCD"[int(rng.integers(0, 4))],
                alpha=alpha,
                m_trials=M_TRIALS,
            ).to_record()
        )
    write_records(path, rows)
    lo, hi = BAND
    return sum(n for alpha, n in per_alpha.items() if lo <= 1.0 - alpha / M_TRIALS <= hi)


def _group(rng: np.random.Generator) -> tuple[float, list[bool]]:
    gamma = math.exp(-int(rng.integers(0, M_TRIALS + 1)) / M_TRIALS)
    return gamma, [bool(c) for c in rng.random(GROUP_SIZE) < rng.random()]


def write_groups(path: Path, rng: np.random.Generator, count: int) -> None:
    rows = []
    for _ in range(count):
        gamma, correct = _group(rng)
        rows.append({"gamma": gamma, "correct": correct})
    write_records(path, rows)


def write_logprobs(path: Path, rng: np.random.Generator, count: int) -> float:
    """Log-prob groups shaped like sampled policy tokens; returns the reference objective."""
    rows = []
    values = []
    for _ in range(count):
        gamma, correct = _group(rng)
        rewards = np.where(correct, gamma, 0.0)
        std = rewards.std(ddof=1)
        advantages = (rewards - rewards.mean()) / std * gamma if std > 0 else np.zeros(GROUP_SIZE)
        current, old, ref = [], [], []
        for _ in range(GROUP_SIZE):
            tokens = int(rng.integers(64, 193))
            cur = np.round(-np.minimum(rng.exponential(0.6, tokens), 20.0), 6)
            current.append(cur)
            old.append(np.round(np.minimum(cur + rng.normal(0.0, 0.02, tokens), 0.0), 6))
            ref.append(np.round(np.minimum(cur + rng.normal(0.0, 0.08, tokens), 0.0), 6))
        values.append(_reference_group(current, old, ref, advantages))
        rows.append({
            "current": [c.tolist() for c in current],
            "old": [o.tolist() for o in old],
            "ref": [r.tolist() for r in ref],
            "scaled_advantages": advantages.tolist(),
        })
    write_records(path, rows)
    return float(np.mean(values))


def _reference_group(current, old, ref, advantages) -> float:
    """The clipped, KL-penalised surrogate of one group, computed independently in NumPy."""
    terms = []
    for cur, o, r, a in zip(current, old, ref, advantages):
        ratio = math.exp(cur.sum() - o.sum())
        clipped = min(max(ratio, 1.0 - EPSILON), 1.0 + EPSILON)
        log_r = r - cur
        kl = float(np.mean(np.exp(log_r) - log_r - 1.0))
        terms.append(min(ratio * a, clipped * a) - BETA * kl)
    return float(np.mean(terms))
