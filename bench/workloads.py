"""The benchmark's workloads.

Both workloads run all seven stages, so every end-to-end metric has a value
on each; what differs is which stages carry the load:

* ``pipeline_latency``: an 80-sample corpus, 5 ms injected per model call,
  parallelism 2 (the machine has 2 cores).  Wall time is set by how many
  calls the gateway keeps in flight, so it shows scheduling and concurrency.
* ``math_bulk``: 2.5k shots x 512 dims, 8k skewed demand records, 5k reward
  groups and 64 log-prob groups, each stage repeated, so stitching, tier
  balancing and the reward math do nearly all their work here.  Its
  pipeline stages run a 30-sample corpus at 5 ms and parallelism 1: the
  serial baseline for the scheduler.

No workload runs build-sft at zero latency.  There it is bound by state-file
IO, which on a shared 2-core VM varied 2-3x from minute to minute; its
cost shows per layer (``sft.self_s``, ``state.*``) in the traced runs.

The stages a workload does not stress run at a small size.  ``reps`` repeats
a stage's processing after one set-up, in rounds interleaved with the other
stages, so that every stage yields enough samples in a run; the corpora are
kept small for the same reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# Names, units, directions and bounds of every metric, and why each workload
# was chosen, are kept in BENCHMARK.json alone.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    sft_samples: int
    latency_s: float
    parallelism: int
    shot_videos: int
    shots_per_video: int
    dims: int
    rl_records: int
    reward_groups: int
    grpo_groups: int
    reps: dict[str, int] = field(default_factory=dict)

    def sizes(self) -> dict[str, int]:
        return {
            "sft_samples": self.sft_samples,
            "shot_videos": self.shot_videos,
            "shots_per_video": self.shots_per_video,
            "dims": self.dims,
            "rl_records": self.rl_records,
            "reward_groups": self.reward_groups,
            "grpo_groups": self.grpo_groups,
        }


_SMALL_MATH = dict(shot_videos=5, shots_per_video=100, dims=512, rl_records=4000,
                   reward_groups=2000, grpo_groups=64)
_SMALL_MATH_REPS = {"segment": 6, "build_rl": 4, "reward": 6, "grpo_eval": 6}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline_latency", sft_samples=80, latency_s=0.005, parallelism=2,
                 reps={"sft_resume": 60, **_SMALL_MATH_REPS}, **_SMALL_MATH),
        Workload("math_bulk", sft_samples=30, latency_s=0.005, parallelism=1,
                 shot_videos=25, shots_per_video=100, dims=512, rl_records=8000,
                 reward_groups=5000, grpo_groups=64,
                 reps={"sft_resume": 100, "segment": 4, "build_rl": 3, "reward": 4,
                       "grpo_eval": 6}),
    )
}
