"""Benchmark of the toc toolchain.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs every stage of the
workload again and again until S seconds have passed, checks every output,
and prints one JSON object as the last line of standard output: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate
traced run with ``--trace 1``.  Metric names and units come from
BENCHMARK.json.  Run it from a checkout; it reads and writes only inside it.

``setup_s`` and ``wall_s`` are the medians of the run's set-up and iteration
times.  Each stage's rate is the first decile of its repetitions' rates, the
rate nine repetitions in ten match or beat: load from other tenants of a
shared machine comes in bursts, and over ten runs on a shared 2-core VM this
figure spread less than the median or the best repetition did.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# Set-up is short, so each untraced iteration is followed by this many more
# set-ups, timed alone; the samples are spread over the run.
SETUP_SAMPLES = 3

STAGE_RATES = {
    "sft_cold": "sft_samples_per_s",
    "demand": "demand_questions_per_s",
    "segment": "segment_shots_per_s",
    "build_rl": "rl_samples_per_s",
    "reward": "reward_groups_per_s",
    "grpo_eval": "objective_tokens_per_s",
}


def first_decile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def iteration_wall(runs) -> float:
    return sum(r.setup_s + r.process_s for r in runs.values())


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the workload for ``seconds``; return the result object the benchmark prints."""
    from instrument import Tracer, write_spans
    from inputs import make_inputs
    from layers import per_layer
    from workloads import BENCHMARK
    from stages import Context, run_iteration, setup_only

    ctx = Context(workload, make_inputs(work / "inputs", seed, **workload.sizes()), work / "out")
    untraced, traced, tracers, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        ctx.tracer = None
        untraced.append(run_iteration(ctx))
        setups.append(sum(r.setup_s for r in untraced[-1].values()))
        if not trace:
            setups.extend(setup_only(ctx) for _ in range(SETUP_SAMPLES))
        if trace:
            ctx.tracer = Tracer(f"{workload.name}-{seed}-{len(tracers)}")
            tracers.append(ctx.tracer)
            traced.append(run_iteration(ctx))
        if time.perf_counter() >= deadline:
            break
    ctx.tracer = None
    every = untraced + traced
    attempted = sum(r.attempted for runs in every for r in runs.values())
    failed = sum(r.failed for runs in every for r in runs.values())
    if trace:
        overhead = (statistics.median(map(iteration_wall, traced))
                    / statistics.median(map(iteration_wall, untraced)) - 1.0)
        metrics = per_layer(ctx, traced[-1], tracers[-1].spans, overhead)
        write_spans(work.with_name(f"trace-{work.name}.jsonl"), tracers)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(map(iteration_wall, untraced)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for stage, name in STAGE_RATES.items():
            rates = [rate for runs in untraced for rate in runs[stage].rates]
            values[name] = first_decile(rates)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "iterations": len(untraced),
        "stages": {
            name: {"attempted": sum(runs[name].attempted for runs in every),
                   "failed": sum(runs[name].failed for runs in every)}
            for name in untraced[0]
        },
    }


def report(name: str, seed: int, result: dict) -> None:
    """Human-readable lines ahead of the JSON line."""
    print(f"workload {name}, seed {seed}: {result['iterations']} untraced iterations")
    for metric, m in result["metrics"].items():
        print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':36s} {ratio:>16.6g} ratio ({result['failed']}/{result['attempted']})")
    for stage, counts in result["stages"].items():
        print(f"  stage {stage:30s} failed {counts['failed']}/{counts['attempted']}")


def main(argv: list[str] | None = None) -> int:
    from workloads import BENCHMARK, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toc" / "__init__.py").is_file():
        print(f"error: no toc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args.workload, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
