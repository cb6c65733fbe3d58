"""The stages of one workload iteration: set-up, processing and an untimed check.

Each stage calls the same public functions the matching ``toc`` subcommand
calls.  Set-up is what the subcommand does before its first item: load the
config, build the gateway (which parses the mock table) and load the input
records.  Processing runs from the first item until the output files are
written.  The check runs afterwards and returns how many items failed it;
a stage that raises fails every item it attempted.
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from instrument import Tracer, Traffic, instrument, span
from inputs import BAND, BETA, EPSILON, Inputs
from toc.cli import sig12
from toc.config import apply_overrides, build_gateway, load_config
from toc.gateway import request_digest
from toc.records import (
    RlSample,
    SftSample,
    dump_record,
    load_qa_tasks,
    read_records,
    write_records,
)
from toc.rewards import PolicyLogProbs, closed_form_advantages, grpo_objective, score_flags
from toc.rl_pipeline import run_build_rl, run_demand_pipeline, tier_histogram
from toc.segmentation import DEFAULT_TAU, ShotBoundarySet, stitch
from toc.sft_pipeline import load_clips, run_sft_pipeline
from workloads import Workload


@dataclass
class Context:
    workload: Workload
    inputs: Inputs
    out: Path
    tracer: Tracer | None = None
    cold_output: bytes | None = None

    @property
    def sft_out(self) -> Path:
        return self.out / "sft" / "sft.records"


@dataclass
class StageRun:
    """One stage of one iteration; ``rates`` holds items per second of each repetition."""

    name: str
    setup_s: float = 0.0
    process_s: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    rates: list[float] = field(default_factory=list)
    outcome: object = None
    calls: Counter = field(default_factory=Counter)
    retries: int = 0
    errors: int = 0


@dataclass(frozen=True)
class Stage:
    name: str
    setup: Callable[[Context], object]
    process: Callable[[Context, object], object]
    # (ctx, loaded, outcome) -> (items processed, items attempted, items failed)
    check: Callable[[Context, object, object], tuple[int, int, int]]
    prepare: Callable[[Context], None] = lambda ctx: None
    outputs: tuple[str, ...] = ()


def _read(ctx: Context, path: Path, loader):
    if ctx.tracer is None:
        return loader(path)
    with ctx.tracer.span("records.read", bytes=Path(path).stat().st_size):
        return loader(path)


@dataclass
class Pipeline:
    """What build-sft and estimate-demand have loaded when their first sample starts."""

    config: object
    gateway: object
    traffic: Traffic
    tasks: list
    clips: dict | None = None


def _pipeline_setup(ctx: Context, with_clips: bool) -> Pipeline:
    """The CLI's set-up, with the benchmark's backend wrapper and gateway proxy."""
    with span(ctx.tracer, "config.load"):
        config = apply_overrides(load_config(ctx.inputs.config),
                                 parallelism=ctx.workload.parallelism)
    with span(ctx.tracer, "gateway.build"):
        gateway = build_gateway(config)
    proxy, traffic = instrument(gateway, ctx.workload.latency_s, ctx.tracer)
    paths = ctx.inputs.corpus["paths"]
    tasks = _read(ctx, paths["qa"], load_qa_tasks)
    clips = _read(ctx, paths["clips"], load_clips) if with_clips else None
    return Pipeline(config, proxy, traffic, tasks, clips)


def _traffic_failures(traffic: Traffic, expected: Counter) -> int:
    """Requests made other than exactly once per scripted request, plus retries."""
    made = Counter(request_digest(r) for r in traffic.calls)
    return sum(((made - expected) + (expected - made)).values()) + traffic.retries


# --- build-sft, cold and resumed ---


def sft_setup(ctx: Context) -> Pipeline:
    return _pipeline_setup(ctx, with_clips=True)


def sft_process(ctx: Context, p: Pipeline):
    return run_sft_pipeline(p.gateway, p.tasks, p.clips, ctx.sft_out,
                            lenient=not p.config.strict_parsing, workers=p.config.parallelism)


def _sft_output(ctx: Context) -> bytes:
    rejected = Path(f"{ctx.sft_out}.rejected")
    return ctx.sft_out.read_bytes() + b"\0" + rejected.read_bytes()


def sft_cold_prepare(ctx: Context) -> None:
    shutil.rmtree(ctx.sft_out.parent, ignore_errors=True)
    ctx.sft_out.parent.mkdir(parents=True)


def sft_cold_check(ctx: Context, p: Pipeline, report) -> tuple[int, int, int]:
    """Emitted count and rejection reasons match the manifest; every record is well formed."""
    manifest = ctx.inputs.corpus
    failed = abs(report["emitted"] - manifest["expected_emitted"])
    expected, got = Counter(manifest["expected_rejections"]), Counter(report["rejection_reasons"])
    failed += sum(((expected - got) + (got - expected)).values())
    for rec in read_records(ctx.sft_out):
        try:
            SftSample.from_record(rec).validate()
            ok = rec["answer"] == ctx.inputs.gold_answers.get(rec["id"])
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    failed += _traffic_failures(p.traffic, ctx.inputs.sft_digests)
    ctx.cold_output = _sft_output(ctx)
    return report["total"], report["total"], failed


def sft_resume_check(ctx: Context, p: Pipeline, report) -> tuple[int, int, int]:
    """A resumed finished run makes no model call and rewrites the same bytes."""
    total = report["total"]
    failed = len(p.traffic.calls) + p.traffic.retries
    if _sft_output(ctx) != ctx.cold_output:
        failed = total
    return total, total, failed


# --- estimate-demand ---


def demand_setup(ctx: Context) -> Pipeline:
    return _pipeline_setup(ctx, with_clips=False)


def demand_process(ctx: Context, p: Pipeline):
    annotated, skipped = run_demand_pipeline(p.gateway, p.tasks, p.config.m_trials,
                                             temperature=p.config.trial_temperature,
                                             workers=p.config.parallelism)
    write_records(ctx.out / "demand.records", (s.to_record() for s in annotated))
    return annotated, skipped


def demand_check(ctx: Context, p: Pipeline, outcome) -> tuple[int, int, int]:
    """alpha equals the manifest's; exactly M calls per question, each scripted trial once."""
    annotated, skipped = outcome
    expected = ctx.inputs.corpus["expected_alphas"]
    failed = abs(len(annotated) - len(expected))
    for sample, alpha in zip(annotated, expected):
        failed += sample.alpha != alpha or not sample.recompute_consistent()
    failed += _traffic_failures(p.traffic, ctx.inputs.trial_digests)
    questions = len(annotated) + sum(skipped.values())
    return questions, questions, failed


# --- segment ---


def segment_setup(ctx: Context):
    return _read(ctx, ctx.inputs.shots, lambda p: list(read_records(p)))


def segment_process(ctx: Context, records):
    clips_by_video = {}
    shots = 0
    for rec in records:
        shot_set = ShotBoundarySet.from_record(rec)
        shots += shot_set.shot_count
        clips_by_video[shot_set.video_id] = stitch(shot_set, DEFAULT_TAU)
    write_records(ctx.out / "clips.records",
                  (c.to_record() for clips in clips_by_video.values() for c in clips))
    return shots, clips_by_video


def segment_check(ctx: Context, records, outcome) -> tuple[int, int, int]:
    """Clip spans equal the generator's scene spans, video by video."""
    shots, clips_by_video = outcome
    cuts = ctx.inputs.scene_cuts
    failed = sum(
        [(c.start_s, c.end_s) for c in clips_by_video.get(video, [])] != spans
        for video, spans in cuts.items()
    )
    return shots, len(cuts), failed


# --- build-rl ---


def rl_setup(ctx: Context):
    return _read(ctx, ctx.inputs.demand, lambda p: list(read_records(p)))


def rl_process(ctx: Context, records):
    samples = [RlSample.from_record(rec) for rec in records]
    selected, _ = run_build_rl(samples, *BAND, ctx.inputs.rl_target, seed=0)
    write_records(ctx.out / "rl.records", (s.to_record() for s in selected))
    return samples, selected


def rl_check(ctx: Context, records, outcome) -> tuple[int, int, int]:
    """Size min(target, supply); every pick in band and distinct; balanced tiers.

    Balanced means every tier that still has unused supply is within 1 of the
    largest tier; a tier can only fall further behind by running out.
    """
    samples, selected = outcome
    lo, hi = BAND
    supply = tier_histogram([s for s in samples if lo <= s.difficulty <= hi])
    counts = tier_histogram(selected)
    top = max(counts.values(), default=0)
    ok = (
        len(selected) == min(ctx.inputs.rl_target, ctx.inputs.rl_supply)
        and len({s.id for s in selected}) == len(selected)
        and all(lo <= s.difficulty <= hi and s.recompute_consistent() for s in selected)
        and all(counts.get(t, 0) >= top - 1 for t, n in supply.items() if counts.get(t, 0) < n)
    )
    return len(records), len(records), 0 if ok else len(records)


# --- reward and grpo-eval ---


def reward_setup(ctx: Context):
    return _read(ctx, ctx.inputs.groups, lambda p: list(read_records(p)))


def reward_process(ctx: Context, records):
    """cmd_reward, printing each row to the output file instead of standard output."""
    with open(ctx.out / "reward.records", "w", encoding="utf-8") as out:
        for pos, rec in enumerate(records):
            group = score_flags(float(rec["gamma"]), [bool(c) for c in rec["correct"]])
            print(
                dump_record(
                    {
                        "group": pos,
                        "gamma": sig12(group.gamma),
                        "x": group.x,
                        "size": group.size,
                        "rewards": [sig12(r) for r in group.rewards],
                        "advantages": [sig12(a) for a in group.advantages],
                        "scaled_advantages": [sig12(a) for a in group.scaled_advantages],
                    }
                ),
                file=out,
            )


def reward_check(ctx: Context, records, _) -> tuple[int, int, int]:
    """Advantages equal closed_form_advantages; scaled ones are advantage times gamma."""
    rows = list(read_records(ctx.out / "reward.records"))
    failed = abs(len(rows) - len(records))
    for rec, row in zip(records, rows):
        size, x = len(rec["correct"]), sum(map(bool, rec["correct"]))
        a_correct, a_wrong = closed_form_advantages(size, x)
        expected = [(a_correct if c else a_wrong) or 0.0 for c in rec["correct"]]
        gamma = rec["gamma"]
        failed += not (
            row["x"] == x
            and all(abs(a - e) <= 1e-9 for a, e in zip(row["advantages"], expected))
            and all(abs(s - e * gamma) <= 1e-9 for s, e in zip(row["scaled_advantages"], expected))
        )
    return len(records), len(records), failed


def grpo_setup(ctx: Context):
    return _read(ctx, ctx.inputs.logprobs, lambda p: list(read_records(p)))


def grpo_process(ctx: Context, records):
    groups = [
        (PolicyLogProbs.from_record(rec), [float(a) for a in rec["scaled_advantages"]])
        for rec in records
    ]
    objective = grpo_objective(groups, EPSILON, BETA)
    write_records(ctx.out / "objective.records",
                  [{"objective": sig12(objective), "groups": len(groups)}])
    return objective


def grpo_check(ctx: Context, records, objective) -> tuple[int, int, int]:
    """The objective equals an independent NumPy evaluation of the same inputs."""
    tokens = sum(len(seq) for rec in records for seq in rec["current"])
    reference = ctx.inputs.objective
    ok = abs(objective - reference) <= 1e-9 * max(1.0, abs(reference))
    return tokens, len(records), 0 if ok else len(records)


STAGES = (
    Stage("sft_cold", sft_setup, sft_process, sft_cold_check, sft_cold_prepare,
          ("sft/sft.records", "sft/sft.records.rejected")),
    Stage("sft_resume", sft_setup, sft_process, sft_resume_check),
    Stage("demand", demand_setup, demand_process, demand_check, outputs=("demand.records",)),
    Stage("segment", segment_setup, segment_process, segment_check, outputs=("clips.records",)),
    Stage("build_rl", rl_setup, rl_process, rl_check, outputs=("rl.records",)),
    Stage("reward", reward_setup, reward_process, reward_check, outputs=("reward.records",)),
    Stage("grpo_eval", grpo_setup, grpo_process, grpo_check, outputs=("objective.records",)),
)


def set_up(stage: Stage, ctx: Context, run: StageRun):
    t0 = time.perf_counter()
    with span(ctx.tracer, "setup", of=stage.name):
        loaded = stage.setup(ctx)
    run.setup_s = time.perf_counter() - t0
    return loaded


def repeat(stage: Stage, ctx: Context, run: StageRun, loaded) -> None:
    """Prepare, process and check once; only processing is timed."""
    traffic = getattr(loaded, "traffic", None)
    stage.prepare(ctx)
    if traffic is not None:
        traffic.clear()
    t0 = time.perf_counter()
    with span(ctx.tracer, stage.name, stage=True):
        run.outcome = stage.process(ctx, loaded)
    elapsed = time.perf_counter() - t0
    run.process_s += elapsed
    items, attempted, failed = stage.check(ctx, loaded, run.outcome)
    run.rates.append(items / elapsed)
    run.items += items
    run.attempted += attempted
    run.failed += min(failed, attempted)
    if traffic is not None:
        run.calls.update(r.model_role for r in traffic.calls)
        run.retries += traffic.retries
        run.errors += len(traffic.errors)


def setup_only(ctx: Context) -> float:
    """Seconds one iteration spends in set-up, measured without processing anything."""
    t0 = time.perf_counter()
    for stage in STAGES:
        stage.setup(ctx)
    return time.perf_counter() - t0


# Rounds per iteration; a stage's repetitions are shared out over them.
ROUNDS = 6


def run_iteration(ctx: Context) -> dict[str, StageRun]:
    """Run every stage ``reps`` times, shared out as evenly as the count allows
    over ROUNDS rounds.  Each round runs the stages in order, each its share
    of the repetitions; a stage is set up in the first round it runs in.

    Interleaving the repetitions spreads each stage's samples over the
    iteration, so that a burst of load from another tenant of the machine
    falls on few samples of any one stage.  A stage that raises fails every
    item it attempted and is not repeated.
    """
    shutil.rmtree(ctx.out, ignore_errors=True)
    ctx.out.mkdir(parents=True)
    runs = {stage.name: StageRun(stage.name) for stage in STAGES}
    left = {stage.name: ctx.workload.reps.get(stage.name, 1) for stage in STAGES}
    loaded, broken = {}, set()
    for round_ in range(ROUNDS):
        for stage in STAGES:
            share = -(-left[stage.name] // (ROUNDS - round_))
            if not share or stage.name in broken:
                continue
            left[stage.name] -= share
            run = runs[stage.name]
            try:
                if stage.name not in loaded:
                    loaded[stage.name] = set_up(stage, ctx, run)
                for _ in range(share):
                    repeat(stage, ctx, run, loaded[stage.name])
            except Exception:
                traceback.print_exc(file=sys.stderr)
                broken.add(stage.name)
                run.attempted = max(run.attempted, 1)
                run.failed = run.attempted
    if ctx.tracer is None:
        for run in runs.values():
            run.outcome = None  # only traced iterations feed the layer metrics
    return runs
