"""Per-layer metrics of a traced iteration.

They come from two sources.  Spans recorded around the stage calls, the
gateway proxy and the latency backend measure those layers in place.
Replays of each internal layer's public functions on the workload's own
inputs measure the layers the pipelines call from inside, where a span would
mean changing the program.
"""

from __future__ import annotations

import time
from collections import Counter

from inputs import BAND, BETA, EPSILON
from instrument import instrument, self_times
from stages import STAGES, Context, StageRun
from toc.config import build_gateway, load_config
from toc.cue_tree import backtrack, build_tree, layer_compilations
from toc.errors import ParseError
from toc.gateway import MODEL_ROLES, Gateway, request_digest
from toc.records import RlSample, load_qa_tasks, read_records, write_records
from toc.rewards import PolicyLogProbs, grpo_objective, score_flags
from toc.rl_pipeline import balance_tiers, filter_by_difficulty, tier_histogram, trial_request
from toc.segmentation import DEFAULT_TAU, ShotBoundarySet, stitch
from toc.sft_pipeline import (
    caption_clips,
    caption_compilations,
    filter_request,
    load_clips,
    rationale_request,
    selection_request,
)
from toc.templates import (
    parse_index_array,
    parse_yes_no,
    render_train_infer,
    step_numbers,
    strip_step_markers,
)
from workloads import BENCHMARK

# Self time of each span name, reported under the layer's metric name.  The
# proxy's self time is the wait outside the backend: semaphore, retries and
# dispatch.  Backend spans have no children, so theirs is the busy time.
SELF_TIME = {
    "setup": "setup.self_s",
    "config.load": "config.load_s",
    "gateway.build": "gateway.build_s",
    "records.read": "records.read_s",
    "gateway": "gateway.wait_s",
    "backend": "backend.busy_s",
    "sft_cold": "sft.self_s",
    "sft_resume": "sft_resume.self_s",
    "demand": "demand.self_s",
    "segment": "segment.self_s",
    "build_rl": "rl.self_s",
    "reward": "reward.self_s",
    "grpo_eval": "grpo.self_s",
}

# Stages that make model calls; utilisation is measured over their time.
CALLING_STAGES = ("sft_cold", "demand")
SFT_REPLAY_SAMPLES = 300


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def _timed(bucket: list[float], fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    bucket.append(time.perf_counter() - t0)
    return result


def from_spans(ctx: Context, runs: dict[str, StageRun], spans: list[dict]) -> dict[str, float]:
    m = {metric: 0.0 for metric in SELF_TIME.values()}
    for name, seconds in self_times(spans).items():
        m[SELF_TIME[name]] = seconds
    calls = sum((r.calls for r in runs.values()), Counter())
    call_ms = [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "gateway"]
    busy = sum(s["end"] - s["start"] for s in spans if s["name"] == "backend")
    capacity = sum(s["end"] - s["start"] for s in spans if s["name"] in CALLING_STAGES)
    cold, resume, demand = runs["sft_cold"], runs["sft_resume"], runs["demand"]
    rl_counts = tier_histogram(runs["build_rl"].outcome[1])
    state_files = [
        p for p in ctx.sft_out.parent.rglob("*")
        if p.is_file() and p.name not in (ctx.sft_out.name, f"{ctx.sft_out.name}.rejected")
    ]
    m.update({
        "gateway.calls.mllm": calls["mllm"],
        "gateway.calls.llm": calls["llm"],
        "gateway.retries": sum(r.retries for r in runs.values()),
        "gateway.errors": sum(r.errors for r in runs.values()),
        "gateway.call_ms.p50": percentile(call_ms, 50),
        "gateway.call_ms.p99": percentile(call_ms, 99),
        "gateway.inflight_util": busy / (capacity * ctx.workload.parallelism) if capacity else 0.0,
        "records.bytes_in": sum(s.get("bytes", 0) for s in spans if s["name"] == "records.read"),
        "sft.calls_per_sample": sum(cold.calls.values()) / cold.items,
        "sft.yield": cold.outcome["emitted"] / cold.outcome["total"],
        "sft.resume_calls": sum(resume.calls.values()),
        "state.files": len(state_files),
        "state.bytes": sum(p.stat().st_size for p in state_files),
        "demand.calls_per_question": sum(demand.calls.values()) / demand.items,
        "segmentation.clips_out": sum(len(c) for c in runs["segment"].outcome[1].values()),
        "rl.tiers": len(rl_counts),
        "rl.tier_spread": max(rl_counts.values()) - min(rl_counts.values()) if rl_counts else 0,
    })
    return m


def replay_sft(ctx: Context) -> dict[str, float]:
    """Walk the first samples through the SFT layer functions on a plain mock gateway.

    Times prompt rendering, reply parsing and the cue tree one call at a
    time, then replays every request the walk made through the digest, the
    mock table and a gateway whose backends answer at once.
    """
    config = load_config(ctx.inputs.config)
    gateway = build_gateway(config)
    mock = gateway.backends["mllm"]
    proxy, traffic = instrument(gateway, 0.0, None)
    paths = ctx.inputs.corpus["paths"]
    tasks = load_qa_tasks(paths["qa"])[:SFT_REPLAY_SAMPLES]
    clips_by_video = load_clips(paths["clips"])
    render: list[float] = []
    parse: list[float] = []
    tree: list[float] = []
    chain_lengths = []
    for task in tasks:
        captioned = caption_clips(proxy, clips_by_video[task.video_id])
        request = _timed(render, selection_request, captioned, task.qa)
        try:
            selected = _timed(parse, parse_index_array, proxy.complete(request),
                              not config.strict_parsing)
        except ParseError:
            continue
        chain = _timed(tree, lambda: layer_compilations(backtrack(build_tree(len(captioned)), selected)))
        chain_lengths.append(len(chain))
        cues = [c.caption for c in caption_compilations(proxy, chain, captioned)]
        request = _timed(render, filter_request, cues[-1], task.qa)
        if not _timed(parse, parse_yes_no, proxy.complete(request)):
            continue
        request = _timed(render, rationale_request, cues, task.qa)
        reply = proxy.complete(request)
        _timed(parse, lambda: (step_numbers(reply), strip_step_markers(reply)))
        _timed(render, render_train_infer, task.qa.formatted_question(), task.qa.qa_type)
    requests = traffic.calls + [
        _timed(render, trial_request, task.qa, task.video_ref, k, config.trial_temperature)
        for task in tasks
        for k in range(config.m_trials)
    ]

    def per_request_us(fn) -> float:
        t0 = time.perf_counter()
        for request in requests:
            fn(request)
        return (time.perf_counter() - t0) / len(requests) * 1e6

    bare = Gateway(backends={role: _Instant() for role in MODEL_ROLES}, max_in_flight=1)
    return {
        "templates.render_us_per_prompt": sum(render) / len(render) * 1e6,
        "templates.parse_us_per_reply": sum(parse) / len(parse) * 1e6,
        "cue_tree.us_per_sample": sum(tree) / len(tree) * 1e6,
        "cue_tree.chain_len_mean": sum(chain_lengths) / len(chain_lengths),
        "digest.us_per_request": per_request_us(request_digest),
        "mock.lookup_us": per_request_us(mock.complete),
        "gateway.dispatch_us": per_request_us(bare.complete),
    }


class _Instant:
    def complete(self, request) -> str:
        return ""


def replay_math(ctx: Context) -> dict[str, float]:
    """Time the segmentation, balancing and reward functions on the workload's inputs."""
    parse: list[float] = []
    stitch_s: list[float] = []
    shot_sets = [_timed(parse, ShotBoundarySet.from_record, rec) for rec in read_records(ctx.inputs.shots)]
    for shot_set in shot_sets:
        _timed(stitch_s, stitch, shot_set, DEFAULT_TAU)
    samples = [RlSample.from_record(rec) for rec in read_records(ctx.inputs.demand)]
    filter_s: list[float] = []
    balance_s: list[float] = []
    in_band = _timed(filter_s, filter_by_difficulty, samples, *BAND)
    _timed(balance_s, balance_tiers, in_band, ctx.inputs.rl_target, 0)
    score: list[float] = []
    for rec in read_records(ctx.inputs.groups):
        _timed(score, score_flags, float(rec["gamma"]), [bool(c) for c in rec["correct"]])
    groups = [
        (PolicyLogProbs.from_record(rec), [float(a) for a in rec["scaled_advantages"]])
        for rec in read_records(ctx.inputs.logprobs)
    ]
    objective: list[float] = []
    _timed(objective, grpo_objective, groups, EPSILON, BETA)
    responses = sum(lp.num_responses for lp, _ in groups)
    return {
        "segmentation.parse_s": sum(parse),
        "segmentation.stitch_s": sum(stitch_s),
        "rl.filter_s": filter_s[0],
        "rl.balance_s": balance_s[0],
        "rewards.score_us_per_group": sum(score) / len(score) * 1e6,
        "rewards.objective_us_per_response": objective[0] / responses * 1e6,
    }


def replay_writes(ctx: Context) -> dict[str, float]:
    """Rewrite every output file of the iteration with write_records."""
    written: list[float] = []
    size = 0
    scratch = ctx.out / "rewrite.records"
    for stage in STAGES:
        for name in stage.outputs:
            path = ctx.out / name
            records = list(read_records(path))
            size += path.stat().st_size
            _timed(written, write_records, scratch, records)
    scratch.unlink()
    return {"records.write_s": sum(written), "records.bytes_out": size}


def per_layer(ctx: Context, runs: dict[str, StageRun], spans: list[dict],
              overhead: float) -> dict[str, dict]:
    values = from_spans(ctx, runs, spans)
    values.update(replay_sft(ctx))
    values.update(replay_math(ctx))
    values.update(replay_writes(ctx))
    values["trace.overhead_ratio"] = overhead
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK["per_layer"]}
