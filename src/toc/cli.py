"""Command-line entry point.

Subcommands mirror the pipeline stages: segment, tree, build-sft,
estimate-demand, build-rl, reward, grpo-eval.  Commands that write an
output file also write `<output>.report`; print-only commands write a
report only when --report is given.  Exit codes: 0 success, 1 run error,
2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from .config import apply_overrides, build_gateway, load_config
from .cue_tree import backtrack, build_tree, layer_compilations
from .errors import ConfigError, TocError, UsageError
from .records import (
    RlSample,
    check_record,
    dump_record,
    load_qa_tasks,
    parse_records,
    parse_unique,
    write_records,
)
from .rewards import PolicyLogProbs, RewardGroup, grpo_objective, score_flags
from .rl_pipeline import run_build_rl, run_demand_pipeline, tier_histogram
from .segmentation import DEFAULT_TAU, ShotBoundarySet, stitch
from .sft_pipeline import load_clips, run_sft_pipeline


def sig12(x: float) -> float:
    """Round to 12 significant digits; the repr then prints exactly those."""
    return float(f"{x:.12g}")


def _report_path(args: argparse.Namespace) -> Path | None:
    if getattr(args, "report", None):
        return Path(args.report)
    out = getattr(args, "out", None)
    return Path(f"{out}.report") if out else None


def _write_report(args: argparse.Namespace, entries: list[dict]) -> None:
    path = _report_path(args)
    if path is not None:
        write_records(path, entries)


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise UsageError(f"band must look like 0.2:0.8, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"band bounds must be finite, got {text!r}")
    return lo, hi


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def cmd_segment(args: argparse.Namespace) -> int:
    if not 0.0 < args.tau <= 1.0:
        raise UsageError(f"--tau must be in (0, 1], got {args.tau}")
    entries: list[dict] = []
    clips_out: list[dict] = []
    videos = shots_in = 0
    # One line per video: stitching two lines of one video would repeat its clip indices.
    for shot_set in parse_unique(
        args.shots, ShotBoundarySet.from_record, "video_id", lambda shots: shots.video_id
    ):
        videos += 1
        shots_in += shot_set.shot_count
        clips_out.extend(c.to_record() for c in stitch(shot_set, args.tau))
    write_records(args.out, clips_out)
    entries.append({"kind": "stage", "stage": "videos", "count": videos})
    entries.append({"kind": "stage", "stage": "shots_in", "count": shots_in})
    entries.append({"kind": "stage", "stage": "clips_out", "count": len(clips_out)})
    _write_report(args, entries)
    print(f"stitched {shots_in} shots into {len(clips_out)} clips across {videos} videos")
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    tree = build_tree(args.n)
    subtree = backtrack(tree, _parse_indices(args.select))
    for depth, nodes in enumerate(subtree.layers):
        intervals = " ".join(f"[{n.lo},{n.hi}]" for n in nodes)
        print(f"layer {depth}: {intervals}")
    chain = layer_compilations(subtree)
    for pos, compilation in enumerate(chain):
        print(f"compilation {pos}: {','.join(map(str, compilation.clip_indices))}")
    _write_report(
        args,
        [
            {"kind": "stage", "stage": "layers", "count": len(subtree.layers)},
            {"kind": "stage", "stage": "compilations", "count": len(chain)},
        ],
    )
    return 0


def cmd_build_sft(args: argparse.Namespace) -> int:
    config = apply_overrides(load_config(args.config), parallelism=args.parallelism)
    gateway = build_gateway(config)
    tasks = load_qa_tasks(args.qa)
    clips_by_video = load_clips(args.videos)
    report = run_sft_pipeline(
        gateway,
        tasks,
        clips_by_video,
        args.out,
        lenient=not config.strict_parsing,
        workers=config.parallelism,
    )
    entries = [
        {"kind": "stage", "stage": "total", "count": report["total"]},
        {"kind": "stage", "stage": "emitted", "count": report["emitted"]},
        {"kind": "stage", "stage": "rejected", "count": report["rejected"]},
        {"kind": "stage", "stage": "invalidated", "count": report["invalidated"]},
    ]
    entries += [
        {"kind": "rejection", "reason": reason, "count": count}
        for reason, count in report["rejection_reasons"].items()
    ]
    _write_report(args, entries)
    print(
        f"emitted {report['emitted']}/{report['total']} samples "
        f"({report['rejected']} rejected) -> {args.out}"
    )
    return 0


def cmd_estimate_demand(args: argparse.Namespace) -> int:
    config = apply_overrides(
        load_config(args.config), m_trials=args.m, parallelism=args.parallelism
    )
    gateway = build_gateway(config)
    tasks = load_qa_tasks(args.qa)
    annotated, skipped = run_demand_pipeline(
        gateway,
        tasks,
        config.m_trials,
        temperature=config.trial_temperature,
        workers=config.parallelism,
    )
    write_records(args.out, (s.to_record() for s in annotated))
    entries = [
        {"kind": "stage", "stage": "total", "count": len(tasks)},
        {"kind": "stage", "stage": "annotated", "count": len(annotated)},
    ]
    entries += [
        {"kind": "rejection", "reason": reason, "count": count}
        for reason, count in sorted(skipped.items())
    ]
    _write_report(args, entries)
    print(f"annotated {len(annotated)}/{len(tasks)} samples -> {args.out}")
    return 0


def cmd_build_rl(args: argparse.Namespace) -> int:
    band_lo, band_hi = _parse_band(args.band)
    if args.target < 1:
        raise UsageError(f"--target must be >= 1, got {args.target}")
    samples = [sample for _, sample in parse_records(args.input, RlSample.from_record)]
    selected, warnings = run_build_rl(samples, band_lo, band_hi, args.target, args.seed)
    write_records(args.out, (s.to_record() for s in selected))
    entries: list[dict] = [
        {"kind": "stage", "stage": "input", "count": len(samples)},
        {"kind": "stage", "stage": "emitted", "count": len(selected)},
    ]
    entries += [
        {"kind": "tier", "difficulty": sig12(difficulty), "count": count}
        for difficulty, count in tier_histogram(selected).items()
    ]
    entries += [{"kind": "warning", "message": message} for message in warnings]
    _write_report(args, entries)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    print(f"selected {len(selected)}/{len(samples)} samples -> {args.out}")
    return 0


def _group(rec: dict) -> RewardGroup:
    check_record(rec, "reward group")
    return score_flags(float(rec["gamma"]), rec["correct"])


def cmd_reward(args: argparse.Namespace) -> int:
    count = 0
    for pos, (_, group) in enumerate(parse_records(args.group, _group)):
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
            )
        )
        count += 1
    _write_report(args, [{"kind": "stage", "stage": "groups", "count": count}])
    return 0


def _logprob_group(rec: dict) -> tuple[PolicyLogProbs, list[float]]:
    return PolicyLogProbs.from_record(rec), [float(a) for a in rec["scaled_advantages"]]


def cmd_grpo_eval(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise UsageError(f"--epsilon must be finite and > 0, got {args.epsilon}")
    if not (math.isfinite(args.beta) and args.beta >= 0):
        raise UsageError(f"--beta must be finite and >= 0, got {args.beta}")
    groups = [group for _, group in parse_records(args.logprobs, _logprob_group)]
    objective = grpo_objective(groups, args.epsilon, args.beta)
    print(dump_record({"objective": sig12(objective), "groups": len(groups)}))
    _write_report(args, [{"kind": "stage", "stage": "groups", "count": len(groups)}])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toc",
        description="Tree-of-cue dataset construction and reward engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="stitch shot boundaries into clips")
    p.add_argument("--shots", required=True, help="shot boundary record file")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU, help="merge threshold")
    p.add_argument("-o", "--out", required=True, help="output clip record file")
    p.add_argument("--report", help="report file path")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("tree", help="print layers and compilations for a selection")
    p.add_argument("--n", type=int, required=True, help="number of clips")
    p.add_argument("--select", required=True, help="comma-separated selected indices")
    p.add_argument("--report", help="report file path")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("build-sft", help="build the rationale SFT dataset")
    p.add_argument("--videos", required=True, help="clip record file")
    p.add_argument("--qa", required=True, help="question-answer record file")
    p.add_argument("--config", required=True, help="config file")
    p.add_argument("--parallelism", type=int, help="override config parallelism")
    p.add_argument("-o", "--out", required=True, help="output dataset file")
    p.add_argument("--report", help="report file path")
    p.set_defaults(func=cmd_build_sft)

    p = sub.add_parser("estimate-demand", help="annotate QA with reasoning demand")
    p.add_argument("--qa", required=True, help="question-answer record file")
    p.add_argument("--config", required=True, help="config file")
    p.add_argument("--m", type=int, help="override trial count M")
    p.add_argument("--parallelism", type=int, help="override config parallelism")
    p.add_argument("-o", "--out", required=True, help="output demand record file")
    p.add_argument("--report", help="report file path")
    p.set_defaults(func=cmd_estimate_demand)

    p = sub.add_parser("build-rl", help="band-filter and tier-balance demand records")
    p.add_argument("--in", dest="input", required=True, help="demand record file")
    p.add_argument("--band", default="0.2:0.8", help="difficulty band lo:hi")
    p.add_argument("--target", type=int, default=2000, help="target dataset size")
    p.add_argument("--seed", type=int, default=0, help="balancing seed")
    p.add_argument("-o", "--out", required=True, help="output dataset file")
    p.add_argument("--report", help="report file path")
    p.set_defaults(func=cmd_build_rl)

    p = sub.add_parser("reward", help="score correctness groups")
    p.add_argument("--group", required=True, help="group record file")
    p.add_argument("--report", help="report file path")
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("grpo-eval", help="evaluate the surrogate objective")
    p.add_argument("--logprobs", required=True, help="log-probability record file")
    p.add_argument("--epsilon", type=float, required=True, help="clip range")
    p.add_argument("--beta", type=float, required=True, help="KL weight")
    p.add_argument("--report", help="report file path")
    p.set_defaults(func=cmd_grpo_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, TocError) as exc:
        _write_report(
            args,
            [{"kind": "error", "error": type(exc).__name__, "message": str(exc)}],
        )
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
