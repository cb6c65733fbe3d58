"""Command-line entry point.

Subcommands mirror the pipeline stages: segment, tree, build-sft,
estimate-demand, build-rl, reward, grpo-eval.  Each command returns its
report rows, and `main` writes them: to `<output>.report` for commands
that write an output file, and for print-only commands only when
--report is given.  Exit codes: 0 success, 1 run error, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from typing import Sequence

from .config import Config, apply_overrides, build_gateway, load_config
from .cue_tree import backtrack, layer_compilations, trajectory_layers
from .errors import TocError, UsageError
from .gateway import Gateway
from .records import (
    STAGED_SUFFIX,
    QaTask,
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
from .sft_pipeline import JOURNAL_SUFFIX, REJECTED_SUFFIX, load_clips, run_sft_pipeline


# Rewards and advantages take few distinct values (gamma is e^(-alpha/M)), so
# sig12 remembers each rounding; the memo is emptied when it holds this many.
# It caches a pure function of an immutable value, so callers sharing it, on
# any thread, can miss a rounding but never read a wrong one.
SIG12_MEMO_SIZE = 4096
_sig12_memo: dict[float, float] = {}

# More clips than any video is cut into: `tree` refuses a larger --n, whose
# root compilation alone would list every clip.
TREE_MAX_CLIPS = 2**20


def sig12(x: float) -> float:
    """Round to 12 significant digits; the repr then prints exactly those."""
    if not x:
        # 0.0 and -0.0 are one dict key; float keeps the sign of each.
        return float(x)
    try:
        return _sig12_memo[x]
    except KeyError:
        if len(_sig12_memo) >= SIG12_MEMO_SIZE:
            _sig12_memo.clear()
        rounded = _sig12_memo[x] = float(f"{x:.12g}")
        return rounded


def _report_path(args: argparse.Namespace) -> str | None:
    out = getattr(args, "out", None)
    return args.report or (f"{out}.report" if out else None)


def _write_report(args: argparse.Namespace, entries: list[dict]) -> None:
    path = _report_path(args)
    if path is not None:
        write_records(path, entries)


# Each input flag, by its argparse dest.
_INPUT_FLAGS = {"shots": "--shots", "videos": "--videos", "qa": "--qa", "config": "--config",
                "input": "--in", "group": "--group", "logprobs": "--logprobs"}


def _check_paths(args: argparse.Namespace, named: Sequence[tuple[str, str | None]] = ()) -> None:
    """Fail before any input is read (but the config that names the `named` ones) or model
    called if a path is empty, if an input is a file the command writes, if an output is
    another output or where one is staged, or if an output is or lacks a directory."""
    out = getattr(args, "out", None)
    flags = [(flag, getattr(args, dest, None)) for dest, flag in _INPUT_FLAGS.items()]
    inputs = [(flag, path) for flag, path in flags + list(named) if path is not None]
    for flag, path in inputs + [("-o", out), ("--report", args.report)]:
        if path == "":
            raise UsageError(f"{flag} must name a file, got an empty path")
    # write_records stages each output at <path>.tmp; the journal is appended to instead.
    staged = [path for path in (out, _report_path(args)) if path is not None]
    journal = []
    if args.command == "build-sft":
        staged.append(f"{out}{REJECTED_SUFFIX}")
        journal.append(f"{out}{JOURNAL_SUFFIX}")
    outputs = staged + journal
    temporary = {os.path.realpath(f"{path}{STAGED_SUFFIX}") for path in staged}
    written: set[str] = set()
    for path in outputs:
        real = os.path.realpath(path)
        if real in written:
            raise UsageError(f"two outputs are one file: {path}")
        if real in temporary:
            raise UsageError(f"output {path} is the temporary file of another output")
        written.add(real)
    for flag, path in inputs:
        if os.path.realpath(path) in written | temporary:
            raise UsageError(f"input {flag} {path} is a file this command writes")
    for path in outputs:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise UsageError(f"band must look like 0.2:0.8, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"band bounds must be finite, got {text!r}")
    if lo >= hi:
        raise UsageError(f"--band must satisfy lo < hi, got {text!r}")
    return lo, hi


def _check_at_least_one(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _stages(**counts: int) -> list[dict]:
    return [{"kind": "stage", "stage": stage, "count": count} for stage, count in counts.items()]


def _rejections(reasons: dict[str, int]) -> list[dict]:
    return [
        {"kind": "rejection", "reason": reason, "count": count}
        for reason, count in sorted(reasons.items())
    ]


def _model_run(args: argparse.Namespace, **overrides) -> tuple[Config, Gateway, list[QaTask]]:
    """The config with its flag overrides, its gateway and the QA tasks of a model-calling run."""
    _check_at_least_one("--parallelism", args.parallelism)
    config = apply_overrides(load_config(args.config), parallelism=args.parallelism, **overrides)
    _check_paths(args, [("mock_table_path", config.mock_table_path)])
    return config, build_gateway(config), load_qa_tasks(args.qa)


def cmd_segment(args: argparse.Namespace) -> list[dict]:
    if not 0.0 < args.tau <= 1.0:
        raise UsageError(f"--tau must be in (0, 1], got {args.tau}")
    counts = {"videos": 0, "shots_in": 0}
    # One line per video, stitched as it is read, so that a clip without a pooled
    # direction names its line; two lines of one video would repeat its clip indices.
    def stitched(rec: dict) -> tuple[ShotBoundarySet, list]:
        shots = ShotBoundarySet.from_record(rec)
        return shots, stitch(shots, args.tau)

    def clip_records():
        """Each video's clips, written as its line is stitched."""
        for shot_set, clips in parse_unique(
            args.shots, stitched, "video_id", lambda pair: pair[0].video_id
        ):
            counts["videos"] += 1
            counts["shots_in"] += shot_set.shot_count
            yield from (c.to_record() for c in clips)

    clips_out = write_records(args.out, clip_records())
    videos, shots_in = counts["videos"], counts["shots_in"]
    print(f"stitched {shots_in} shots into {clips_out} clips across {videos} videos")
    return _stages(**counts, clips_out=clips_out)


def cmd_tree(args: argparse.Namespace) -> list[dict]:
    _check_at_least_one("--n", args.n)
    if args.n > TREE_MAX_CLIPS:
        raise UsageError(f"--n must be <= {TREE_MAX_CLIPS}, got {args.n}")
    selected = _parse_indices(args.select)
    if any(not 0 <= index < args.n for index in selected):
        raise UsageError(f"--select indices must be in [0, {args.n - 1}], got {args.select}")
    paths = backtrack(args.n, selected)
    layers = trajectory_layers(paths)
    for depth, nodes in enumerate(layers):
        intervals = " ".join(f"[{lo},{hi}]" for lo, hi in nodes)
        print(f"layer {depth}: {intervals}")
    chain = layer_compilations(paths)
    for pos, compilation in enumerate(chain):
        print(f"compilation {pos}: {','.join(map(str, compilation.clip_indices))}")
    return _stages(layers=len(layers), compilations=len(chain))


def cmd_build_sft(args: argparse.Namespace) -> list[dict]:
    config, gateway, tasks = _model_run(args)
    clips_by_video = load_clips(args.videos)
    report = run_sft_pipeline(
        gateway,
        tasks,
        clips_by_video,
        args.out,
        lenient=not config.strict_parsing,
        workers=config.parallelism,
    )
    print(
        f"emitted {report['emitted']}/{report['total']} samples "
        f"({report['rejected']} rejected) -> {args.out}"
    )
    counts = {stage: report[stage] for stage in ("total", "emitted", "rejected", "invalidated")}
    return _stages(**counts) + _rejections(report["rejection_reasons"])


def cmd_estimate_demand(args: argparse.Namespace) -> list[dict]:
    _check_at_least_one("--m", args.m)
    config, gateway, tasks = _model_run(args, m_trials=args.m)
    annotated, skipped = run_demand_pipeline(
        gateway,
        tasks,
        config.m_trials,
        temperature=config.trial_temperature,
        workers=config.parallelism,
    )
    write_records(args.out, (s.to_record() for s in annotated))
    print(
        f"annotated {len(annotated)}/{len(tasks)} samples "
        f"({sum(skipped.values())} skipped) -> {args.out}"
    )
    return _stages(total=len(tasks), annotated=len(annotated)) + _rejections(skipped)


def cmd_build_rl(args: argparse.Namespace) -> list[dict]:
    band_lo, band_hi = _parse_band(args.band)
    _check_at_least_one("--target", args.target)
    samples = list(parse_unique(args.input, RlSample.from_record, "id", lambda sample: sample.id))
    selected, warnings = run_build_rl(samples, band_lo, band_hi, args.target, args.seed)
    write_records(args.out, (s.to_record() for s in selected))
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    print(f"selected {len(selected)}/{len(samples)} samples -> {args.out}")
    tiers = [
        {"kind": "tier", "difficulty": sig12(difficulty), "count": count}
        for difficulty, count in tier_histogram(selected).items()
    ]
    return (
        _stages(input=len(samples), emitted=len(selected))
        + tiers
        + [{"kind": "warning", "message": message} for message in warnings]
    )


def _group(rec: dict) -> RewardGroup:
    check_record(rec, "reward group")
    return score_flags(float(rec["gamma"]), rec["correct"])


def cmd_reward(args: argparse.Namespace) -> list[dict]:
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
    return _stages(groups=count)


def _logprob_group(rec: dict) -> tuple[PolicyLogProbs, list[float]]:
    return PolicyLogProbs.from_record(rec), [float(a) for a in rec["scaled_advantages"]]


def cmd_grpo_eval(args: argparse.Namespace) -> list[dict]:
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise UsageError(f"--epsilon must be finite and > 0, got {args.epsilon}")
    if not (math.isfinite(args.beta) and args.beta >= 0):
        raise UsageError(f"--beta must be finite and >= 0, got {args.beta}")
    groups = [group for _, group in parse_records(args.logprobs, _logprob_group)]
    objective = grpo_objective(groups, args.epsilon, args.beta)
    print(dump_record({"objective": sig12(objective), "groups": len(groups)}))
    return _stages(groups=len(groups))


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
        _check_paths(args)
        _write_report(args, args.func(args))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TocError, OSError) as exc:
        # an OSError names the path it failed on, such as an input that is a directory
        named = isinstance(exc, OSError) and exc.filename is not None
        message = f"{exc.filename}: {exc.strerror}" if named else str(exc)
        try:
            _write_report(args, [{"kind": "error", "error": type(exc).__name__, "message": message}])
        except OSError:
            pass  # the report's directory may be the one that is missing
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
