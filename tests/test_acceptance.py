"""Behavior gates for the numeric engine, the chain algebra, and both pipelines.

One test per gate.  Each test prints its own [PASS]/[FAIL] line; the
conftest summary hook repeats every verdict after the run.  Tolerances and
runtime bounds are asserted inside the gates, never loosened here.
"""

from __future__ import annotations

import math
import re
import socket
import time
from contextlib import contextmanager
from itertools import chain as ichain
from itertools import combinations
from pathlib import Path

import pytest
from conftest import CrashingBackend

from toc.cli import main
from toc.cue_tree import backtrack, build_tree, layer_compilations
from toc.gateway import Gateway, MockBackend, RetryPolicy
from toc.records import RlSample, load_qa_tasks
from toc.rewards import (
    PolicyLogProbs,
    closed_form_advantages,
    grpo_objective,
    normalize_advantages,
    rd_reward,
    scale_advantages,
)
from toc.rl_pipeline import balance_tiers, filter_by_difficulty, run_build_rl, tier_histogram
from toc.sft_pipeline import load_clips, run_sft_pipeline
from toc.templates import TEMPLATES, render_train_infer, substitute

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.txt"


TEMPLATE_GOLDENS = (
    "key_clip_selection", "low_quality_filter", "rationale_generation", "train_infer"
)
PLACEHOLDER = re.compile(r"\{([A-Za-z][A-Za-z ]*)\}")


GAMMA_GRID = (0.1, 0.25, 0.5, 1.0)

C1 = "closed-form advantages match group normalization over the full grid"
C2 = "advantage normalization is demand-invariant and scaling restores demand order"
C3 = "demand reward hits exact endpoints and decays strictly"
C4 = "difficulty band keeps exactly the middle trial counts"
C5 = "compilation chains are strict-subset chains for every small selection"
C6 = "worked compilation chains for four and three clips"
C7 = "prompt templates byte-match their golden files"
C8 = "surrogate objective passes identity, clipping, and gradient checks"
C9 = "offline corpus build is byte-reproducible and crash-resumable"
C10 = "tier balancing equalizes supply and warns when short"


@contextmanager
def gate(name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {name}")
        raise
    else:
        print(f"[PASS] criterion {name}")


@pytest.mark.criterion(C1)
def test_01_closed_form_equivalence():
    with gate(C1):
        start = time.perf_counter()
        for g in range(2, 17):
            for x in range(1, g):
                a_correct, a_wrong = closed_form_advantages(g, x)
                expect = [a_correct] * x + [a_wrong] * (g - x)
                for gamma in GAMMA_GRID:
                    got = normalize_advantages([gamma] * x + [0.0] * (g - x))
                    for got_v, exp_v in zip(got, expect):
                        assert abs(got_v - exp_v) <= 1e-10, (g, x, gamma)
        assert time.perf_counter() - start < 5.0


@pytest.mark.criterion(C2)
def test_02_demand_invariance_and_scaling():
    with gate(C2):
        for g in range(2, 17):
            for x in range(1, g):
                reference = normalize_advantages([1.0] * x + [0.0] * (g - x))
                for gamma in GAMMA_GRID:
                    shaped = normalize_advantages([gamma] * x + [0.0] * (g - x))
                    for a, b in zip(shaped, reference):
                        assert abs(a - b) <= 1e-12, (g, x, gamma)
                # scaling reintroduces a strict dependence on gamma
                a_correct = closed_form_advantages(g, x)[0]
                scaled = [scale_advantages([a_correct], gamma)[0] for gamma in GAMMA_GRID]
                assert all(lo < hi for lo, hi in zip(scaled, scaled[1:])), (g, x)


@pytest.mark.criterion(C3)
def test_03_demand_reward_values():
    with gate(C3):
        assert rd_reward(True, 0, 8) == 1.0  # exact, not approximate
        assert abs(rd_reward(True, 8, 8) - math.exp(-1.0)) <= 1e-12
        curve = [rd_reward(True, alpha, 8) for alpha in range(9)]
        assert all(hi > lo for hi, lo in zip(curve, curve[1:]))


@pytest.mark.criterion(C4)
def test_04_difficulty_band():
    with gate(C4):
        samples = [
            RlSample.from_trial_count(
                id=f"q{alpha}", video_id=f"q{alpha}", question="q",
                options=("a", "b", "c", "d"), answer="A", alpha=alpha, m_trials=8,
            )
            for alpha in range(9)
        ]
        survivors = filter_by_difficulty(samples, 0.2, 0.8)
        assert [s.alpha for s in survivors] == [2, 3, 4, 5, 6]
        # every alpha checked: nothing outside the middle band sneaks through
        for sample in samples:
            kept = sample in survivors
            assert kept == (2 <= sample.alpha <= 6), sample.alpha


def interval_chain_oracle(n: int, selected) -> list[list[int]]:
    """Brute-force chain via raw interval descent; no tree code involved."""
    paths = []
    for idx in sorted(set(selected)):
        lo, hi = 0, n - 1
        path = [(lo, hi)]
        while lo != hi:
            mid = (lo + hi) // 2
            if idx <= mid:
                hi = mid
            else:
                lo = mid + 1
            path.append((lo, hi))
        paths.append(path)
    out: list[list[int]] = []
    for depth in range(max(len(p) for p in paths)):
        covered: set[int] = set()
        for path in paths:
            lo, hi = path[min(depth, len(path) - 1)]
            covered.update(range(lo, hi + 1))
        ordered = sorted(covered)
        if not out or ordered != out[-1]:
            out.append(ordered)
    return out


@pytest.mark.criterion(C5)
def test_05_chain_property_exhaustive():
    with gate(C5):
        start = time.perf_counter()
        for n in range(1, 11):
            tree = build_tree(n)
            subsets = ichain.from_iterable(
                combinations(range(n), k) for k in range(1, n + 1)
            )
            for selected in subsets:
                chain = layer_compilations(backtrack(tree, selected))
                sets = [c.as_set for c in chain]
                assert sets[0] == frozenset(range(n)), (n, selected)
                assert sets[-1] == frozenset(selected), (n, selected)
                for wider, tighter in zip(sets, sets[1:]):
                    assert tighter < wider, (n, selected)
                got = [list(c.clip_indices) for c in chain]
                assert got == interval_chain_oracle(n, selected), (n, selected)
        assert time.perf_counter() - start < 30.0


@pytest.mark.criterion(C6)
def test_06_worked_chain_examples():
    with gate(C6):
        four = layer_compilations(backtrack(build_tree(4), [0, 2]))
        assert [list(c.clip_indices) for c in four] == [[0, 1, 2, 3], [0, 2]]
        three = layer_compilations(backtrack(build_tree(3), [0, 1]))
        assert [list(c.clip_indices) for c in three] == [[0, 1, 2], [0, 1]]


@pytest.mark.criterion(C7)
def test_07_prompt_fidelity():
    with gate(C7):
        assert tuple(TEMPLATES) == TEMPLATE_GOLDENS
        for name, body in TEMPLATES.items():
            identity = {p: "{" + p + "}" for p in PLACEHOLDER.findall(body)}
            rendered = substitute(body, identity)
            assert rendered.encode("utf-8") == golden_path(name).read_bytes(), name
        for qa_type in ("multiple_choice", "numerical"):
            rendered = render_train_infer("{Question}", qa_type)
            expect = golden_path(f"train_infer_{qa_type}").read_bytes()
            assert rendered.encode("utf-8") == expect, qa_type


def identity_group(rows, advantages):
    as_tuples = tuple(tuple(r) for r in rows)
    return (PolicyLogProbs(current=as_tuples, old=as_tuples, ref=as_tuples), advantages)


@pytest.mark.criterion(C8)
def test_08_surrogate_objective():
    with gate(C8):
        # identity policies: objective collapses to the mean scaled advantage
        g1 = identity_group([[-0.5], [-1.0, -0.2], [-0.3]], [0.9, -0.3, 0.1])
        g2 = identity_group([[-0.1], [-0.7]], [0.25, 0.25])
        got = grpo_objective([g1, g2], epsilon=0.2, beta=0.3)
        expect = (math.fsum([0.9, -0.3, 0.1]) / 3 + math.fsum([0.25, 0.25]) / 2) / 2
        assert abs(got - expect) <= 1e-12

        # ratio 1 + 2*eps with positive advantage: the clipped branch wins
        eps = 0.2
        lp = PolicyLogProbs(
            current=((math.log(1 + 2 * eps),),),
            old=((0.0,),),
            ref=((math.log(1 + 2 * eps),),),
        )
        clipped = grpo_objective([(lp, [2.0])], epsilon=eps, beta=0.0)
        assert abs(clipped - (1 + eps) * 2.0) <= 1e-12

        # finite-difference gradient at ratio 1, KL penalty active
        old_rows = ((-0.5,), (-1.0, -0.3), (-0.2, -0.9, -0.1))
        advantages = [0.7, -0.4, 0.2]

        def objective_at(theta: float) -> float:
            shifted = tuple(tuple(v + theta for v in row) for row in old_rows)
            lp = PolicyLogProbs(current=shifted, old=old_rows, ref=old_rows)
            return grpo_objective([(lp, advantages)], epsilon=0.2, beta=0.3)

        # d(ratio_i)/d(theta) at 0 is the token count; the KL term is flat there
        analytic = math.fsum(
            len(row) * a for row, a in zip(old_rows, advantages)
        ) / len(advantages)
        h = 1e-5
        finite_diff = (objective_at(h) - objective_at(-h)) / (2 * h)
        assert abs(finite_diff - analytic) / abs(analytic) <= 1e-4


@pytest.mark.criterion(C9)
def test_09_end_to_end_offline_build(corpus, tmp_path, capsys, monkeypatch):
    with gate(C9):
        start = time.perf_counter()

        def deny_network(*args, **kwargs):
            raise AssertionError("network access attempted during offline build")

        monkeypatch.setattr(socket.socket, "connect", deny_network)
        paths = corpus.manifest["paths"]

        def build_all(run_dir):
            run_dir.mkdir()
            sft = run_dir / "sft.records"
            demand = run_dir / "demand.records"
            rl = run_dir / "rl.records"
            assert main([
                "build-sft", "--videos", paths["clips"], "--qa", paths["qa"],
                "--config", paths["config"], "-o", str(sft),
            ]) == 0
            assert main([
                "estimate-demand", "--qa", paths["qa"], "--config", paths["config"],
                "-o", str(demand),
            ]) == 0
            assert main([
                "build-rl", "--in", str(demand), "--band", "0.2:0.8",
                "--target", "10", "--seed", "0", "-o", str(rl),
            ]) == 0
            return sft.read_bytes(), demand.read_bytes(), rl.read_bytes()

        first = build_all(tmp_path / "run_a")
        second = build_all(tmp_path / "run_b")
        assert first == second  # byte-identical datasets, run to run
        assert len(read_dataset(first[0])) == corpus.manifest["expected_emitted"]
        assert len(read_dataset(first[2])) == 10

        # crash partway through, then resume: same bytes as the clean run
        tasks = load_qa_tasks(paths["qa"])
        clips_by_video = load_clips(paths["clips"])
        crashed = CrashingBackend(MockBackend.from_file(paths["mock_table"]), 25)
        crash_gateway = Gateway(
            backends={"mllm": crashed, "llm": crashed},
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
            sleep=lambda s: None,
        )
        out = tmp_path / "resumed" / "sft.records"
        out.parent.mkdir()
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sft_pipeline(crash_gateway, tasks, clips_by_video, out)
        clean_backend = MockBackend.from_file(paths["mock_table"])
        clean_gateway = Gateway(
            backends={"mllm": clean_backend, "llm": clean_backend},
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
            sleep=lambda s: None,
        )
        run_sft_pipeline(clean_gateway, tasks, clips_by_video, out)
        assert out.read_bytes() == first[0]

        assert time.perf_counter() - start < 60.0
        capsys.readouterr()


def read_dataset(raw: bytes) -> list[str]:
    return [line for line in raw.decode("utf-8").splitlines() if line]


@pytest.mark.criterion(C10)
def test_10_tier_balancing():
    with gate(C10):
        def sample(pos: int, alpha: int) -> RlSample:
            return RlSample.from_trial_count(
                id=f"s{pos:04d}", video_id=f"s{pos:04d}", question="q",
                options=("a", "b", "c", "d"), answer="A", alpha=alpha, m_trials=8,
            )

        supply = [
            sample(pos, alpha)
            for pos, alpha in enumerate(
                a for a in (2, 3, 4, 5, 6) for _ in range(100)
            )
        ]
        balanced = balance_tiers(supply, 250, seed=11)
        assert len(balanced) == 250
        assert list(tier_histogram(balanced).values()) == [50, 50, 50, 50, 50]

        short_supply = [sample(pos, 2 + pos % 3) for pos in range(30)]
        selected, warnings = run_build_rl(short_supply, 0.2, 0.8, target=100, seed=3)
        assert len(selected) == min(100, len(short_supply)) == 30
        assert warnings == ["supply below target: emitted 30 of 100 requested"]
