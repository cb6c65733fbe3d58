"""Demand estimation trials, band filtering, and tier balancing."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import FailingBackend, scripted_gateway

from toc.config import apply_overrides, build_gateway, load_config
from toc.gateway import Gateway
from toc.records import QaPair, QaTask, RlSample, dump_record, load_qa_tasks
from toc.rl_pipeline import (
    TRIAL_MAX_TOKENS,
    balance_tiers,
    filter_by_difficulty,
    run_build_rl,
    run_demand_pipeline,
    run_trials,
    tier_histogram,
    trial_request,
)
from toc.templates import render_direct_answer

# The sampling temperature of the scripted trials.
TEMPERATURE = 1.0


def mc_qa(answer: str = "B") -> QaPair:
    return QaPair(
        question="Which door opens?",
        answer=answer,
        qa_type="multiple_choice",
        options=("the left one", "the right one", "both", "neither"),
    )


def trial_gateway(qa: QaPair, video_ref: str, replies):
    pairs = [
        (trial_request(qa, video_ref, i, TEMPERATURE), reply)
        for i, reply in enumerate(replies)
    ]
    return scripted_gateway(pairs)


def rl(pos: int, alpha: int, m: int = 8) -> RlSample:
    return RlSample.from_trial_count(
        id=f"v{pos:03d}#0",
        video_id=f"v{pos:03d}",
        question="q",
        options=("a", "b", "c", "d"),
        answer="A",
        alpha=alpha,
        m_trials=m,
    )


class TestTrialRequest:
    def test_fields(self):
        qa = mc_qa()
        req = trial_request(qa, "v00/full", 3, 0.7)
        assert req.model_role == "mllm"
        assert req.media == ("v00/full",)
        assert req.text == render_direct_answer(qa.formatted_question())
        assert req.seed == 3  # trial index doubles as the sampling seed
        assert req.temperature == 0.7
        assert req.max_tokens == TRIAL_MAX_TOKENS

    def test_distinct_trials_get_distinct_seeds(self):
        qa = mc_qa()
        assert trial_request(qa, "v", 0, TEMPERATURE) != trial_request(qa, "v", 1, TEMPERATURE)


class TestRunTrials:
    def test_scores_each_trial(self):
        qa = mc_qa("B")
        replies = [
            "<answer>B</answer>",
            "<answer>a</answer>",
            "I think it is B",  # no tag: incorrect
            "<answer>b</answer>",
        ]
        assert run_trials(trial_gateway(qa, "v", replies), qa, "v", 4, temperature=TEMPERATURE) == [True, False, False, True]


class TestFilterByDifficulty:
    def test_inclusive_band_keeps_middle_alphas(self):
        samples = [rl(a, a) for a in range(9)]
        kept = filter_by_difficulty(samples, 0.2, 0.8)
        assert [s.alpha for s in kept] == [2, 3, 4, 5, 6]

    def test_band_endpoints_are_inclusive(self):
        # dyadic difficulties (0.75 and 0.25) sit exactly on the band edges
        samples = [rl(0, 2), rl(1, 6)]
        assert filter_by_difficulty(samples, 0.25, 0.75) == samples

    def test_order_preserved(self):
        samples = [rl(2, 4), rl(0, 3), rl(1, 5)]
        assert filter_by_difficulty(samples, 0.2, 0.8) == samples


def water_fill_counts(supply: list[int], target: int) -> list[int]:
    """Per-tier counts in ascending difficulty: every tier up to the highest
    common level L the target affords, the rest one each to the lowest tiers
    that have more than L."""
    wanted = min(target, sum(supply))
    level = max(L for L in range(max(supply) + 1) if sum(min(n, L) for n in supply) <= wanted)
    counts = [min(n, level) for n in supply]
    rest = wanted - sum(counts)
    for tier, n in enumerate(supply):
        if rest and n > level:
            counts[tier] += 1
            rest -= 1
    return counts


class TestBalanceTiers:
    @settings(max_examples=200, deadline=None)
    @given(
        supply=st.dictionaries(st.integers(0, 8), st.integers(1, 12), min_size=1),
        target=st.integers(1, 80),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_tier_counts_match_water_filling(self, supply, target, seed, data):
        alphas = data.draw(st.permutations([a for a, n in supply.items() for _ in range(n)]))
        samples = [rl(pos, alpha) for pos, alpha in enumerate(alphas)]
        out = balance_tiers(samples, target, seed)
        by_difficulty = sorted(supply, reverse=True)  # difficulty rises as alpha falls
        counts = Counter(s.alpha for s in out)
        expected = water_fill_counts([supply[a] for a in by_difficulty], target)
        assert [counts[a] for a in by_difficulty] == expected
        positions = [int(s.video_id[1:]) for s in out]
        assert positions == sorted(set(positions))  # input order, no repeats
        assert all(samples[pos] == s for pos, s in zip(positions, out))

    def test_empty_input(self):
        assert balance_tiers([], 10, seed=0) == []

    def test_even_split(self):
        samples = [rl(pos, alpha) for pos, alpha in enumerate([3] * 4 + [4] * 4 + [5] * 4)]
        out = balance_tiers(samples, 6, seed=1)
        assert len(out) == 6
        assert sorted(Counter(s.alpha for s in out).values()) == [2, 2, 2]

    def test_remainder_fills_round_robin_from_lowest_tier(self):
        samples = [rl(pos, alpha) for pos, alpha in enumerate([3] * 4 + [4] * 4 + [5] * 4)]
        out = balance_tiers(samples, 7, seed=1)
        counts = Counter(s.difficulty for s in out)
        # tiers are visited in ascending difficulty, so the extra sample
        # lands in the lowest tier (alpha=5 here)
        assert counts == {
            rl(0, 5).difficulty: 3,
            rl(0, 4).difficulty: 2,
            rl(0, 3).difficulty: 2,
        }

    def test_under_supplied_tier_backfilled_from_others(self):
        samples = [rl(0, 3)] + [rl(pos, 5) for pos in range(1, 6)]
        out = balance_tiers(samples, 4, seed=0)
        counts = Counter(s.alpha for s in out)
        assert counts == {3: 1, 5: 3}

    def test_supply_caps_output(self):
        samples = [rl(pos, alpha) for pos, alpha in enumerate([3, 3, 5, 5])]
        out = balance_tiers(samples, 10, seed=0)
        assert sorted(s.id for s in out) == sorted(s.id for s in samples)

    def test_deterministic_given_seed(self):
        samples = [rl(pos, 3 + pos % 3) for pos in range(30)]
        assert balance_tiers(samples, 9, seed=5) == balance_tiers(samples, 9, seed=5)

    def test_output_preserves_input_order(self):
        samples = [rl(pos, 3 + pos % 3) for pos in range(30)]
        out = balance_tiers(samples, 9, seed=5)
        positions = [samples.index(s) for s in out]
        assert positions == sorted(positions)

    def test_output_is_subset_of_input(self):
        samples = [rl(pos, 2 + pos % 5) for pos in range(40)]
        out = balance_tiers(samples, 11, seed=3)
        assert len(out) == 11
        assert set(s.id for s in out) <= set(s.id for s in samples)
        assert len({s.id for s in out}) == len(out)  # without replacement


class TestTierHistogram:
    def test_counts_sorted_by_difficulty(self):
        samples = [rl(0, 6), rl(1, 2), rl(2, 2)]
        hist = tier_histogram(samples)
        assert list(hist.values()) == [1, 2]
        assert list(hist) == sorted(hist)


class TestRunDemandPipeline:
    def test_annotates_and_skips(self):
        qa = mc_qa("B")
        open_qa = QaPair(question="describe", answer="x", qa_type="open_ended")
        tasks = [
            QaTask(video_id="v0", qa_index=0, qa=qa, video_ref="v0/full"),
            QaTask(video_id="v1", qa_index=0, qa=open_qa, video_ref="v1/full"),
        ]
        replies = ["<answer>B</answer>", "<answer>B</answer>", "<answer>C</answer>"]
        gateway = trial_gateway(qa, "v0/full", replies)
        annotated, skipped = run_demand_pipeline(gateway, tasks, 3, temperature=TEMPERATURE)
        assert skipped == Counter({"non_multiple_choice": 1})
        (sample,) = annotated
        assert sample.id == "v0#0" and sample.alpha == 2
        assert sample.recompute_consistent()
        assert sample.options == qa.options

    def test_failed_trial_skips_question(self):
        qa = mc_qa("B")
        tasks = [
            QaTask(video_id="v", qa_index=0, qa=qa, video_ref="v/full"),
            QaTask(video_id="w", qa_index=0, qa=qa, video_ref="w/full"),
        ]
        # v's 3 trials are scripted; w's fail inside the gateway
        gateway = trial_gateway(qa, "v/full", ["<answer>B</answer>"] * 3)
        annotated, skipped = run_demand_pipeline(gateway, tasks, 3, temperature=TEMPERATURE)
        assert [s.id for s in annotated] == ["v#0"] and annotated[0].alpha == 3
        assert skipped == Counter({"trials_failed": 1})
        # only 2 of 3 trials scripted: one failure skips the question outright
        partial = trial_gateway(qa, "v/full", ["<answer>B</answer>"] * 2)
        annotated, skipped = run_demand_pipeline(partial, tasks[:1], 3, temperature=TEMPERATURE)
        assert annotated == [] and skipped == Counter({"trials_failed": 1})

    def test_alpha_counts_correct_trials(self):
        qa = mc_qa("B")
        task = QaTask(video_id="v", qa_index=0, qa=qa, video_ref="v/full")
        replies = ["<answer>B</answer>"] * 3 + ["<answer>A</answer>"] * 5
        (sample,), _ = run_demand_pipeline(trial_gateway(qa, "v/full", replies), [task], 8,
                                            temperature=TEMPERATURE)
        assert sample.alpha == 3
        assert sample.reasoning_demand == pytest.approx(math.exp(-3 / 8), abs=1e-15)
        assert sample.difficulty == pytest.approx(1 - 3 / 8, abs=1e-15)

    def test_workers_give_identical_records(self, corpus, fast_thread_switching):
        paths = corpus.manifest["paths"]
        tasks = load_qa_tasks(paths["qa"])
        outputs = []
        for workers in (1, 4):
            config = apply_overrides(load_config(paths["config"]), parallelism=workers)
            annotated, skipped = run_demand_pipeline(
                build_gateway(config), tasks, config.m_trials,
                temperature=config.trial_temperature, workers=workers,
            )
            assert [s.alpha for s in annotated] == corpus.manifest["expected_alphas"]
            outputs.append(("\n".join(dump_record(s.to_record()) for s in annotated), skipped))
        assert outputs[0] == outputs[1]

    def test_crash_cancels_queued_questions(self, corpus):
        tasks = load_qa_tasks(corpus.manifest["paths"]["qa"])
        assert len(tasks) == 20
        backend = FailingBackend()
        gateway = Gateway(backends={"mllm": backend, "llm": backend}, max_in_flight=4)
        with pytest.raises(RuntimeError, match="backend crashed"):
            run_demand_pipeline(gateway, tasks, 8, temperature=TEMPERATURE, workers=4)
        # each question fails on its first trial, so calls count the questions started
        assert backend.calls < len(tasks)


class TestRunBuildRl:
    def test_meets_target_without_warning(self):
        samples = [rl(pos, 2 + pos % 5) for pos in range(20)]
        selected, warnings = run_build_rl(samples, 0.2, 0.8, target=10, seed=0)
        assert len(selected) == 10 and warnings == []

    def test_under_supply_warns(self):
        samples = [rl(pos, 4) for pos in range(3)]
        selected, warnings = run_build_rl(samples, 0.2, 0.8, target=10, seed=0)
        assert len(selected) == 3
        assert warnings == ["supply below target: emitted 3 of 10 requested"]

    def test_out_of_band_supply_yields_empty(self):
        samples = [rl(0, 0), rl(1, 8)]
        selected, warnings = run_build_rl(samples, 0.2, 0.8, target=5, seed=0)
        assert selected == []
        assert warnings == ["supply below target: emitted 0 of 5 requested"]
