"""Answer extraction, reward shaping, advantage algebra, and the surrogate."""

from __future__ import annotations

import math
import statistics
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toc.errors import (
    GroupTooSmallError,
    MisalignedSequencesError,
    NonFiniteError,
    RangeError,
)
from toc.rewards import (
    EMPTY_ANSWER,
    PolicyLogProbs,
    _kl_estimate,
    answers_match,
    closed_form_advantages,
    extract_answer,
    grpo_objective,
    normalize_advantages,
    rd_reward,
    scale_advantages,
    score_flags,
    vanilla_reward,
)


class TestExtractAnswer:
    def test_basic(self):
        assert extract_answer("reasoning <answer>B</answer>") == "B"

    def test_last_block_wins(self):
        assert extract_answer("<answer>A</answer> wait <answer>C</answer>") == "C"

    def test_trims_content(self):
        assert extract_answer("<answer>  B \n</answer>") == "B"

    def test_multiline_content(self):
        assert extract_answer("<answer>line one\nline two</answer>") == "line one\nline two"

    def test_no_block_is_empty(self):
        assert extract_answer("the answer is B") == EMPTY_ANSWER

    def test_unclosed_block_is_empty(self):
        assert extract_answer("<answer>B") == EMPTY_ANSWER

    def test_empty_block(self):
        assert extract_answer("<answer>   </answer>") == EMPTY_ANSWER


class TestAnswersMatch:
    def test_empty_never_matches(self):
        assert not answers_match(EMPTY_ANSWER, "")
        assert not answers_match(EMPTY_ANSWER, "B")

    def test_option_letter_case_insensitive(self):
        assert answers_match("b", "B")
        assert answers_match(" B ", "b")
        assert not answers_match("B.", "B")
        assert not answers_match("A", "B")

    def test_numerical_string_compare_by_default(self):
        assert answers_match("3.14", "3.14", "numerical")
        assert not answers_match("3.140", "3.14", "numerical")

    def test_open_ended_trimmed_compare(self):
        assert answers_match(" a red door ", "a red door", "open_ended")
        assert not answers_match("a red door", "a blue door", "open_ended")


class TestRewards:
    def test_vanilla(self):
        assert vanilla_reward(True) == 1.0
        assert vanilla_reward(False) == 0.0

    def test_rd_zero_alpha_is_exact_one(self):
        assert rd_reward(True, 0, 8) == 1.0

    def test_rd_full_alpha(self):
        assert rd_reward(True, 8, 8) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_rd_incorrect_is_zero(self):
        assert rd_reward(False, 3, 8) == 0.0

    def test_rd_validates_even_when_incorrect(self):
        with pytest.raises(RangeError):
            rd_reward(False, 9, 8)

    def test_rd_strictly_decreasing_in_alpha(self):
        values = [rd_reward(True, a, 8) for a in range(9)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestNormalizeAdvantages:
    def test_group_too_small(self):
        with pytest.raises(GroupTooSmallError):
            normalize_advantages([1.0])

    @pytest.mark.parametrize("rewards", [[0.0, 0.0], [0.5] * 4, [0.1, 0.1, 0.1]])
    def test_degenerate_group_is_all_zeros(self, rewards):
        assert normalize_advantages(rewards) == [0.0] * len(rewards)

    def test_known_binary_group(self):
        assert normalize_advantages([1.0, 0.0, 0.0, 0.0]) == pytest.approx(
            [1.5, -0.5, -0.5, -0.5], abs=1e-12
        )

    @settings(max_examples=200)
    @given(
        st.lists(
            st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_statistics_module(self, rewards):
        assume(max(rewards) - min(rewards) > 1e-6)
        mean = statistics.mean(rewards)
        std = statistics.stdev(rewards)
        expect = [(r - mean) / std for r in rewards]
        assert normalize_advantages(rewards) == pytest.approx(expect, rel=1e-9, abs=1e-9)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_output_is_standardized(self, rewards):
        assume(max(rewards) - min(rewards) > 1e-3)
        out = normalize_advantages(rewards)
        assert math.fsum(out) == pytest.approx(0.0, abs=1e-9)
        assert statistics.stdev(out) == pytest.approx(1.0, rel=1e-9)


class TestClosedFormAdvantages:
    def test_half_correct_group_of_four(self):
        a_correct, a_wrong = closed_form_advantages(4, 2)
        assert a_correct == pytest.approx(0.8660254037844386, abs=1e-12)
        assert a_wrong == pytest.approx(-0.8660254037844386, abs=1e-12)

    def test_three_of_eight(self):
        a_correct, a_wrong = closed_form_advantages(8, 3)
        assert a_correct == pytest.approx(1.20761472884912, abs=1e-6)
        assert a_wrong == pytest.approx(-0.724568837309472, abs=1e-5)

    def test_endpoints(self):
        assert closed_form_advantages(4, 0) == (None, 0.0)
        assert closed_form_advantages(4, 4) == (0.0, None)

    @pytest.mark.parametrize("g,x", [(1, 0), (4, -1), (4, 5)])
    def test_range_errors(self, g, x):
        with pytest.raises(RangeError):
            closed_form_advantages(g, x)

    @given(st.integers(2, 64), st.data())
    def test_algebraic_identities(self, g, data):
        x = data.draw(st.integers(1, g - 1))
        a_correct, a_wrong = closed_form_advantages(g, x)
        assert a_correct > 0 > a_wrong
        # group mean of advantages is zero
        assert x * a_correct + (g - x) * a_wrong == pytest.approx(0.0, abs=1e-12)
        # product collapses to -(g-1)/g independently of x
        assert a_correct * a_wrong == pytest.approx(-(g - 1) / g, abs=1e-12)

    def test_matches_normalization_on_binary_groups(self):
        for g in range(2, 11):
            for x in range(1, g):
                a_correct, a_wrong = closed_form_advantages(g, x)
                expect = [a_correct] * x + [a_wrong] * (g - x)
                got = normalize_advantages([1.0] * x + [0.0] * (g - x))
                assert got == pytest.approx(expect, abs=1e-12), (g, x)


class TestScaleAdvantages:
    def test_scales_elementwise(self):
        assert scale_advantages([1.5, -0.5], 0.5) == [0.75, -0.25]

    def test_gamma_one_is_identity(self):
        assert scale_advantages([1.5, -0.5], 1.0) == [1.5, -0.5]

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(RangeError):
            scale_advantages([1.0], gamma)

    @settings(max_examples=100)
    @given(
        st.lists(st.booleans(), min_size=2, max_size=12),
        st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
    )
    def test_normalization_is_gamma_invariant(self, flags, gamma):
        assume(any(flags) and not all(flags))
        binary = normalize_advantages([1.0 if f else 0.0 for f in flags])
        demand = normalize_advantages([gamma if f else 0.0 for f in flags])
        assert demand == pytest.approx(binary, abs=1e-12)


class TestScoreGroup:
    def test_score_flags_trail(self):
        group = score_flags(0.5, [True, False, False, True])
        assert group.x == 2 and group.size == 4
        assert group.rewards == [0.5, 0.0, 0.0, 0.5]
        expect_a = math.sqrt(3) / 2
        assert group.advantages == pytest.approx([expect_a, -expect_a, -expect_a, expect_a])
        assert group.scaled_advantages == pytest.approx(
            [0.5 * expect_a, -0.5 * expect_a, -0.5 * expect_a, 0.5 * expect_a]
        )

    def test_score_flags_rejects_bad_gamma(self):
        with pytest.raises(RangeError):
            score_flags(0.0, [True, False])


class TestPolicyLogProbs:
    def test_mismatched_response_counts(self):
        with pytest.raises(MisalignedSequencesError):
            PolicyLogProbs(current=((0.0,),), old=(), ref=((0.0,),))

    def test_mismatched_token_counts(self):
        with pytest.raises(MisalignedSequencesError):
            PolicyLogProbs(current=((0.0, 0.0),), old=((0.0,),), ref=((0.0, 0.0),))

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            PolicyLogProbs(current=((math.nan,),), old=((0.0,),), ref=((0.0,),))

    def test_from_record(self):
        rec = {"current": [[-0.5, -1.0]], "old": [[-0.5, -1.0]], "ref": [[-0.4, -0.9]],
               "scaled_advantages": [0.5]}
        lp = PolicyLogProbs.from_record(rec)
        assert lp.num_responses == 1
        assert [row.tolist() for row in lp.current] == [[-0.5, -1.0]]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arrays_are_bit_equal_to_float(self, data):
        lengths = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
        number = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**63), 2**64 - 1)
        rec = {
            name: [data.draw(st.lists(number, min_size=n, max_size=n)) for n in lengths]
            for name in ("current", "old", "ref")
        }
        lp = PolicyLogProbs.from_record({**rec, "scaled_advantages": [0.0] * len(lengths)})
        bits = lambda values: [struct.pack("<d", v) for v in values]
        for name in ("current", "old", "ref"):
            rows = getattr(lp, name)
            assert all(row.dtype == np.float64 and row.ndim == 1 for row in rows)
            assert [bits(row.tolist()) for row in rows] == [
                bits(float(v) for v in row) for row in rec[name]
            ]


def identity_logprobs(rows):
    """current == old == ref for the given token log-probs."""
    as_tuples = tuple(tuple(r) for r in rows)
    return PolicyLogProbs(current=as_tuples, old=as_tuples, ref=as_tuples)


class TestKlEstimate:
    def test_identical_policies_have_zero_kl(self):
        assert _kl_estimate([-0.5, -1.0], [-0.5, -1.0]) == 0.0

    def test_hand_value(self):
        # r = 2 on the single token: 2 - ln 2 - 1
        assert _kl_estimate([0.0], [math.log(2.0)]) == pytest.approx(1.0 - math.log(2.0))

    def test_token_averaging(self):
        got = _kl_estimate([0.0, 0.0], [math.log(2.0), 0.0])
        assert got == pytest.approx((1.0 - math.log(2.0)) / 2.0)

    def test_empty_sequence(self):
        assert _kl_estimate([], []) == 0.0

    def test_overflow_is_non_finite_error(self):
        # exp(ref - current) overflows a float past about 709
        with pytest.raises(NonFiniteError):
            _kl_estimate([-800.0], [0.0])

    @given(
        st.lists(st.floats(-5.0, 0.0, allow_nan=False), min_size=1, max_size=8),
        st.lists(st.floats(-5.0, 0.0, allow_nan=False), min_size=1, max_size=8),
    )
    def test_estimator_is_nonnegative(self, cur, ref):
        size = min(len(cur), len(ref))
        assert _kl_estimate(cur[:size], ref[:size]) >= 0.0


class TestGrpoObjective:
    def test_identity_policy_returns_mean_advantage(self):
        lp = identity_logprobs([[-0.5], [-1.0], [-0.2]])
        advantages = [0.9, -0.3, 0.1]
        got = grpo_objective([(lp, advantages)], epsilon=0.2, beta=0.0)
        assert got == pytest.approx(math.fsum(advantages) / 3, abs=1e-12)

    def test_positive_advantage_clips_high_ratio(self):
        # ratio = 1 + 2*eps, advantage +2: the clipped branch wins
        eps = 0.2
        lp = PolicyLogProbs(
            current=((math.log(1 + 2 * eps),),), old=((0.0,),), ref=((math.log(1 + 2 * eps),),)
        )
        got = grpo_objective([(lp, [2.0])], epsilon=eps, beta=0.0)
        assert got == pytest.approx((1 + eps) * 2.0, abs=1e-12)

    def test_negative_advantage_keeps_unclipped_ratio(self):
        # same high ratio with advantage -1: min picks the unclipped term
        eps = 0.2
        lp = PolicyLogProbs(
            current=((math.log(1 + 2 * eps),),), old=((0.0,),), ref=((math.log(1 + 2 * eps),),)
        )
        got = grpo_objective([(lp, [-1.0])], epsilon=eps, beta=0.0)
        assert got == pytest.approx(-(1 + 2 * eps), abs=1e-12)

    def test_low_ratio_with_positive_advantage_is_unclipped(self):
        lp = PolicyLogProbs(current=((math.log(0.5),),), old=((0.0,),), ref=((math.log(0.5),),))
        got = grpo_objective([(lp, [1.0])], epsilon=0.2, beta=0.0)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_kl_penalty_subtracts(self):
        lp = PolicyLogProbs(current=((0.0,),), old=((0.0,),), ref=((math.log(2.0),),))
        got = grpo_objective([(lp, [0.0])], epsilon=0.2, beta=0.5)
        assert got == pytest.approx(-0.5 * (1.0 - math.log(2.0)), abs=1e-12)

    def test_averages_over_groups(self):
        g1 = (identity_logprobs([[0.0], [0.0]]), [1.0, 0.0])
        g2 = (identity_logprobs([[0.0], [0.0]]), [0.0, -1.0])
        got = grpo_objective([g1, g2], epsilon=0.2, beta=0.0)
        assert got == pytest.approx((0.5 + -0.5) / 2, abs=1e-12)

    def test_epsilon_must_be_positive(self):
        lp = identity_logprobs([[0.0]])
        for epsilon in (0.0, math.nan):
            with pytest.raises(RangeError):
                grpo_objective([(lp, [1.0])], epsilon=epsilon, beta=0.0)

    def test_beta_must_be_nonnegative(self):
        lp = identity_logprobs([[0.0]])
        for beta in (-0.1, math.nan):
            with pytest.raises(RangeError):
                grpo_objective([(lp, [1.0])], epsilon=0.2, beta=beta)

    def test_needs_groups(self):
        with pytest.raises(RangeError):
            grpo_objective([], epsilon=0.2, beta=0.0)

    def test_empty_group(self):
        lp = PolicyLogProbs(current=(), old=(), ref=())
        with pytest.raises(GroupTooSmallError):
            grpo_objective([(lp, [])], epsilon=0.2, beta=0.0)

    def test_advantage_count_mismatch(self):
        lp = identity_logprobs([[0.0]])
        with pytest.raises(MisalignedSequencesError):
            grpo_objective([(lp, [1.0, 2.0])], epsilon=0.2, beta=0.0)

    def test_ratio_overflow(self):
        lp = PolicyLogProbs(current=((1000.0,),), old=((0.0,),), ref=((1000.0,),))
        with pytest.raises(NonFiniteError):
            grpo_objective([(lp, [1.0])], epsilon=0.2, beta=0.0)
