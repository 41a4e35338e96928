from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memroll import (
    DEFAULT_COUNTER,
    MetricReport,
    RolloutConfig,
    ScriptedEnv,
    ScriptedPolicy,
    Task,
    WordTokenizer,
    aggregate,
    composite_from_tasks,
    dependency,
    em_reward,
    exact_match,
    f1,
    f1_single,
    normalize_answer,
    peak_tokens,
    run_rollout,
    score_trajectory,
    valid_action_ratio,
)

from helpers import random_episode, scripted_episode


class TestNormalizeAnswer:
    def test_lowercase_articles_punctuation(self):
        assert normalize_answer("The  United States!") == "united states"

    def test_whitespace_collapse(self):
        assert normalize_answer("  a   b  ") == "b"  # leading article dropped


class TestExactMatch:
    def test_two_correct_parts(self):
        assert exact_match("Paris; 1969", [["Paris"], ["1969"]]) == 2.0

    def test_count_mismatch_scores_zero(self):
        assert exact_match("Paris", [["Paris"], ["1969"]]) == 0.0

    def test_normalization_applies(self):
        assert exact_match("paris", [["Paris"]]) == 1.0
        assert exact_match("the Paris.", [["Paris"]]) == 1.0

    def test_any_variant_matches(self):
        assert exact_match("4", [["four", "4"]]) == 1.0

    def test_partial_credit(self):
        assert exact_match("Paris; 1970", [["Paris"], ["1969"]]) == 1.0

    def test_bounded_by_objective_count(self):
        gold = [["a"], ["b"], ["c"]]
        assert 0.0 <= exact_match("a; b; c", gold) <= len(gold)


class TestF1:
    def test_subset_prediction(self):
        # p = 1.0 (both words in gold), r = 0.5 (2 of 4 gold words).
        value = f1("united states", [["United States of America"]])
        assert value == pytest.approx(0.6667, abs=1e-4)

    def test_identity(self):
        assert f1("Paris", [["Paris"]]) == 1.0

    def test_disjoint_is_zero(self):
        assert f1("Vienna", [["Paris"]]) == 0.0

    def test_count_mismatch_scores_zero(self):
        assert f1("Paris", [["Paris"], ["1969"]]) == 0.0

    def test_sums_over_sub_answers(self):
        value = f1("united states; Vienna", [["United States of America"], ["Vienna"]])
        assert value == pytest.approx(1.6667, abs=1e-4)

    def test_max_over_variants(self):
        assert f1("USA", [["United States of America", "USA"]]) == 1.0

    def test_multiset_common_count(self):
        # "very very good": common with "very good" is {very:1, good:1} -> c=2.
        value = f1_single("very very good", "very good")
        assert value == pytest.approx(2 * (2 / 3) * (2 / 2) / ((2 / 3) + (2 / 2)))

    def test_symmetry_under_swap(self):
        assert f1_single("red panda", "panda") == f1_single("panda", "red panda")

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from("alpha beta gamma delta".split()), min_size=1, max_size=6))
    def test_bounds(self, words):
        value = f1_single(" ".join(words), "alpha beta")
        assert 0.0 <= value <= 1.0


class TestDependency:
    def test_single_turn_formula(self):
        assert dependency((10, 4)) == 36.0

    def test_zero_generated(self):
        assert dependency([(10, 0), (25, 0)]) == 0.0

    def test_two_turn_sum(self):
        # Per turn: (2*2+5)*2/2 = 9 and (2*3+8)*3/2 = 21.
        assert dependency([(5, 2), (8, 3)]) == 30.0

    def test_exact_variant(self):
        # Strict-causal count: 10*4 + 4*3/2 = 46, not the closed form's 36.
        assert dependency((10, 4), exact=True) == 46.0

    def test_exact_variant_formula(self):
        turns = [(5, 2), (8, 3), (13, 1)]
        expected = sum(n_p * n_o + n_o * (n_o - 1) / 2 for n_p, n_o in turns)
        assert dependency(turns, exact=True) == expected

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 200)), max_size=8))
    def test_matches_independent_formula(self, turns):
        expected = sum((2 * n_o + n_p) * n_o / 2 for n_p, n_o in turns)
        assert dependency(turns) == expected

    def test_trajectory_input_uses_counter(self):
        rng = random.Random(3)
        record = scripted_episode(rng, turns=3)
        prefix = record.task.prompt_prefix
        expected = sum(
            (2 * n_o + n_p) * n_o / 2
            for n_p, n_o in (
                (
                    DEFAULT_COUNTER.count(t.context_snapshot.removeprefix(prefix)),
                    DEFAULT_COUNTER.count(t.generation.text),
                )
                for t in record.turns
            )
        )
        assert dependency(record) == expected


def single_task():
    return composite_from_tasks([Task("q1", "Capital of France?", ["Paris"])])


class TestPeakTokens:
    def test_single_turn_counts_question_plus_generation(self):
        record = run_rollout(
            single_task(), ScriptedPolicy(["<answer>Paris</answer>"]), ScriptedEnv(["d"]),
            RolloutConfig(),
        )
        expected = DEFAULT_COUNTER.count("Capital of France?<answer>Paris</answer>")
        assert peak_tokens(record) == expected

    def test_empty_generation_counts_question(self):
        record = run_rollout(
            single_task(), ScriptedPolicy([""]), ScriptedEnv(["d"]), RolloutConfig(max_turns=1)
        )
        assert peak_tokens(record) == DEFAULT_COUNTER.count("Capital of France?")

    def test_consolidate_below_full_append(self):
        script = [f"<IS>note {i}</IS><query>find {i}</query>" for i in range(4)] + [
            "<answer>Paris</answer>"
        ]
        peaks = {}
        for mode in ("consolidate", "full_append"):
            record = run_rollout(
                single_task(), ScriptedPolicy(script), ScriptedEnv(["some document text"]),
                RolloutConfig(max_turns=6, mode=mode),
            )
            peaks[mode] = peak_tokens(record)
        assert peaks["consolidate"] < peaks["full_append"]

    def test_full_append_peak_is_last_turn(self):
        # Appending monotonically means the last turn is always the largest.
        rng = random.Random(11)
        record = scripted_episode(rng, mode="full_append", turns=5)
        prefix = record.task.prompt_prefix
        last = record.turns[-1]
        expected = DEFAULT_COUNTER.count(
            last.context_snapshot.removeprefix(prefix) + last.generation.text
        )
        assert peak_tokens(record) == expected


def fresh_metrics(record):
    """peak_tokens and dependency with every text counted by a new counter."""
    prefix = record.task.prompt_prefix
    sizes = [
        (WordTokenizer().count(t.context_snapshot.removeprefix(prefix)),
         WordTokenizer().count(t.generation.text))
        for t in record.turns
    ]
    peak = max(
        (WordTokenizer().count(t.context_snapshot.removeprefix(prefix) + t.generation.text)
         for t in record.turns),
        default=0,
    )
    return peak, dependency(sizes)


class TestSharedCounter:
    """The shared DEFAULT_COUNTER remembers the last text it counted; scores
    must not depend on what it counted before."""

    def test_shared_counter_scores_like_fresh_counters(self):
        rng = random.Random(21)
        records = [random_episode(rng) for _ in range(16)]
        assert {r.config.mode for r in records} == {"consolidate", "full_append"}
        expected = [fresh_metrics(r) for r in records]
        # Each record scored twice, then all of them in alternating order.
        order = [i for i in range(len(records)) for _ in range(2)]
        order += [i for pair in zip(range(0, 16, 2), range(15, 0, -2)) for i in pair]
        for i in order:
            record = records[i]
            assert (peak_tokens(record), dependency(record)) == expected[i]
            report = score_trajectory(record)
            assert (report.peak_tokens, report.dependency) == expected[i]

    @pytest.mark.parametrize("mode", ["consolidate", "full_append"])
    def test_generations_that_merge_with_their_context(self, mode):
        # Space after space, word after word (ASCII and not): each first
        # generation continues the run its context ends with, so counting the
        # two together gives one token fewer than counting them apart. In the
        # one-turn episodes that merged sequence is the peak.
        records = []
        for question, lead in [("Capital of France? ", "  "), ("Capital of France", "so"),
                               ("\u9996\u90fd", "\u6771\u4eac")]:
            answer = f"{lead}<answer>Paris</answer>"
            for script in ([f"{lead}<IS>note</IS><query>find</query>", answer], [answer]):
                records.append(run_rollout(
                    composite_from_tasks([Task("q1", question, ["Paris"])]), ScriptedPolicy(script),
                    ScriptedEnv(["some document text"]), RolloutConfig(mode=mode),
                ))
        for record in records:
            context = record.turns[0].context_snapshot.removeprefix(record.task.prompt_prefix)
            generation = record.turns[0].generation.text
            count = WordTokenizer().count
            assert count(context + generation) - count(context) == count(generation) - 1
        expected = [fresh_metrics(r) for r in records]
        for i in [0, 1, 1, 2, 3, 3, 4, 5, 4, 5, 2, 0]:
            assert (peak_tokens(records[i]), dependency(records[i])) == expected[i]
            report = score_trajectory(records[i])
            assert (report.peak_tokens, report.dependency) == expected[i]


class TestEmReward:
    def answered_record(self):
        return run_rollout(
            composite_from_tasks([Task("a", "A?", ["x"]), Task("b", "B?", ["y"])]),
            ScriptedPolicy(["<answer>x; y</answer>"]),
            ScriptedEnv(["d"]),
            RolloutConfig(),
        )

    def invalid_record(self):
        return run_rollout(
            single_task(), ScriptedPolicy(["no tags"]), ScriptedEnv(["d"]), RolloutConfig()
        )

    def turn_limit_record(self):
        return run_rollout(
            single_task(), ScriptedPolicy(["<query>q</query>"] * 2), ScriptedEnv(["d"]),
            RolloutConfig(max_turns=2),
        )

    def test_answered_all_correct(self):
        assert em_reward(self.answered_record()) == 2.0

    def test_invalid_outcome_only(self):
        assert em_reward(self.invalid_record(), mode="outcome_only") == 0.0

    def test_invalid_with_format_penalty(self):
        assert em_reward(self.invalid_record(), mode="with_format_penalty") == -1.0

    def test_turn_limit_scores_zero(self):
        record = self.turn_limit_record()
        assert em_reward(record) == 0.0
        assert em_reward(record, mode="with_format_penalty") == 0.0

    def test_explicit_gold_overrides(self):
        assert em_reward(self.answered_record(), gold=[["wrong"], ["also wrong"]]) == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            em_reward(self.answered_record(), mode="strict")


class TestScoreTrajectory:
    def test_full_report(self):
        rng = random.Random(2)
        record = scripted_episode(rng, turns=3, objective_count=2)
        report = score_trajectory(record)
        assert report.trajectory_id == record.task.id
        assert report.objective_count == 2
        assert report.em <= report.objective_count
        assert report.f1 <= report.objective_count
        assert report.peak_tokens == peak_tokens(record)
        assert report.dependency == dependency(record)
        assert report.valid_action_ratio == 1.0
        assert report.terminated == record.terminated
        assert report.reward is None

    def test_env_reward_surfaces(self):
        env = ScriptedEnv([{"text": "bought", "reward": 50.0, "done": True}])
        record = run_rollout(single_task(), ScriptedPolicy(["<query>buy</query>"]), env, RolloutConfig())
        assert score_trajectory(record).reward == 50.0

    def test_invalid_episode_ratio(self):
        record = run_rollout(
            single_task(), ScriptedPolicy(["<query>q</query>", "garbage"]), ScriptedEnv(["d"]),
            RolloutConfig(),
        )
        assert valid_action_ratio(record) == 0.5
        report = score_trajectory(record)
        assert report.em == 0.0 and report.f1 == 0.0


class TestAggregate:
    def make_report(self, **overrides):
        base = dict(
            trajectory_id="t", objective_count=1, em=1.0, f1=1.0, peak_tokens=100,
            dependency=50.0, wall_time_s=0.1, valid_action_ratio=1.0, terminated="answered",
            reward=None,
        )
        base.update(overrides)
        return MetricReport(**base)

    def test_mean_and_std(self):
        reports = [self.make_report(em=1.0), self.make_report(em=3.0)]
        agg = aggregate(reports)
        assert agg["count"] == 2
        assert agg["em"] == {"mean": 2.0, "std": 1.0}

    def test_empty(self):
        assert aggregate([]) == {"count": 0}

    def test_reward_only_when_present(self):
        assert "reward" not in aggregate([self.make_report()])
        agg = aggregate([self.make_report(reward=80.0)])
        assert agg["reward"]["mean"] == 80.0
