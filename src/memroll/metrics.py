"""Accuracy and efficiency metrics over finished trajectories.

Accuracy follows the usual open-domain QA conventions: answers are compared
after lowercasing, dropping articles and punctuation, and collapsing
whitespace; multi-objective predictions are split on semicolons and scored
positionally, with a count mismatch scoring zero. Efficiency metrics are
token-denominated under a caller-supplied counter and exclude the prompt
template portion of the context (the questions themselves count).
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Sequence
from statistics import fmean, pstdev

from .compose import gold_of
from .core import DEFAULT_COUNTER, TokenCounter, record
from .rollout import TrajectoryRecord
from .tagparse import split_answers

__all__ = [
    "normalize_answer",
    "exact_match",
    "f1",
    "f1_single",
    "peak_tokens",
    "dependency",
    "em_reward",
    "valid_action_ratio",
    "MetricReport",
    "score_trajectory",
    "aggregate",
]

_ARTICLES = re.compile(r"\b(a|an|the)\b")
# string.punctuation, spelled out: importing string costs a score child 2 ms.
_PUNCT_TABLE = str.maketrans("", "", "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    text = text.lower().translate(_PUNCT_TABLE)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def exact_match(prediction: str, gold: list[list[str]]) -> float:
    """Positional exact match: one point per sub-answer that matches any of
    its gold variants after normalization. A sub-answer count mismatch scores
    zero outright."""
    parts = split_answers(prediction)
    if len(parts) != len(gold):
        return 0.0
    score = 0.0
    for part, variants in zip(parts, gold):
        normalized = normalize_answer(part)
        if any(normalized == normalize_answer(v) for v in variants):
            score += 1.0
    return score


def f1_single(prediction: str, truth: str) -> float:
    """Bag-of-words F1 between one predicted sub-answer and one gold variant.

    Both sides are split into lowercase word lists; c is the multiset common
    count, precision c/len(pred), recall c/len(truth). No common words means
    zero.
    """
    pred_words = prediction.lower().split()
    truth_words = truth.lower().split()
    common = Counter(pred_words) & Counter(truth_words)
    c = sum(common.values())
    if c == 0:
        return 0.0
    precision = c / len(pred_words)
    recall = c / len(truth_words)
    return 2 * precision * recall / (precision + recall)


def f1(prediction: str, gold: list[list[str]]) -> float:
    """Sum over sub-questions of the best-variant F1; zero on count mismatch."""
    parts = split_answers(prediction)
    if len(parts) != len(gold):
        return 0.0
    return sum(max(f1_single(part, v) for v in variants) for part, variants in zip(parts, gold))


def peak_tokens(trajectory: TrajectoryRecord, counter: TokenCounter = DEFAULT_COUNTER) -> int:
    """Largest single sequence the episode ever held: per turn, the context
    snapshot (template excluded, questions included) concatenated with that
    turn's generated text."""
    prefix = trajectory.task.prompt_prefix
    peak = 0
    for turn in trajectory.turns:
        seq = turn.context_snapshot.removeprefix(prefix) + turn.generation.text
        peak = max(peak, counter.count(seq))
    return peak


def _turn_sizes(
    trajectory_or_turns: TrajectoryRecord | Sequence[tuple[int, int]] | tuple[int, int],
    counter: TokenCounter,
) -> list[tuple[int, int]]:
    if isinstance(trajectory_or_turns, TrajectoryRecord):
        prefix = trajectory_or_turns.task.prompt_prefix
        turns = trajectory_or_turns.turns
        # All snapshots first, then all generations: a counter that counts
        # only what a text adds to the last one sees each snapshot extend the
        # one before it, instead of a generation in between.
        contexts = [counter.count(t.context_snapshot.removeprefix(prefix)) for t in turns]
        return list(zip(contexts, [counter.count(t.generation.text) for t in turns]))
    turns = trajectory_or_turns
    if len(turns) == 2 and all(isinstance(v, (int, float)) for v in turns):
        return [tuple(turns)]
    return [tuple(pair) for pair in turns]


def dependency(
    trajectory_or_turns: TrajectoryRecord | Sequence[tuple[int, int]] | tuple[int, int],
    counter: TokenCounter = DEFAULT_COUNTER,
    exact: bool = False,
) -> float:
    """Cumulative attention cost, summed over turns.

    Accepts a trajectory (per-turn sizes derived with counter, template
    excluded), one (n_p, n_o) pair, or a sequence of pairs. Per turn the
    default adds (2*n_o + n_p) * n_o / 2, the published closed form.
    exact=True instead counts each generated token's strict-causal
    predecessors, n_p*n_o + n_o*(n_o-1)/2, which the closed form approximates.
    """
    total = 0.0
    for n_p, n_o in _turn_sizes(trajectory_or_turns, counter):
        if exact:
            total += n_p * n_o + n_o * (n_o - 1) / 2
        else:
            total += (2 * n_o + n_p) * n_o / 2
    return total


def em_reward(
    trajectory: TrajectoryRecord,
    gold: list[list[str]] | None = None,
    mode: str = "outcome_only",
) -> float:
    """Exact-match outcome reward.

    outcome_only scores the final answer (0 unless the episode answered);
    with_format_penalty additionally returns -1 when the episode died on a
    malformed turn.
    """
    if mode not in ("outcome_only", "with_format_penalty"):
        raise ValueError(f"unknown reward mode {mode!r}")
    if gold is None:
        gold = gold_of(trajectory.task)
    if mode == "with_format_penalty" and trajectory.terminated == "invalid":
        return -1.0
    if trajectory.terminated != "answered" or trajectory.final_answer is None:
        return 0.0
    return exact_match(trajectory.final_answer, gold)


def valid_action_ratio(trajectory: TrajectoryRecord) -> float:
    """Fraction of turns whose action parsed cleanly."""
    if not trajectory.turns:
        return 0.0
    return sum(1 for t in trajectory.turns if t.valid) / len(trajectory.turns)


@record
class MetricReport:
    """Per-trajectory scores. reward carries environment reward when one was
    observed (shop episodes) and stays None for plain QA."""

    trajectory_id: str
    objective_count: int
    em: float
    f1: float
    peak_tokens: int
    dependency: float
    wall_time_s: float
    valid_action_ratio: float
    terminated: str
    reward: float | None = None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def score_trajectory(
    trajectory: TrajectoryRecord, counter: TokenCounter = DEFAULT_COUNTER
) -> MetricReport:
    """All metrics for one trajectory against its own task's gold."""
    gold = gold_of(trajectory.task)
    answered = trajectory.terminated == "answered" and trajectory.final_answer is not None
    env_rewards = [t.env_reward for t in trajectory.turns if t.env_reward is not None]
    return MetricReport(
        trajectory_id=trajectory.task.id,
        objective_count=trajectory.task.objective_count,
        em=exact_match(trajectory.final_answer, gold) if answered else 0.0,
        f1=f1(trajectory.final_answer, gold) if answered else 0.0,
        peak_tokens=peak_tokens(trajectory, counter),
        dependency=dependency(trajectory, counter),
        wall_time_s=trajectory.wall_time_s,
        valid_action_ratio=valid_action_ratio(trajectory),
        terminated=trajectory.terminated,
        reward=env_rewards[-1] if env_rewards else None,
    )


_AGGREGATE_FIELDS = ("em", "f1", "peak_tokens", "dependency", "wall_time_s", "valid_action_ratio")


def aggregate(reports: list[MetricReport]) -> dict:
    """Mean and population standard deviation per metric, reward included
    when any trajectory carried one."""
    out: dict = {"count": len(reports)}
    if not reports:
        return out
    for name in _AGGREGATE_FIELDS:
        values = [float(getattr(r, name)) for r in reports]
        out[name] = {"mean": fmean(values), "std": pstdev(values)}
    rewards = [r.reward for r in reports if r.reward is not None]
    if rewards:
        out["reward"] = {"mean": fmean(rewards), "std": pstdev(rewards)}
    return out
