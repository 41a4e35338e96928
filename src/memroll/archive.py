"""Trajectory records and the archive format: what a rollout writes and what
score and export-masks read.

A trajectory file is TrajectoryRecord.to_dict as JSON. Each turn stores only
its context snapshot, generation, info and reward; reading derives the rest
with parse_turn and refuses a trajectory that no rollout could have written.
A snapshot is stored against a reference: for turn 0 none, so it is stored
whole; for each later turn the context the context rule (context.replay)
derives from turn 0's snapshot and the turns before it, so a rollout's later
turns store "". Turn 0 is never stored against the task's prompt, though it
repeats it, and every turn keeps its context_snapshot key, "" or not: the
benchmark's output check (perfbench/run.py) counts turn 0's stored snapshot
as it stands, and its traced runs read the key from every turn. Reading an
archive needs this module and the context rule, not the policies and the
turn loop in rollout.py.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat, takewhile
from types import NoneType
from typing import Sequence

from .compose import CompositeTask, composite_from_dict
from .context import replay
from .core import DataError, RolloutConfig, TagPreset, config_from_mapping, record
from .tagparse import Answer, Invalid, ParsedTurn, Query, parse_turn

__all__ = [
    "ARCHIVE_VERSION",
    "Generation",
    "TurnRecord",
    "TrajectoryRecord",
    "shared_prefix",
    "dump_turns",
    "load_turns",
    "check_version",
]


_NUMBER = (int, float)
# The format of trajectory files and manifests. Version 3 stores each turn's
# snapshot against the context the rule derives from the turn before
# (dump_turns); version 2 stored it against the previous snapshot, and
# version 1, which wrote no version key, stored it whole.
ARCHIVE_VERSION = 3
# How an episode may end, by the action of its last turn.
_ENDINGS = {Query: ("answered", "turn_limit"), Answer: ("answered",), Invalid: ("invalid",)}


def _typed(data: dict, kinds: dict) -> None:
    """Refuse data with DataError unless it is an object whose keys named in
    kinds hold one of the types given for them."""
    if not isinstance(data, dict):
        raise DataError(f"expected a JSON object, got {type(data).__name__}")
    for key, kind in kinds.items():
        if key in data and not isinstance(data[key], kind):
            raise DataError(f"{key} holds {type(data[key]).__name__}")


@record
class Generation:
    """One policy emission. finish is 'stop' (a stop marker was hit, named in
    stop_marker), 'eos', or 'length' (token budget)."""

    text: str
    finish: str
    stop_marker: str | None = None
    latency_s: float = 0.0

    def to_dict(self) -> dict:
        return {"text": self.text, "finish": self.finish, "stop_marker": self.stop_marker,
                "latency_s": self.latency_s}

    @classmethod
    def from_dict(cls, data: dict) -> "Generation":
        _typed(data, {"text": str, "finish": str, "stop_marker": (str, NoneType), "latency_s": _NUMBER})
        return cls(data["text"], data["finish"], data.get("stop_marker"), data.get("latency_s", 0.0))


@record
class TurnRecord:
    """Everything observed during one turn. context_snapshot is the exact
    string the policy saw; info is the hint-injected environment feedback
    (present exactly for query turns).

    Only the snapshot, generation, info and env_reward are stored: index (the
    turn's position) and parsed (generation.text read with the trajectory's
    tag preset) are derived on reading, and valid is parsed.valid. The
    snapshot is stored against a reference string (dump_turns says which):
    context_kept counts the leading characters the two share (absent when
    none, as on turn 0), and context_snapshot holds the text after them.
    """

    index: int
    context_snapshot: str
    generation: Generation
    parsed: ParsedTurn
    info: str | None
    env_reward: float | None = None

    @property
    def valid(self) -> bool:
        return self.parsed.valid

    def to_dict(self, reference: str = "") -> dict:
        """The stored form against reference ("" stores the snapshot whole)."""
        kept = shared_prefix(reference, self.context_snapshot)
        data = {"context_snapshot": self.context_snapshot[kept:], "generation": self.generation.to_dict(),
                "info": self.info, "env_reward": self.env_reward}
        if kept:
            data["context_kept"] = kept
        return data

    @classmethod
    def from_dict(cls, data: dict, index: int, preset: TagPreset, reference: str = "") -> "TurnRecord":
        """Read turn index of a trajectory tagged with preset, stored against
        reference; any other key (older archives store index, parsed, valid
        and latency_s) is ignored."""
        _typed(data, {"context_snapshot": str, "generation": dict, "info": (str, NoneType),
                      "env_reward": (*_NUMBER, NoneType)})
        kept = data.get("context_kept", 0)
        # type(), not isinstance(): a JSON true reads as True, an int subclass.
        if type(kept) is not int or not 0 <= kept <= len(reference):
            raise DataError(f"turn {index}: context_kept {kept!r} is not a count of the "
                            f"{len(reference)} characters of its reference")
        generation = Generation.from_dict(data["generation"])
        parsed = parse_turn(generation.text, preset)
        return cls(index, reference[:kept] + data["context_snapshot"], generation, parsed, data["info"],
                   data.get("env_reward"))


def shared_prefix(a: str, b: str) -> int:
    """The number of leading characters a and b share. A bisection over
    str.startswith, so the characters are compared in C."""
    if b.startswith(a):
        return len(a)
    low, high = 0, min(len(a), len(b))
    while low < high:
        mid = (low + high + 1) // 2
        if b.startswith(a[:mid]):
            low = mid
        else:
            high = mid - 1
    return low


def _continues(turn: TurnRecord) -> bool:
    """Whether an episode can go on after turn: only a query with its info."""
    return isinstance(turn.parsed.action, Query) and turn.info is not None


def _flow_error(turn: TurnRecord) -> DataError:
    return DataError(f"turn {turn.index} reads as {turn.parsed.action}, info {turn.info!r:.40}")


def dump_turns(turns: Sequence[TurnRecord], config: RolloutConfig) -> list[dict]:
    """The stored form of an episode's turns, run with config: turn 0 whole,
    each later turn against the context the rule derives from turn 0's
    snapshot and the turns before it. Turns after one that does not continue
    the episode, which no rollout writes and reading refuses, are stored whole."""
    if not turns:
        return []
    pairs = ((turn.parsed, turn.info) for turn in takewhile(_continues, turns[:-1]))
    contexts = replay(turns[0].context_snapshot, config.preset, config.mode, pairs)
    next(contexts)  # turn 0's own context
    references = chain([""], contexts, repeat(""))
    return [turn.to_dict(reference) for turn, reference in zip(turns, references)]


def load_turns(data: list, config: RolloutConfig, version: int = ARCHIVE_VERSION) -> tuple[TurnRecord, ...]:
    """Read turns that dump_turns stored at version (version 2 stored each
    snapshot against the one before, version 1 whole). Every turn but the
    last must be a query with its info, else DataError; each is checked
    before the rule advances over it."""
    turns: list[TurnRecord] = []
    # The rule's input: the loop hands it each checked turn's (parsed, info)
    # just before asking for the context after that turn. Asking for one more
    # context than it was handed raises IndexError rather than ending the replay.
    fed: deque[tuple[ParsedTurn, str | None]] = deque()
    contexts = None
    for index, item in enumerate(data):
        reference = ""
        if turns:
            if not _continues(turns[-1]):
                raise _flow_error(turns[-1])
            if contexts is None:
                reference = turns[-1].context_snapshot
            else:
                fed.append((turns[-1].parsed, turns[-1].info))
                reference = next(contexts)
        turns.append(TurnRecord.from_dict(item, index, config.preset, reference))
        if index == 0 and version >= 3:
            contexts = replay(turns[0].context_snapshot, config.preset, config.mode, iter(fed.popleft, None))
            next(contexts)  # turn 0's own context
    return tuple(turns)


def check_version(data: dict) -> int:
    """The archive version of a stored object; one without a version key is
    version 1. DataError refuses a version this code does not know."""
    version = data.get("version", 1)
    if type(version) is not int or not 1 <= version <= ARCHIVE_VERSION:
        raise DataError(f"unknown archive version {version!r}")
    return version


@record
class TrajectoryRecord:
    """One finished episode. terminated is 'answered', 'turn_limit', or
    'invalid'; final_answer is present exactly when answered."""

    task: CompositeTask
    turns: tuple[TurnRecord, ...]
    final_answer: str | None
    terminated: str
    config: RolloutConfig
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "version": ARCHIVE_VERSION,
            "task": self.task.to_dict(),
            "turns": dump_turns(self.turns, self.config),
            "final_answer": self.final_answer,
            "terminated": self.terminated,
            "config": self.config.to_dict(),
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrajectoryRecord":
        """Read a stored trajectory. DataError refuses one that run_rollout could
        not have written: an unknown version, a value of the wrong JSON type, a
        context_kept longer than its reference, no turns, or turns whose
        parses disagree with how the episode went. Every turn but the last
        is a query, info comes exactly with a query, and the last turn's action
        decides terminated and, when answered, the final answer."""
        _typed(data, {"task": dict, "turns": list, "final_answer": (str, NoneType), "terminated": str,
                      "config": dict, "wall_time_s": _NUMBER})
        version = check_version(data)
        config = config_from_mapping(data["config"])
        turns = load_turns(data["turns"], config, version)
        if not turns:
            raise DataError("a trajectory needs at least one turn")
        if isinstance(turns[-1].parsed.action, Query) != (turns[-1].info is not None):
            raise _flow_error(turns[-1])
        action = turns[-1].parsed.action
        terminated, final_answer = data["terminated"], data["final_answer"]
        if terminated not in _ENDINGS[type(action)]:
            raise DataError(f"terminated {terminated!r} cannot follow a last turn read as {action}")
        if final_answer != (action.text if terminated == "answered" else None):
            raise DataError(f"final_answer {final_answer!r} does not follow a last turn read as {action}")
        task = composite_from_dict(data["task"])
        return cls(task, turns, final_answer, terminated, config, data.get("wall_time_s", 0.0))
