"""Trajectory records and the archive format: what a rollout writes and what
score and export-masks read.

A trajectory file is TrajectoryRecord.to_dict as compact JSON (to_json). Each
turn stores only its context snapshot, generation, info and, when it has one,
its reward; reading derives the rest with parse_turn and refuses a trajectory
that no rollout could have written. Since version 4 a snapshot is stored only
where the context rule (context.advance) cannot derive it. Turn 0 stores its
snapshot whole: it is the task's rendered prompt, so the archived task stores
no prompt of its own. Each later turn stores "context_snapshot": "", because
its snapshot is the context the rule derives from the prompt and the turns
before it. Reading replays the rule and keeps each turn's state, which the
snapshot renders from on access. A version 4 file is refused if its task
stores a prompt, if a later turn stores a snapshot, or if any turn stores a
context_kept. Every turn keeps its context_snapshot key: the benchmark's
output check (perfbench/run.py) counts turn 0's stored snapshot as it
stands, and its traced runs read the key from every turn.

Versions 1 to 3 still read. Their task stores its prompt, and each turn its
snapshot against a reference string: context_kept counts the leading
characters the two share (absent when none) and context_snapshot holds the
text after them. The reference is the rule's context (version 3), the
previous snapshot (version 2) or nothing (version 1). Reading holds each
snapshot to the rule, starting from the task's prompt, and refuses, as an
IntegrityError, one that departs from it. Reading an archive needs this
module and the context rule, not the policies and the turn loop in rollout.py.
"""

from __future__ import annotations

import json
from types import NoneType
from typing import Sequence

from .compose import CompositeTask, composite_from_dict
from .context import ContextState, advance, initial_state, render_context
from .core import DataError, IntegrityError, RolloutConfig, _typed, config_from_mapping, record
from .tagparse import Answer, Invalid, ParsedTurn, Query, parse_turn

__all__ = [
    "ARCHIVE_VERSION",
    "Generation",
    "TurnRecord",
    "TrajectoryRecord",
    "dump_turns",
    "load_turns",
    "check_version",
    "to_json",
]


_NUMBER = (int, float)
# The format of trajectory files and manifests. Version 4 stores the prompt
# once, as turn 0's snapshot, and nothing of a later turn's snapshot
# (dump_turns); version 3 stored each later turn as the length of the context
# the rule derives, version 2 each snapshot against the previous one, and
# version 1, which wrote no version key, every snapshot whole. Versions 1 to 3
# also stored the task's prompt.
ARCHIVE_VERSION = 4
# How an episode may end, by the action of its last turn.
_ENDINGS = {Query: ("answered", "turn_limit"), Answer: ("answered",), Invalid: ("invalid",)}


def to_json(data: dict) -> str:
    """The text of an archive file holding data: JSON with sorted keys and no
    whitespace, on one line. Non-ASCII characters are escaped, so a lone
    surrogate in a generation round-trips."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


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
    """Everything observed during one turn. context is the rule's state when
    the policy was asked (a snapshot string alone is a state whose head is
    that string), and context_snapshot, its rendering, the exact string the
    policy saw; info is the hint-injected environment feedback (present
    exactly for query turns).

    Only the snapshot, generation, info and env_reward are stored. Reading
    replays context and reads generation.text with its preset into parsed;
    index, context_snapshot and valid are derived on access. A turn stores
    its snapshot whole, or "" when reading replays it (dump_turns says
    which), and env_reward only when there is one.
    """

    context: ContextState
    generation: Generation
    parsed: ParsedTurn
    info: str | None
    env_reward: float | None = None

    @property
    def index(self) -> int:
        return self.context.turn_index

    @property
    def context_snapshot(self) -> str:
        return render_context(self.context)

    @property
    def valid(self) -> bool:
        return self.parsed.valid

    def to_dict(self, replayed: bool = False) -> dict:
        """The stored form: the snapshot whole, or "" when replayed."""
        data = {"context_snapshot": "" if replayed else self.context_snapshot,
                "generation": self.generation.to_dict(), "info": self.info}
        if self.env_reward is not None:
            data["env_reward"] = self.env_reward
        return data

    @classmethod
    def from_dict(
        cls, data: dict, context: ContextState, version: int = ARCHIVE_VERSION, previous: str = ""
    ) -> "TurnRecord":
        """Read a turn stored at version, asked when the rule held context.
        From version 4 only turn 0 stores a snapshot, context's head, and no
        turn stores context_kept. Before, context_kept counts the leading
        characters the snapshot shares with a reference (absent when none),
        the stored text following them: after turn 0, context's rendering
        (version 3) or previous, the snapshot before (version 2), else "".
        IntegrityError refuses a snapshot that is not context's rendering.
        Other keys (older archives store index, parsed, valid and latency_s)
        are ignored."""
        _typed(data, {"context_snapshot": str, "generation": dict, "info": (str, NoneType),
                      "env_reward": (*_NUMBER, NoneType)})
        index, stored = context.turn_index, data["context_snapshot"]
        if version < 4:
            rendered = render_context(context)
            reference = rendered if version == 3 and index else previous
            kept = data.get("context_kept", 0)
            # type(), not isinstance(): a JSON true reads as True, an int subclass.
            if type(kept) is not int or not 0 <= kept <= len(reference):
                raise DataError(f"turn {index}: context_kept {kept!r} is not a count of the "
                                f"{len(reference)} characters of its reference")
            departed = reference[:kept] + stored != rendered
        elif "context_kept" in data or (index and stored):
            raise DataError(f"turn {index}: a version {version} turn stores no context_kept, "
                            "and after turn 0 no snapshot")
        else:
            departed = not index and stored != context.head
        generation = Generation.from_dict(data["generation"])
        if departed:
            raise IntegrityError(f"turn {index}: its context is not the one the rule derives "
                                 "from the prompt and the turns before it")
        return cls(context, generation, parse_turn(generation.text, context.preset), data["info"], data.get("env_reward"))


def _continues(turn: TurnRecord) -> bool:
    """Whether an episode can go on after turn: only a query with its info."""
    return isinstance(turn.parsed.action, Query) and turn.info is not None


def _flow_error(turn: TurnRecord) -> DataError:
    return DataError(f"turn {turn.index} reads as {turn.parsed.action}, info {turn.info!r:.40}")


def dump_turns(turns: Sequence[TurnRecord]) -> list[dict]:
    """The stored form of an episode's turns: turn 0's snapshot whole, and ""
    for each later one, which load_turns replays from the turns before it."""
    return [turn.to_dict(replayed=index > 0) for index, turn in enumerate(turns)]


def load_turns(
    data: list, config: RolloutConfig, prompt: str, version: int = ARCHIVE_VERSION
) -> tuple[TurnRecord, ...]:
    """Read turns that dump_turns stored at version, of an episode run with
    config on a task whose rendered prompt is prompt. The rule starts from
    prompt, and each turn holds the state it derives from the turns before,
    which TurnRecord.from_dict reads the turn against. Every turn but the
    last must be a query with its info, else DataError, checked before the
    rule advances over it."""
    turns: list[TurnRecord] = []
    state = initial_state(prompt, config.preset, config.mode)
    for item in data:
        if turns:
            if not _continues(turns[-1]):
                raise _flow_error(turns[-1])
            state = advance(state, turns[-1].parsed, turns[-1].info)
        previous = turns[-1].context_snapshot if turns and version == 2 else ""
        turns.append(TurnRecord.from_dict(item, state, version, previous))
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
            "task": self.task.to_dict(prompt=False),
            "turns": dump_turns(self.turns),
            "final_answer": self.final_answer,
            "terminated": self.terminated,
            "config": self.config.to_dict(),
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrajectoryRecord":
        """Read a stored trajectory. DataError refuses one that run_rollout could
        not have written: an unknown version, a value of the wrong JSON type,
        no turns, a snapshot stored where the version stores none, a
        context_kept longer than its reference, or turns whose parses
        disagree with how the episode went. Every turn but the last is a
        query, info comes exactly with a query, and the last turn's action
        decides terminated and, when answered, the final answer. From version
        4 the task's prompt is turn 0's stored snapshot. Before, the task
        stores it, and IntegrityError refuses a snapshot the policy could not
        have seen: turn 0's must be the task's prompt, and each later one the
        context the rule derives from the turns before it."""
        _typed(data, {"task": dict, "turns": list, "final_answer": (str, NoneType), "terminated": str,
                      "config": dict, "wall_time_s": _NUMBER})
        version = check_version(data)
        config = config_from_mapping(data["config"])
        stored = data["turns"]
        if not stored:
            raise DataError("a trajectory needs at least one turn")
        prompt = None
        if version >= 4:
            if "prompt" in data["task"]:
                raise DataError(f"a version {version} task stores no prompt: turn 0's snapshot is its prompt")
            _typed(stored[0], {"context_snapshot": str})
            prompt = stored[0]["context_snapshot"]
        task = composite_from_dict(data["task"], prompt)
        turns = load_turns(stored, config, task.rendered_prompt, version)
        if isinstance(turns[-1].parsed.action, Query) != (turns[-1].info is not None):
            raise _flow_error(turns[-1])
        action = turns[-1].parsed.action
        terminated, final_answer = data["terminated"], data["final_answer"]
        if terminated not in _ENDINGS[type(action)]:
            raise DataError(f"terminated {terminated!r} cannot follow a last turn read as {action}")
        if final_answer != (action.text if terminated == "answered" else None):
            raise DataError(f"final_answer {final_answer!r} does not follow a last turn read as {action}")
        return cls(task, turns, final_answer, terminated, config, data.get("wall_time_s", 0.0))
