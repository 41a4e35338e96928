"""The turn loop: generate, parse, act, consolidate.

Each turn renders the context, asks the policy for a generation halted at the
turn's stop markers, and routes the parsed action: queries go to the
environment (whose feedback is hint-injected and folded into the context),
answers end the episode, malformed turns end it as invalid. The final turn
drops the query stop marker so the policy cannot search further.

Latency and wall time are measured here, never trusted from backends; those
fields (latency_s, wall_time_s) are the only non-reproducible parts of a
trajectory record.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from types import NoneType
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence, runtime_checkable

from .compose import CompositeTask, composite_from_dict
from .context import (
    ContextState,
    advance,
    initial_state,
    inject_hint,
    render_context,
)
from .core import DataError, RolloutConfig, TagPreset, WordTokenizer, config_from_mapping
from .tagparse import Answer, Invalid, ParsedTurn, Query, parse_turn

if TYPE_CHECKING:
    import requests

    from .envs import Environment, Observation

__all__ = [
    "Generation",
    "PolicyBackend",
    "ScriptedPolicy",
    "HttpPolicy",
    "TurnRecord",
    "TrajectoryRecord",
    "RolloutError",
    "run_rollout",
    "run_batch",
    "replay_contexts",
]


_NUMBER = (int, float)
# The format of trajectory files and manifests. Version 2 stores each turn's
# snapshot against the previous one (TurnRecord.to_dict); version 1, which
# wrote no version key, stored it whole.
ARCHIVE_VERSION = 2
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


@dataclass(frozen=True)
class Generation:
    """One policy emission. finish is 'stop' (a stop marker was hit, named in
    stop_marker), 'eos', or 'length' (token budget)."""

    text: str
    finish: str
    stop_marker: str | None = None
    latency_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Generation":
        _typed(data, {"text": str, "finish": str, "stop_marker": (str, NoneType), "latency_s": _NUMBER})
        return cls(data["text"], data["finish"], data.get("stop_marker"), data.get("latency_s", 0.0))


@runtime_checkable
class PolicyBackend(Protocol):
    """Produces one turn of text given the rendered context.

    concurrent declares whether generate() may be called from several threads
    at once; run_batch serializes backends that say no. bind() lets stateful
    backends hand out a per-episode instance; stateless ones return self.
    """

    concurrent: bool

    def generate(
        self, context: str, stop_markers: Sequence[str], max_tokens: int, seed: int
    ) -> Generation: ...

    def bind(self, task) -> "PolicyBackend": ...


def _truncate_at_marker(text: str, stop_markers: Sequence[str]) -> tuple[str, str | None]:
    """Cut text at the first stop marker, keeping the marker itself."""
    best: tuple[int, str] | None = None
    for marker in stop_markers:
        idx = text.find(marker)
        if idx >= 0 and (best is None or idx < best[0]):
            best = (idx, marker)
    if best is None:
        return text, None
    idx, marker = best
    return text[: idx + len(marker)], marker


class ScriptedPolicy:
    """Replays canned turn texts; the workhorse for tests and demos.

    Emissions honor the requested stop markers: text is truncated at the first
    marker (marker included), mirroring how a sampling server would halt.
    Past the end of the script it emits empty text. by_task selects a script
    per task id at bind time.
    """

    concurrent = False

    def __init__(
        self,
        script: Sequence[str],
        *,
        by_task: Mapping[str, Sequence[str]] | None = None,
        latency: float = 0.0,
    ) -> None:
        self._script = list(script)
        self._by_task = {k: list(v) for k, v in (by_task or {}).items()}
        self._latency = latency
        self._cursor = 0
        self._counter = WordTokenizer()

    def generate(
        self, context: str, stop_markers: Sequence[str], max_tokens: int, seed: int
    ) -> Generation:
        if self._latency:
            time.sleep(self._latency)
        text = self._script[self._cursor] if self._cursor < len(self._script) else ""
        self._cursor += 1
        text, marker = _truncate_at_marker(text, stop_markers)
        if marker is not None:
            return Generation(text, "stop", marker)
        ids = self._counter.encode(text)
        if len(ids) > max_tokens:
            return Generation(self._counter.decode(ids[:max_tokens]), "length")
        return Generation(text, "eos")

    def bind(self, task) -> "ScriptedPolicy":
        script = self._by_task.get(task.id, self._script)
        return ScriptedPolicy(script, latency=self._latency)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedPolicy":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(data, list):
            return cls(data)
        try:
            return cls(
                data.get("default", []),
                by_task=data.get("by_task"),
                latency=float(data.get("latency", 0.0)),
            )
        except (TypeError, ValueError):
            raise DataError(
                f"{path}: expected a list or {{'default': [...], 'by_task': {{...}}}}"
            ) from None


class HttpPolicy:
    """Policy served over an OpenAI-completions-style HTTP endpoint.

    Sends prompt, stop markers, max_tokens, temperature, and seed; asks the
    server to keep the stop string in the output. If a server strips the stop
    marker anyway, the marker whose open tag is left unclosed is re-appended
    so downstream parsing sees what the policy meant to emit.
    """

    concurrent = True

    def __init__(
        self,
        url: str,
        *,
        model: str | None = None,
        api_key: str | None = None,
        temperature: float = 0.01,
        api_style: str = "completions",
        timeout: float = 120.0,
        session: requests.Session | None = None,
    ) -> None:
        if api_style not in ("completions", "chat"):
            raise ValueError(f"unknown api_style {api_style!r}")
        self.url = url
        self.model = model
        self.api_key = api_key
        self.temperature = temperature
        self.api_style = api_style
        self.timeout = timeout
        if session is None:
            import requests  # only HTTP backends pay for this import

            session = requests.Session()
        self._session = session

    @classmethod
    def from_config(cls, config: RolloutConfig, url: str | None = None) -> "HttpPolicy":
        target = url or config.policy_url
        if not target:
            raise ValueError("no policy endpoint configured")
        return cls(
            target,
            model=config.policy_model,
            api_key=os.environ.get(config.api_key_env),
            temperature=config.temperature,
            api_style=config.policy_api_style,
        )

    def generate(
        self, context: str, stop_markers: Sequence[str], max_tokens: int, seed: int
    ) -> Generation:
        payload: dict = {
            "stop": list(stop_markers),
            "max_tokens": max_tokens,
            "temperature": self.temperature,
            "seed": seed,
            "include_stop_str_in_output": True,
        }
        if self.model:
            payload["model"] = self.model
        if self.api_style == "chat":
            payload["messages"] = [{"role": "user", "content": context}]
        else:
            payload["prompt"] = context
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        resp = self._session.post(self.url, json=payload, headers=headers, timeout=self.timeout)
        resp.raise_for_status()
        data = resp.json()
        if "choices" in data:
            choice = data["choices"][0]
            text = choice.get("text")
            if text is None:
                text = choice.get("message", {}).get("content", "")
            finish_reason = choice.get("finish_reason", "stop")
        else:
            text = data.get("text", "")
            finish_reason = data.get("finish_reason", "stop")
        truncated, marker = _truncate_at_marker(text, stop_markers)
        if marker is not None:
            return Generation(truncated, "stop", marker)
        if finish_reason == "length":
            return Generation(text, "length")
        if finish_reason == "stop":
            repaired = self._repair_stripped_marker(text, stop_markers)
            if repaired is not None:
                return Generation(*repaired)
        return Generation(text, "eos")

    @staticmethod
    def _repair_stripped_marker(
        text: str, stop_markers: Sequence[str]
    ) -> tuple[str, str, str] | None:
        for marker in stop_markers:
            open_tag = marker.replace("</", "<", 1)
            if open_tag != marker and open_tag in text:
                return text + marker, "stop", marker
        return None

    def bind(self, task) -> "HttpPolicy":
        return self


@dataclass(frozen=True)
class TurnRecord:
    """Everything observed during one turn. context_snapshot is the exact
    string the policy saw; info is the hint-injected environment feedback
    (present exactly for query turns).

    Only the snapshot, generation, info and env_reward are stored: index (the
    turn's position) and parsed (generation.text read with the trajectory's
    tag preset) are derived on reading, and valid is parsed.valid. The
    snapshot is stored against the previous turn's: context_kept counts the
    leading characters the two share (absent when none, as on turn 0), and
    context_snapshot holds the text after them.
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

    def to_dict(self, previous: str = "") -> dict:
        """The stored form, given the snapshot of the turn before ("" for the first)."""
        kept = shared_prefix(previous, self.context_snapshot)
        data = {"context_snapshot": self.context_snapshot[kept:], "generation": self.generation.to_dict(),
                "info": self.info, "env_reward": self.env_reward}
        if kept:
            data["context_kept"] = kept
        return data

    @classmethod
    def from_dict(cls, data: dict, index: int, preset: TagPreset, previous: str = "") -> "TurnRecord":
        """Read turn index of a trajectory tagged with preset, whose turn before
        saw previous; any other key (older archives store index, parsed, valid
        and latency_s) is ignored."""
        _typed(data, {"context_snapshot": str, "generation": dict, "info": (str, NoneType),
                      "env_reward": (*_NUMBER, NoneType)})
        kept = data.get("context_kept", 0)
        # type(), not isinstance(): a JSON true reads as True, an int subclass.
        if type(kept) is not int or not 0 <= kept <= len(previous):
            raise DataError(f"turn {index}: context_kept {kept!r} is not a count of the "
                            f"{len(previous)} characters the turn before saw")
        generation = Generation.from_dict(data["generation"])
        parsed = parse_turn(generation.text, preset)
        return cls(index, previous[:kept] + data["context_snapshot"], generation, parsed, data["info"],
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


def dump_turns(turns: Sequence[TurnRecord]) -> list[dict]:
    """The stored form of an episode's turns, each snapshot against the one before."""
    previous = ""
    stored = []
    for turn in turns:
        stored.append(turn.to_dict(previous))
        previous = turn.context_snapshot
    return stored


def load_turns(data: list, preset: TagPreset) -> tuple[TurnRecord, ...]:
    """Read turns stored by dump_turns (or whole, as older archives store them)."""
    previous = ""
    turns = []
    for index, item in enumerate(data):
        turn = TurnRecord.from_dict(item, index, preset, previous)
        turns.append(turn)
        previous = turn.context_snapshot
    return tuple(turns)


def check_version(data: dict) -> None:
    """Refuse with DataError a stored object of an archive version this code
    does not know; one without a version key is version 1."""
    version = data.get("version", 1)
    if type(version) is not int or not 1 <= version <= ARCHIVE_VERSION:
        raise DataError(f"unknown archive version {version!r}")


@dataclass(frozen=True)
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
            "turns": dump_turns(self.turns),
            "final_answer": self.final_answer,
            "terminated": self.terminated,
            "config": self.config.to_dict(),
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrajectoryRecord":
        """Read a stored trajectory. DataError refuses one that run_rollout could
        not have written: an unknown version, a value of the wrong JSON type, a
        context_kept longer than the snapshot before, no turns, or turns whose
        parses disagree with how the episode went. Every turn but the last
        is a query, info comes exactly with a query, and the last turn's action
        decides terminated and, when answered, the final answer."""
        _typed(data, {"task": dict, "turns": list, "final_answer": (str, NoneType), "terminated": str,
                      "config": dict, "wall_time_s": _NUMBER})
        check_version(data)
        config = config_from_mapping(data["config"])
        turns = load_turns(data["turns"], config.preset)
        if not turns:
            raise DataError("a trajectory needs at least one turn")
        for turn in turns:
            query = isinstance(turn.parsed.action, Query)
            if query != (turn.info is not None) or (not query and turn is not turns[-1]):
                raise DataError(f"turn {turn.index} reads as {turn.parsed.action}, info {turn.info!r:.40}")
        action = turns[-1].parsed.action
        terminated, final_answer = data["terminated"], data["final_answer"]
        if terminated not in _ENDINGS[type(action)]:
            raise DataError(f"terminated {terminated!r} cannot follow a last turn read as {action}")
        if final_answer != (action.text if terminated == "answered" else None):
            raise DataError(f"final_answer {final_answer!r} does not follow a last turn read as {action}")
        task = composite_from_dict(data["task"])
        return cls(task, turns, final_answer, terminated, config, data.get("wall_time_s", 0.0))


class RolloutError(RuntimeError):
    """A backend failed mid-episode; partial holds the turns finished so far."""

    def __init__(self, task_id: str, cause: BaseException, partial: tuple[TurnRecord, ...]) -> None:
        super().__init__(f"rollout for task {task_id!r} failed: {cause}")
        self.task_id = task_id
        self.cause = cause
        self.partial = partial


def _bind(backend, task):
    bound = backend.bind(task) if hasattr(backend, "bind") else backend
    return bound if bound is not None else backend


_QA_KINDS = {"retrieval_qa", "web_search_qa"}


def _check_env_compat(task: CompositeTask, env) -> None:
    env_kind = getattr(env, "kind", None)
    if env_kind is None:
        return
    same = env_kind == task.env_kind
    both_qa = env_kind in _QA_KINDS and task.env_kind in _QA_KINDS
    if not (same or both_qa):
        raise ValueError(
            f"task {task.id!r} ({task.env_kind}) cannot run against a {env_kind} environment"
        )


def run_rollout(
    task: CompositeTask,
    policy: PolicyBackend,
    env: Environment,
    config: RolloutConfig,
) -> TrajectoryRecord:
    """Run one episode to termination.

    Termination: an answer turn ('answered'), a malformed turn ('invalid',
    no retry), the turn budget ('turn_limit'), or the environment reporting a
    terminal transition (recorded as 'answered' with the closing action as the
    final answer, as reward-bearing environments end episodes themselves).
    """
    _check_env_compat(task, env)
    policy = _bind(policy, task)
    env = _bind(env, task)
    preset = config.preset
    state = initial_state(task.rendered_prompt, task.prompt_prefix, preset, config.mode)
    turns: list[TurnRecord] = []
    final_answer: str | None = None
    terminated = "turn_limit"
    started = time.perf_counter()
    for t in range(config.max_turns):
        snapshot = render_context(state)
        stops = config.stop_markers_for(t)
        turn_started = time.perf_counter()
        try:
            generation = policy.generate(
                snapshot, stops, config.max_tokens_per_generation, config.seed
            )
        except Exception as exc:
            raise RolloutError(task.id, exc, tuple(turns)) from exc
        latency = time.perf_counter() - turn_started
        generation = Generation(
            generation.text, generation.finish, generation.stop_marker, latency
        )
        parsed = parse_turn(generation.text, preset)
        info = reward = None
        done = isinstance(parsed.action, Answer)
        if isinstance(parsed.action, Query):
            try:
                obs: Observation = env.respond(parsed.action.text)
            except Exception as exc:
                raise RolloutError(task.id, exc, tuple(turns)) from exc
            turns_left = config.max_turns - (t + 1)
            info = inject_hint(obs.text, turns_left, enabled=config.hint_enabled)
            reward, done = obs.reward, obs.done
        turns.append(TurnRecord(t, snapshot, generation, parsed, info, reward))
        if not parsed.valid:
            terminated = "invalid"
            break
        state = advance(state, parsed, info)
        if done:
            terminated = "answered"
            final_answer = parsed.action.text
            break
    wall = time.perf_counter() - started
    return TrajectoryRecord(task, tuple(turns), final_answer, terminated, config, wall)


class _Serialized:
    """Wraps a non-concurrent shared backend so batch workers take turns."""

    def __init__(self, inner, lock: threading.Lock) -> None:
        self._inner = inner
        self._lock = lock

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def generate(self, *args, **kwargs):
        with self._lock:
            return self._inner.generate(*args, **kwargs)

    def respond(self, *args, **kwargs):
        with self._lock:
            return self._inner.respond(*args, **kwargs)

    def bind(self, task):
        bound = _bind(self._inner, task)
        if bound is self._inner:
            return self
        return bound


def _serialize_if_needed(backend, lock: threading.Lock):
    if getattr(backend, "concurrent", False):
        return backend
    return _Serialized(backend, lock)


def run_batch(
    tasks: Sequence[CompositeTask],
    policy: PolicyBackend,
    env: Environment,
    config: RolloutConfig,
    concurrency: int = 1,
) -> list[TrajectoryRecord | RolloutError]:
    """Roll out many tasks, up to concurrency at a time.

    Results keep input order. A failed task contributes its RolloutError
    instead of a record; the batch always continues. Backends that declare
    concurrent=False have their calls serialized, so results match a
    sequential run for deterministic backends at any concurrency.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    policy = _serialize_if_needed(policy, threading.Lock())
    env = _serialize_if_needed(env, threading.Lock())

    def one(task: CompositeTask) -> TrajectoryRecord | RolloutError:
        try:
            return run_rollout(task, policy, env, config)
        except RolloutError as exc:
            return exc

    if concurrency == 1:
        return [one(task) for task in tasks]
    from concurrent import futures

    with futures.ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(one, tasks))


def replay_contexts(trajectory: TrajectoryRecord) -> list[str]:
    """Re-render every turn's context from the records alone.

    Used to confirm snapshot fidelity: the result must equal the recorded
    context_snapshot fields byte for byte.
    """
    config = trajectory.config
    task = trajectory.task
    state = initial_state(task.rendered_prompt, task.prompt_prefix, config.preset, config.mode)
    contexts = []
    for turn in trajectory.turns:
        contexts.append(render_context(state))
        if turn.parsed.valid:
            state = advance(state, turn.parsed, turn.info)
    return contexts
