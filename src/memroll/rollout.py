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

import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence, runtime_checkable

# The records a rollout writes live in archive.py, which readers import alone;
# every name is also reachable here.
from .archive import (
    ARCHIVE_VERSION,
    Generation,
    TrajectoryRecord,
    TurnRecord,
    check_version,
    dump_turns,
    load_turns,
    shared_prefix,
)
from .compose import CompositeTask
from .context import advance, initial_state, inject_hint, render_context
from .core import DataError, RolloutConfig, segment_text
from .tagparse import Answer, Query, parse_turn

if TYPE_CHECKING:
    import requests

    from .envs import Environment, Observation

__all__ = [
    "PolicyBackend",
    "ScriptedPolicy",
    "HttpPolicy",
    "RolloutError",
    "run_rollout",
    "run_batch",
    "replay_contexts",
]


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
    Text without a marker is cut to max_tokens segments (core.segment_text,
    the built-in tokenizer's split). Past the end of the script it emits
    empty text. by_task selects a script per task id at bind time.
    """

    concurrent = False

    def __init__(
        self,
        script: Sequence[str],
        *,
        by_task: Mapping[str, Sequence[str]] | None = None,
    ) -> None:
        self._script = list(script)
        self._by_task = {k: list(v) for k, v in (by_task or {}).items()}
        self._cursor = 0

    def generate(
        self, context: str, stop_markers: Sequence[str], max_tokens: int, seed: int
    ) -> Generation:
        text = self._script[self._cursor] if self._cursor < len(self._script) else ""
        self._cursor += 1
        text, marker = _truncate_at_marker(text, stop_markers)
        if marker is not None:
            return Generation(text, "stop", marker)
        segments = segment_text(text)
        if len(segments) > max_tokens:
            return Generation("".join(segments[:max_tokens]), "length")
        return Generation(text, "eos")

    def bind(self, task) -> "ScriptedPolicy":
        script = self._by_task.get(task.id, self._script)
        return ScriptedPolicy(script)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedPolicy":
        """Load a script file in envs.read_script's format; other keys are ignored."""
        from .envs import read_script

        default, by_task = read_script(path)
        return cls(default, by_task=by_task)


class HttpPolicy:
    """Policy served over an OpenAI-style completions or chat HTTP endpoint.

    Sends prompt, stop markers, max_tokens, temperature, and seed; asks the
    server to keep the stop string in the output. The text is choices[0].text
    (completions) or choices[0].message.content (chat); any other response is
    a DataError. If a server strips the stop marker anyway, the marker whose
    open tag is left unclosed is re-appended so downstream parsing sees what
    the policy meant to emit.
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
        try:
            choice = resp.json()["choices"][0]
            text = choice["message"]["content"] if self.api_style == "chat" else choice["text"]
        except (KeyError, IndexError, TypeError):
            text = None
        if not isinstance(text, str):
            raise DataError(f"{self.api_style} response has no text in its first choice")
        finish_reason = choice.get("finish_reason", "stop")
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


class RolloutError(RuntimeError):
    """A backend failed to bind to its task or mid-episode; partial holds the
    turns finished so far, and the message names the cause's class."""

    def __init__(self, task_id: str, cause: BaseException, partial: tuple[TurnRecord, ...]) -> None:
        super().__init__(f"rollout for task {task_id!r} failed: {type(cause).__name__}: {cause}")
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
    try:
        policy = _bind(policy, task)
        env = _bind(env, task)
    except Exception as exc:
        raise RolloutError(task.id, exc, ()) from exc
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
