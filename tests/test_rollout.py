from __future__ import annotations

import json
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memroll import (
    Answer,
    DataError,
    Generation,
    HttpPolicy,
    Invalid,
    Observation,
    PolicyBackend,
    Query,
    RetrievalEnv,
    RolloutConfig,
    RolloutError,
    ScriptedEnv,
    ScriptedPolicy,
    Task,
    TrajectoryRecord,
    TurnRecord,
    composite_from_tasks,
    replay_contexts,
    run_batch,
    run_rollout,
)
from memroll.envs import Corpus, Doc
from memroll.rollout import load_turns, shared_prefix

from helpers import make_composite, random_episode, scripted_episode, scrub_times
import random


def simple_task(env_kind: str = "retrieval_qa"):
    return composite_from_tasks([Task("q1", "Capital of France?", ["Paris"], env_kind=env_kind)])


QUERY_TURN = "<IS>need the capital</IS><query>capital of France</query>"
ANSWER_TURN = "<IS>found it</IS><answer>Paris</answer>"


class TestScriptedPolicy:
    def test_truncates_at_first_stop_marker(self):
        policy = ScriptedPolicy([QUERY_TURN + "<answer>leak</answer>"])
        gen = policy.generate("ctx", ["</query>", "</answer>"], 1024, 0)
        assert gen.text == QUERY_TURN
        assert gen.finish == "stop"
        assert gen.stop_marker == "</query>"

    def test_earliest_marker_wins(self):
        policy = ScriptedPolicy(["<answer>a</answer><query>q</query>"])
        gen = policy.generate("ctx", ["</query>", "</answer>"], 1024, 0)
        assert gen.stop_marker == "</answer>"

    def test_no_marker_is_eos(self):
        policy = ScriptedPolicy(["plain text"])
        gen = policy.generate("ctx", ["</query>"], 1024, 0)
        assert gen == Generation("plain text", "eos", None, 0.0)

    def test_token_budget_truncation(self):
        policy = ScriptedPolicy(["one two three four five"])
        gen = policy.generate("ctx", [], 3, 0)
        assert gen.finish == "length"
        assert gen.text == "one two"  # 3 tokens: "one", " ", "two"

    def test_past_end_emits_empty(self):
        policy = ScriptedPolicy(["only"])
        policy.generate("ctx", [], 10, 0)
        assert policy.generate("ctx", [], 10, 0).text == ""

    def test_bind_selects_by_task_and_resets(self):
        policy = ScriptedPolicy(["default"], by_task={"q1": ["special"]})
        policy.generate("ctx", [], 10, 0)
        task = simple_task()
        assert policy.bind(task).generate("ctx", [], 10, 0).text == "special"

    def test_from_file_list(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([QUERY_TURN]))
        assert ScriptedPolicy.from_file(path).generate("c", [], 1024, 0).text == QUERY_TURN

    def test_from_file_mapping(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"default": ["a"], "by_task": {"q1": ["b"]}, "latency": 0}))
        policy = ScriptedPolicy.from_file(path)
        assert policy.bind(simple_task()).generate("c", [], 10, 0).text == "b"

    def test_protocol(self):
        assert isinstance(ScriptedPolicy(["x"]), PolicyBackend)
        assert ScriptedPolicy(["x"]).concurrent is False


class _StubResponse:
    def __init__(self, payload):
        self._payload = payload

    def raise_for_status(self):
        pass

    def json(self):
        return self._payload


class _StubSession:
    def __init__(self, payload):
        self.payload = payload
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        return _StubResponse(self.payload)


class _SequenceSession(_StubSession):
    """Answers each post with the next of its payloads."""

    def __init__(self, *payloads):
        super().__init__(None)
        self.payloads = payloads

    def post(self, url, json=None, headers=None, timeout=None):
        self.payload = self.payloads[len(self.calls)]
        return super().post(url, json, headers, timeout)


def completions_payload(text, finish_reason="stop"):
    return {"choices": [{"text": text, "finish_reason": finish_reason}]}


class TestHttpPolicy:
    def test_payload_shape_completions(self):
        session = _StubSession(completions_payload(QUERY_TURN))
        policy = HttpPolicy("http://srv/v1/completions", model="m1", api_key="tok", session=session)
        policy.generate("the context", ["</query>", "</answer>"], 256, 7)
        sent = session.calls[0]
        assert sent["json"]["prompt"] == "the context"
        assert sent["json"]["stop"] == ["</query>", "</answer>"]
        assert sent["json"]["max_tokens"] == 256
        assert sent["json"]["seed"] == 7
        assert sent["json"]["include_stop_str_in_output"] is True
        assert sent["json"]["model"] == "m1"
        assert sent["headers"] == {"Authorization": "Bearer tok"}

    def test_chat_style_messages(self):
        session = _StubSession(
            {"choices": [{"message": {"content": ANSWER_TURN}, "finish_reason": "stop"}]}
        )
        policy = HttpPolicy("http://srv/v1/chat", api_style="chat", session=session)
        gen = policy.generate("ctx", ["</answer>"], 256, 0)
        assert session.calls[0]["json"]["messages"] == [{"role": "user", "content": "ctx"}]
        assert gen.text == ANSWER_TURN
        assert gen.stop_marker == "</answer>"

    def test_client_side_truncation(self):
        session = _StubSession(completions_payload(QUERY_TURN + " trailing junk"))
        policy = HttpPolicy("http://srv", session=session)
        gen = policy.generate("ctx", ["</query>"], 256, 0)
        assert gen.text == QUERY_TURN
        assert gen.finish == "stop"

    def test_repairs_server_stripped_marker(self):
        # Server honored "stop" but removed the marker from the text.
        session = _StubSession(completions_payload("<IS>x</IS><query>paris"))
        policy = HttpPolicy("http://srv", session=session)
        gen = policy.generate("ctx", ["</query>", "</answer>"], 256, 0)
        assert gen.text == "<IS>x</IS><query>paris</query>"
        assert gen.finish == "stop"
        assert gen.stop_marker == "</query>"

    def test_no_repair_without_open_tag(self):
        session = _StubSession(completions_payload("no tags at all"))
        policy = HttpPolicy("http://srv", session=session)
        gen = policy.generate("ctx", ["</query>"], 256, 0)
        assert gen == Generation("no tags at all", "eos", None, 0.0)

    def test_length_finish_passthrough(self):
        session = _StubSession(completions_payload("truncated tex", "length"))
        policy = HttpPolicy("http://srv", session=session)
        assert policy.generate("ctx", ["</query>"], 256, 0).finish == "length"

    @pytest.mark.parametrize(
        "api_style, payload",
        [
            ("completions", {"text": ANSWER_TURN}),
            ("completions", {"choices": [{"message": {"content": ANSWER_TURN}}]}),
            ("chat", completions_payload(ANSWER_TURN)),
        ],
    )
    def test_one_response_shape_per_api_style(self, api_style, payload):
        policy = HttpPolicy("http://srv", api_style=api_style, session=_StubSession(payload))
        with pytest.raises(DataError, match=api_style):
            policy.generate("ctx", ["</answer>"], 256, 0)

    def test_wrong_shape_fails_the_episode_with_its_partial_turns(self):
        session = _SequenceSession(completions_payload(QUERY_TURN), {"text": ANSWER_TURN})
        env = ScriptedEnv(["Paris is the capital."])
        [result] = run_batch([simple_task()], HttpPolicy("http://srv", session=session), env, RolloutConfig())
        assert isinstance(result, RolloutError) and isinstance(result.cause, DataError)
        assert [turn.generation.text for turn in result.partial] == [QUERY_TURN]
        assert result.partial[0].info.endswith("Paris is the capital.")

    def test_from_config_requires_url(self):
        with pytest.raises(ValueError):
            HttpPolicy.from_config(RolloutConfig())

    def test_from_config_uses_config_url(self):
        policy = HttpPolicy.from_config(RolloutConfig(policy_url="http://cfg", temperature=0.5))
        assert policy.url == "http://cfg"
        assert policy.temperature == 0.5

    def test_concurrent_declared(self):
        assert HttpPolicy("http://x").concurrent is True


class TestGoldenTraces:
    def test_query_then_answer(self):
        config = RolloutConfig(max_turns=6)
        policy = ScriptedPolicy([QUERY_TURN, ANSWER_TURN])
        env = ScriptedEnv(["Doc 1 (Title: Paris) Paris is the capital of France."])
        record = run_rollout(simple_task(), policy, env, config)

        assert len(record.turns) == 2
        assert record.terminated == "answered"
        assert record.final_answer == "Paris"
        first, second = record.turns
        assert first.parsed.action == Query("capital of France")
        assert first.info == "[HINT: YOU HAVE 5 TURNS LEFT] Doc 1 (Title: Paris) Paris is the capital of France."
        assert first.generation.stop_marker == "</query>"
        assert second.parsed.action == Answer("Paris")
        assert second.info is None
        # Turn 2 sees head + consolidated turn-1 tuple, nothing else.
        assert second.context_snapshot == (
            record.task.rendered_prompt
            + "<IS>need the capital</IS><query>capital of France</query>"
            + f"<info>{first.info}</info>"
        )
        assert record.wall_time_s > 0

    def test_malformed_terminates_invalid(self):
        record = run_rollout(
            simple_task(), ScriptedPolicy(["rambling, no tags"]), ScriptedEnv(["unused"]),
            RolloutConfig(),
        )
        assert len(record.turns) == 1
        assert record.terminated == "invalid"
        assert record.final_answer is None
        assert record.turns[0].valid is False
        assert record.turns[0].parsed.action == Invalid("no_action")

    def test_always_querying_hits_turn_limit(self):
        config = RolloutConfig(max_turns=6)
        policy = ScriptedPolicy([f"<IS>s{i}</IS><query>find {i}</query>" for i in range(6)])
        record = run_rollout(simple_task(), policy, ScriptedEnv(["doc"]), config)

        assert len(record.turns) == 6
        assert record.terminated == "turn_limit"
        assert record.final_answer is None
        # Non-final turns halt on the query marker.
        for turn in record.turns[:-1]:
            assert turn.generation.finish == "stop"
            assert turn.generation.stop_marker == "</query>"
        # The final turn's stop set lacks </query>, so the full text came out.
        last = record.turns[-1]
        assert last.generation.finish == "eos"
        assert last.generation.text == "<IS>s5</IS><query>find 5</query>"
        assert last.info is not None  # the query still went to the environment


class _RecordingPolicy:
    """Emits a fixed script while recording every generate() call."""

    concurrent = True

    def __init__(self, script):
        self._script = list(script)
        self.calls = []

    def generate(self, context, stop_markers, max_tokens, seed):
        self.calls.append(
            {"context": context, "stop": tuple(stop_markers), "max_tokens": max_tokens, "seed": seed}
        )
        return Generation(self._script[len(self.calls) - 1], "eos")

    def bind(self, task):
        return self


class TestRunRollout:
    def test_stop_schedule_and_config_plumbing(self):
        config = RolloutConfig(max_turns=3, seed=11, max_tokens_per_generation=77)
        policy = _RecordingPolicy([f"<query>q{i}</query>" for i in range(3)])
        run_rollout(simple_task(), policy, ScriptedEnv(["doc"]), config)
        assert [c["stop"] for c in policy.calls] == [
            ("</query>", "</answer>"),
            ("</query>", "</answer>"),
            ("</answer>",),
        ]
        assert all(c["max_tokens"] == 77 and c["seed"] == 11 for c in policy.calls)

    def test_hint_schedule_counts_down(self):
        config = RolloutConfig(max_turns=4)
        policy = ScriptedPolicy([f"<query>q{i}</query>" for i in range(4)])
        record = run_rollout(simple_task(), policy, ScriptedEnv(["d"]), config)
        hints = [t.info.split("]")[0] + "]" for t in record.turns]
        assert hints == [
            "[HINT: YOU HAVE 3 TURNS LEFT]",
            "[HINT: YOU HAVE 2 TURNS LEFT]",
            "[HINT: YOU HAVE 1 TURNS LEFT]",
            "[HINT: YOU HAVE 0 TURNS LEFT]",
        ]

    def test_hint_disabled(self):
        config = RolloutConfig(hint_enabled=False)
        policy = ScriptedPolicy([QUERY_TURN, ANSWER_TURN])
        record = run_rollout(simple_task(), policy, ScriptedEnv(["bare doc"]), config)
        assert record.turns[0].info == "bare doc"

    def test_env_done_terminates_as_answered(self):
        env = ScriptedEnv([{"text": "You bought it.", "reward": 100.0, "done": True}])
        policy = ScriptedPolicy(["<query>click[buy now]</query>"])
        record = run_rollout(simple_task(), policy, env, RolloutConfig())
        assert record.terminated == "answered"
        assert record.final_answer == "click[buy now]"
        assert record.turns[0].env_reward == 100.0

    def test_retrieval_env_end_to_end(self):
        corpus = Corpus([Doc("d1", "Paris", "Paris is the capital of France.")])
        policy = ScriptedPolicy([QUERY_TURN, ANSWER_TURN])
        record = run_rollout(simple_task(), policy, RetrievalEnv(corpus, k=1), RolloutConfig())
        assert record.terminated == "answered"
        assert "Doc 1 (Title: Paris)" in record.turns[0].info

    def test_env_kind_mismatch_rejected(self):
        corpus = Corpus([Doc("d", "t", "b")])
        with pytest.raises(ValueError):
            run_rollout(simple_task("shop"), ScriptedPolicy(["x"]), RetrievalEnv(corpus), RolloutConfig())

    def test_qa_kinds_are_cross_compatible(self):
        task = simple_task("web_search_qa")
        corpus = Corpus([Doc("d", "t", "b")])
        record = run_rollout(task, ScriptedPolicy([ANSWER_TURN]), RetrievalEnv(corpus), RolloutConfig())
        assert record.terminated == "answered"

    def test_policy_failure_carries_partial(self):
        class Exploding:
            concurrent = True

            def __init__(self):
                self.n = 0

            def generate(self, context, stop_markers, max_tokens, seed):
                self.n += 1
                if self.n > 1:
                    raise OSError("connection lost")
                return Generation(QUERY_TURN, "stop", "</query>")

        with pytest.raises(RolloutError) as err:
            run_rollout(simple_task(), Exploding(), ScriptedEnv(["d"]), RolloutConfig())
        assert err.value.task_id == "q1"
        assert len(err.value.partial) == 1
        assert isinstance(err.value.cause, OSError)

    def test_env_failure_carries_partial(self):
        class BadEnv:
            kind = None
            concurrent = True

            def respond(self, query):
                raise TimeoutError("env down")

        with pytest.raises(RolloutError) as err:
            run_rollout(simple_task(), ScriptedPolicy([QUERY_TURN]), BadEnv(), RolloutConfig())
        assert err.value.partial == ()

    def test_mode_does_not_change_actions(self):
        script = [f"<IS>s{i}</IS><query>find {i}</query>" for i in range(3)] + [ANSWER_TURN]
        records = {}
        for mode in ("consolidate", "full_append"):
            records[mode] = run_rollout(
                simple_task(), ScriptedPolicy(script), ScriptedEnv(["d"]),
                RolloutConfig(max_turns=6, mode=mode),
            )
        a, b = records["consolidate"], records["full_append"]
        assert [t.parsed.action for t in a.turns] == [t.parsed.action for t in b.turns]
        assert a.terminated == b.terminated == "answered"
        # full_append contexts keep everything, so its later snapshots differ.
        assert a.turns[2].context_snapshot != b.turns[2].context_snapshot


class TestReplayContexts:
    @pytest.mark.parametrize("mode", ["consolidate", "full_append"])
    @pytest.mark.parametrize("ending", ["answer", "turn_limit", "invalid"])
    def test_replay_matches_snapshots(self, mode, ending):
        rng = random.Random(hash((mode, ending)) & 0xFFFF)
        record = scripted_episode(rng, mode=mode, turns=4, ending=ending)
        assert replay_contexts(record) == [t.context_snapshot for t in record.turns]


class TestRecordRoundTrips:
    def test_trajectory_round_trip(self):
        rng = random.Random(5)
        record = scripted_episode(rng, mode="consolidate", turns=3, objective_count=2)
        assert TrajectoryRecord.from_dict(record.to_dict()) == record

    def test_turn_round_trip(self):
        record = run_rollout(
            simple_task(), ScriptedPolicy([QUERY_TURN, ANSWER_TURN]), ScriptedEnv(["d"]),
            RolloutConfig(),
        )
        for turn in record.turns:
            assert TurnRecord.from_dict(turn.to_dict(), turn.index, record.config.preset) == turn

    def test_turn_stores_only_what_was_observed(self):
        record = scripted_episode(random.Random(7), mode="full_append", turns=3, ending="invalid")
        for index, turn in enumerate(record.to_dict()["turns"]):
            kept = ["context_kept"] if index else []
            assert sorted(turn) == [*kept, "context_snapshot", "env_reward", "generation", "info"]


# Short strings, mostly over a few characters so that prefixes are often
# shared: ASCII, Latin-1, CJK, one outside the BMP and lone surrogates.
_SHORT = st.text(
    st.sampled_from("ab\u00e9\u4e2d\U0001f600\ud800\udc00") | st.characters(exclude_categories=()),
    max_size=6,
)


class TestSnapshotDeltas:
    """Each written turn stores only what its snapshot adds to the one before."""

    def test_writer_stores_only_new_characters(self):
        rng = random.Random(12)
        records = [random_episode(rng) for _ in range(30)]
        assert {r.config.mode for r in records} == {"consolidate", "full_append"}
        stored = new = 0
        for record in records:
            data = json.loads(json.dumps(record.to_dict()))
            assert data["version"] == 2
            assert TrajectoryRecord.from_dict(data) == record
            stored += sum(len(turn["context_snapshot"]) for turn in data["turns"])
            previous = ""
            for turn in record.turns:
                new += len(turn.context_snapshot) - len(os.path.commonprefix([previous, turn.context_snapshot]))
                previous = turn.context_snapshot
        assert stored == new

    @settings(max_examples=300, deadline=None)
    @given(_SHORT, _SHORT, _SHORT)
    def test_shared_prefix_matches_commonprefix(self, head, a, b):
        for x, y in ((head + a, head + b), (head + a, head), (head, head + b), (a, b)):
            assert shared_prefix(x, y) == len(os.path.commonprefix([x, y]))

    def test_a_kept_count_rebuilds_from_the_turn_before(self):
        record = scripted_episode(random.Random(3), mode="full_append", turns=3)
        turns = json.loads(json.dumps(record.to_dict()))["turns"]
        assert turns[1]["context_kept"] == len(record.turns[0].context_snapshot)
        turns[1]["context_kept"] -= 1
        turns[1]["context_snapshot"] = record.turns[0].context_snapshot[-1] + turns[1]["context_snapshot"]
        assert load_turns(turns, record.config.preset) == record.turns


class TestRunBatch:
    def make_tasks(self, n):
        return [
            composite_from_tasks([Task(f"t{i}", f"Question number {i}?", [f"a{i}"])])
            for i in range(n)
        ]

    def scripted(self, tasks):
        return ScriptedPolicy(
            ["<answer>default</answer>"],
            by_task={t.id: [QUERY_TURN, f"<answer>ans {t.id}</answer>"] for t in tasks},
        )

    def test_empty(self):
        assert run_batch([], ScriptedPolicy(["x"]), ScriptedEnv(["d"]), RolloutConfig()) == []

    def test_concurrency_must_be_positive(self):
        with pytest.raises(ValueError):
            run_batch([], ScriptedPolicy(["x"]), ScriptedEnv(["d"]), RolloutConfig(), concurrency=0)

    def test_order_preserved_and_equal_across_concurrency(self):
        tasks = self.make_tasks(4)
        runs = {}
        for concurrency in (1, 2):
            records = run_batch(
                tasks, self.scripted(tasks), ScriptedEnv(["doc"]), RolloutConfig(),
                concurrency=concurrency,
            )
            assert [r.task.id for r in records] == [t.id for t in tasks]
            # Wall-clock fields vary run to run; compare everything else.
            runs[concurrency] = [scrub_times(r.to_dict()) for r in records]
        assert runs[1] == runs[2]

    def test_shared_non_concurrent_backends_take_turns(self):
        # A third-party backend may declare concurrent=False and bind every
        # task to one shared self; run_batch must still never overlap its calls.
        class Shared:
            concurrent = False

            def __init__(self):
                self.active = self.peak = 0
                self.lock = threading.Lock()

            def bind(self, task):
                return self

            def call(self, result):
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                time.sleep(0.002)
                with self.lock:
                    self.active -= 1
                return result

        class SharedPolicy(Shared):
            def generate(self, context, stop_markers, max_tokens, seed):
                text = ANSWER_TURN if "Paris is the capital." in context else QUERY_TURN
                return self.call(Generation(text, "eos"))

        class SharedEnv(Shared):
            def respond(self, query):
                return self.call(Observation("Paris is the capital."))

        tasks = self.make_tasks(8)
        policy, env = SharedPolicy(), SharedEnv()
        results = run_batch(tasks, policy, env, RolloutConfig(), concurrency=4)
        assert [r.terminated for r in results] == ["answered"] * 8
        assert (policy.peak, env.peak) == (1, 1)

    def test_failures_captured_in_place(self):
        tasks = self.make_tasks(3)

        class FailsSecond:
            concurrent = True

            def generate(self, context, stop_markers, max_tokens, seed):
                raise RuntimeError("boom")

            def bind(self, task):
                return self if task.id == "t1" else ScriptedPolicy(["<answer>ok</answer>"])

        results = run_batch(tasks, FailsSecond(), ScriptedEnv(["d"]), RolloutConfig())
        assert isinstance(results[0], TrajectoryRecord)
        assert isinstance(results[1], RolloutError)
        assert results[1].task_id == "t1"
        assert isinstance(results[2], TrajectoryRecord)

    @pytest.mark.parametrize("concurrency", [1, 3])
    @pytest.mark.parametrize("backend", ["policy", "env"])
    def test_bind_failure_is_that_episodes_error(self, backend, concurrency):
        # A third-party backend whose bind raises for one task fails that
        # episode alone, before any turn; the rest of the batch still runs.
        tasks = self.make_tasks(3)

        class Fussy:
            def __init__(self, inner):
                self.inner = inner

            def bind(self, task):
                if task.id == "t1":
                    raise KeyError("nothing bound for t1")
                return self.inner.bind(task)

        policy, env = ScriptedPolicy([QUERY_TURN, ANSWER_TURN]), ScriptedEnv(["Paris is the capital."])
        if backend == "policy":
            policy = Fussy(policy)
        else:
            env = Fussy(env)
        results = run_batch(tasks, policy, env, RolloutConfig(), concurrency=concurrency)
        assert [r.terminated for r in (results[0], results[2])] == ["answered", "answered"]
        assert isinstance(results[1], RolloutError)
        assert (results[1].task_id, results[1].partial) == ("t1", ())
        assert isinstance(results[1].cause, KeyError)

    def test_concurrency_beats_sequential_with_latency(self):
        tasks = self.make_tasks(8)

        class SlowPolicy:
            concurrent = True

            def generate(self, context, stop_markers, max_tokens, seed):
                time.sleep(0.03)
                return Generation("<answer>done</answer>", "stop", "</answer>")

            def bind(self, task):
                return self

        def timed(concurrency):
            start = time.perf_counter()
            run_batch(tasks, SlowPolicy(), ScriptedEnv(["d"]), RolloutConfig(), concurrency=concurrency)
            return time.perf_counter() - start

        sequential = timed(1)
        parallel = timed(8)
        assert parallel < sequential
