from __future__ import annotations

import codecs
import copy
import importlib
import pickle
import re
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memroll import (
    Answer,
    CompositeTask,
    ConfigError,
    ContextState,
    DataError,
    Doc,
    Generation,
    IntegrityError,
    Invalid,
    MetricReport,
    Observation,
    PAPER_BODY,
    ParsedTurn,
    PRESETS,
    Product,
    PROMPT_STYLE,
    Query,
    RolloutConfig,
    ShopGoal,
    ShopState,
    Span,
    TagPreset,
    Task,
    TokenCounter,
    TrajectoryRecord,
    TurnRecord,
    ValidationError,
    WordTokenizer,
    config_from_mapping,
    default_max_turns,
    load_config,
    parse_turn,
    rename_tags,
    segment_text,
)
from memroll.core import _CLASSES, iter_jsonl, replace

from helpers import state_of


class TestErrors:
    def test_value_error_family(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ValidationError, ValueError)
        assert issubclass(DataError, ValueError)
        assert issubclass(IntegrityError, RuntimeError)


class TestTask:
    def test_bare_string_promoted(self):
        task = Task("a", "q?", "Paris")
        assert task.gold_answers == (("Paris",),)

    def test_flat_string_list_is_one_variant_set(self):
        # ["four", "4"] means one answer with two acceptable surface forms.
        task = Task("a", "q?", ["four", "4"])
        assert task.gold_answers == (("four", "4"),)

    def test_list_of_lists_kept(self):
        task = Task("a", "q?", [["Paris"], ["1969", "one"]])
        assert task.gold_answers == (("Paris",), ("1969", "one"))

    def test_mixed_list_promotes_strings(self):
        task = Task("a", "q?", ["Paris", ["1969"]])
        assert task.gold_answers == (("Paris",), ("1969",))

    def test_empty_gold_rejected(self):
        with pytest.raises(ValidationError):
            Task("a", "q?", [])

    def test_empty_variant_list_rejected(self):
        with pytest.raises(ValidationError):
            Task("a", "q?", [["Paris"], []])

    def test_unknown_env_kind_rejected(self):
        with pytest.raises(ValidationError):
            Task("a", "q?", ["Paris"], env_kind="chess")

    def test_to_dict_round_trip(self):
        task = Task("a", "q?", [["Paris"], ["1969"]], env_kind="shop")
        data = task.to_dict()
        assert data == {
            "id": "a",
            "question": "q?",
            "golden_answers": [["Paris"], ["1969"]],
            "env_kind": "shop",
        }
        again = Task(data["id"], data["question"], data["golden_answers"], data["env_kind"])
        assert again == task


class TestTagPreset:
    def test_builtin_presets_registered(self):
        assert set(PRESETS) == {"paper_body", "prompt_style"}
        assert PRESETS["paper_body"] is PAPER_BODY
        assert PRESETS["prompt_style"] is PROMPT_STYLE

    def test_paper_body_vocabulary(self):
        assert PAPER_BODY.is_open == "<IS>"
        assert PAPER_BODY.query_close == "</query>"
        assert PAPER_BODY.info_open == "<info>"

    def test_prompt_style_vocabulary(self):
        assert PROMPT_STYLE.is_open == "<think>"
        assert PROMPT_STYLE.query_open == "<search>"
        assert PROMPT_STYLE.info_close == "</information>"
        # Answer tags are shared between the two vocabularies.
        assert PROMPT_STYLE.answer_open == PAPER_BODY.answer_open

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ValidationError):
            TagPreset("bad", "<a>", "<a>", "<q>", "</q>", "<ans>", "</ans>", "<i>", "</i>")

    def test_empty_tag_rejected(self):
        with pytest.raises(ValidationError):
            TagPreset("bad", "", "</IS>", "<q>", "</q>", "<a>", "</a>", "<i>", "</i>")

    @pytest.mark.parametrize(
        "tags",
        [
            ("<m", "m>", "<q>", "</q>", "<a>", "</a>", "<f>", "</f>"),  # "<m" ends with the start of "m>"
            ("<is>", "</is>", "<q>", "</q>", "<a>", "</a>", "<is", "</f>"),  # "<is" lies inside "<is>"
            ("<i>", "</i>", "<q>", "</q>", "<a>", "</a>", "<f>", "<f<"),  # "<f<" ends with its own start
        ],
        ids=["end_starts_another", "inside_another", "end_starts_itself"],
    )
    def test_tags_that_can_overlap_rejected(self, tags):
        with pytest.raises(ValidationError, match="can overlap"):
            TagPreset("bad", *tags)


FILLER = st.text(alphabet=st.characters(blacklist_characters="<"), max_size=12)


class TestRenameTags:
    def test_spec_example(self):
        out = rename_tags("<IS>x</IS><query>q</query>", PAPER_BODY, PROMPT_STYLE)
        assert out == "<think>x</think><search>q</search>"

    def test_single_pass_no_rescan(self):
        # info -> information must not then have its "information" rewritten.
        out = rename_tags("<info>d</info>", PAPER_BODY, PROMPT_STYLE)
        assert out == "<information>d</information>"
        back = rename_tags(out, PROMPT_STYLE, PAPER_BODY)
        assert back == "<info>d</info>"

    @settings(max_examples=200)
    @given(st.lists(st.tuples(FILLER, st.sampled_from(PAPER_BODY.all_tags())), max_size=8), FILLER)
    def test_round_trip_identity(self, pieces, tail):
        text = "".join(filler + tag for filler, tag in pieces) + tail
        there = rename_tags(text, PAPER_BODY, PROMPT_STYLE)
        assert rename_tags(there, PROMPT_STYLE, PAPER_BODY) == text


# Characters a table-driven count can misclassify: every ASCII control
# (\x1c-\x1f are whitespace to \s), Unicode spaces, combining marks and
# non-Latin digits, next to plain word, space and punctuation characters.
TRICKY_CHARS = (
    [chr(c) for c in range(32)]
    + ["\x7f", "\x85", "\xa0", "\u2028", "\u3000"]
    + [chr(c) for c in range(0x2000, 0x200B)]
    + ["\u0300", "\u0301", "\u20dd", "\u0663", "\u0967", "\uff11"]
    + ["a", "Z", "9", "_", " ", ".", "<", "\u2014", "\u65e5", "\U0001f600"]
)


class TestWordTokenizer:
    def test_implements_counter_protocol(self):
        assert isinstance(WordTokenizer(), TokenCounter)
        assert WordTokenizer().name == "wordpunct-intern-1"

    def test_angle_brackets_are_single_tokens(self):
        assert segment_text("<IS>") == ["<", "IS", ">"]
        assert segment_text("</query>") == ["<", "/", "query", ">"]

    def test_count_matches_encode_length(self):
        tok = WordTokenizer()
        text = "Doc 1 (Title: Seine) The Seine flows through Paris."
        assert tok.count(text) == len(tok.encode(text))

    def test_decode_unknown_id(self):
        tok = WordTokenizer()
        tok.encode("a b")
        with pytest.raises(ValueError):
            tok.decode([99])

    def test_interning_is_stable(self):
        tok = WordTokenizer()
        first = tok.encode("alpha beta alpha")
        second = tok.encode("alpha beta alpha")
        assert first == second
        # "alpha", " ", "beta", " ", "alpha": repeats intern to the same id.
        assert first[0] == first[4]
        assert first[1] == first[3]

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_lossless_round_trip(self, text):
        assert "".join(segment_text(text)) == text
        tok = WordTokenizer()
        ids = tok.encode(text)
        assert tok.decode(ids) == text
        assert tok.count(text) == len(ids)

    @settings(max_examples=500)
    @example("")
    @example("\x1c\x1d \x1e\x1f")
    @given(st.text(alphabet=st.one_of(st.sampled_from(TRICKY_CHARS), st.characters()), max_size=60))
    def test_count_is_the_segment_count(self, text):
        assert WordTokenizer().count(text) == len(segment_text(text))


# Text of any of the 128 ASCII code points, which count takes by character class.
ascii_text = st.text(alphabet=st.characters(max_codepoint=127), max_size=200)


class TestAsciiCount:
    """count classes ASCII text through a table instead of scanning it; the
    table and the counts must be the scan's."""

    def test_class_table_is_the_scans(self):
        assert len(_CLASSES) == 128
        for code in range(128):
            char = chr(code)
            want = "s" if re.fullmatch(r"\s", char) else "w" if re.fullmatch(r"\w", char) else "o"
            assert _CLASSES[code] == want, hex(code)

    @settings(max_examples=500)
    @example("\x1c\x1d a_9\x1f.")
    @example("\x00+\x7f")
    @given(ascii_text)
    def test_count_is_the_segment_count(self, text):
        assert WordTokenizer().count(text) == len(segment_text(text))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.booleans(), ascii_text), max_size=12))
    def test_every_chained_count_is_exact(self, steps):
        # Each step extends the last text by an ASCII piece, or starts anew.
        tok, text = WordTokenizer(), ""
        for fresh, piece in steps:
            text = piece if fresh else text + piece
            assert tok.count(text) == len(segment_text(text)), text


# Characters for the joins of a counting chain: ASCII and non-ASCII word and
# whitespace characters, other characters, and lone surrogates.
JOIN_CHARS = ["a", "9", "_", " ", "\n", ".", "<", "\u2014", "\u65e5", "\u3000", "\x85", "\ud800", "\udc00"]
join_text = st.text(alphabet=st.sampled_from(JOIN_CHARS), max_size=8)
# (kind, cut, piece): "extend" appends piece (an empty piece is an empty
# extension), "same" repeats the text, "branch" drops the last cut characters
# before appending piece, and "fresh" starts an unrelated text.
chain_step = st.tuples(
    st.sampled_from(["extend", "extend", "same", "branch", "fresh"]), st.integers(1, 8), join_text
)


class TestCountChain:
    """count remembers the last text it counted and counts only what a text
    adds to it; every count must still be the full token count."""

    @settings(max_examples=300)
    @given(st.lists(chain_step, max_size=40))
    def test_every_count_is_exact(self, steps):
        tok, text = WordTokenizer(), ""
        for kind, cut, piece in steps:
            if kind == "extend":
                text += piece
            elif kind == "branch":
                text = text[:-cut] + piece
            elif kind == "fresh":
                text = piece
            assert tok.count(text) == len(tok.encode(text)), (kind, text)

    @pytest.mark.parametrize(
        "last, rest",
        [("ab", "cd"), ("a ", " b"), ("a", " "), ("a.", "b"), (".", "."), ("\u65e5", "a"),
         ("a\u3000", "\x85b"), ("\ud800", "\udc00"), ("a", "\u2014"), ("x", "")],
    )
    def test_join_cases(self, last, rest):
        tok = WordTokenizer()
        tok.count(last)
        assert tok.count(last + rest) == len(segment_text(last + rest))

    def test_threads_sharing_one_counter(self):
        # Interleaved chains on one counter: each thread extends its own text,
        # and all texts share a stem, so a call may extend another thread's text.
        tok = WordTokenizer()
        stem = "Question: where? " * 20
        chains = [
            [stem + f"w{k} " * i + "\u65e5" * (i % 3) for i in range(300)] for k in range(4)
        ]
        start = threading.Barrier(len(chains))
        wrong: list[str] = []

        def run(texts):
            start.wait()
            for text in texts:
                if tok.count(text) != len(segment_text(text)):
                    wrong.append(text)

        threads = [threading.Thread(target=run, args=(texts,)) for texts in chains]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestTurnBudget:
    @pytest.mark.parametrize("n,expected", [(1, 6), (2, 6), (4, 6), (5, 20), (8, 20), (16, 20)])
    def test_default_max_turns(self, n, expected):
        assert default_max_turns(n) == expected


class TestRolloutConfig:
    def test_defaults(self):
        config = RolloutConfig()
        assert config.max_turns == 6
        assert config.retrieval_k == 3
        assert config.mode == "consolidate"
        assert config.tag_preset == "paper_body"
        assert config.hint_enabled is True
        assert config.temperature == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_turns": 0},
            {"retrieval_k": 0},
            {"max_tokens_per_generation": 0},
            {"tag_preset": "xml"},
            {"mode": "windowed"},
            {"temperature": -0.5},
            {"policy_api_style": "grpc"},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ValidationError):
            RolloutConfig(**kwargs)

    def test_stop_markers(self):
        config = RolloutConfig(max_turns=3)
        assert config.stop_markers == ("</query>", "</answer>")
        assert config.stop_markers_for(0) == ("</query>", "</answer>")
        assert config.stop_markers_for(1) == ("</query>", "</answer>")
        # Final turn must not stop on a query.
        assert config.stop_markers_for(2) == ("</answer>",)

    def test_stop_markers_follow_preset(self):
        config = RolloutConfig(tag_preset="prompt_style")
        assert config.stop_markers == ("</search>", "</answer>")

    def test_mapping_round_trip(self, tmp_path):
        # Every field away from its default, so each key's coercion is used.
        config = RolloutConfig(
            max_turns=9,
            tag_preset="prompt_style",
            retrieval_k=5,
            mode="full_append",
            hint_enabled=False,
            max_tokens_per_generation=77,
            seed=17,
            temperature=0.7,
            policy_url="http://x/v1",
            policy_api_style="chat",
            policy_model="model-1",
            api_key_env="OTHER_KEY",
        )
        defaults = RolloutConfig().to_dict()
        assert all(value != defaults[key] for key, value in config.to_dict().items())
        assert config_from_mapping(config.to_dict()) == config
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key}={value}\n" for key, value in config.to_dict().items()))
        assert load_config(path) == config

    def test_with_overrides_skips_none(self):
        config = RolloutConfig(max_turns=9)
        assert config.with_overrides(max_turns=None, seed=3) == RolloutConfig(max_turns=9, seed=3)


class TestLoadConfig:
    def test_key_value_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nmax_turns = 6\n\nmode=full_append\n")
        config = load_config(path)
        assert config.max_turns == 6
        assert config.mode == "full_append"

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == RolloutConfig()

    def test_zero_turns_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("max_turns=0\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("max_turnz=6\n")
        with pytest.raises(ConfigError, match="max_turnz"):
            load_config(path)

    def test_uncoercible_value_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("max_turns=six\n")
        with pytest.raises(ConfigError, match="max_turns"):
            load_config(path)

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("max_turns\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_json_variant(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"max_turns": 20, "hint_enabled": false, "policy_url": null}')
        config = load_config(path)
        assert config.max_turns == 20
        assert config.hint_enabled is False
        assert config.policy_url is None

    def test_json_null_on_non_nullable_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"seed": null}')
        with pytest.raises(ConfigError):
            load_config(path)

    @settings(max_examples=150)
    @given(
        ints=st.dictionaries(
            st.sampled_from(["max_turns", "retrieval_k", "seed", "max_tokens_per_generation"]),
            st.integers(min_value=-3, max_value=30).map(str),
            max_size=4,
        ),
        mode=st.sampled_from(["consolidate", "full_append", "windowed"]),
    )
    def test_fuzzed_mappings_validate_or_reject(self, ints, mode):
        # Any config that survives loading satisfies every invariant.
        try:
            config = config_from_mapping({**ints, "mode": mode})
        except (ConfigError, ValidationError):
            return
        assert config.max_turns >= 1
        assert config.retrieval_k >= 1
        assert config.max_tokens_per_generation >= 1
        assert config.mode in ("consolidate", "full_append")


class TestIterJsonl:
    def test_yields_line_numbers(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert list(iter_jsonl(path)) == [(1, {"a": 1}), (3, {"a": 2})]

    def test_bad_line_named(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            list(iter_jsonl(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DataError):
            list(iter_jsonl(path))

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(codecs.BOM_UTF8 + b'{"a": 1}\n{"a": 2}\n')
        assert list(iter_jsonl(path)) == [(1, {"a": 1}), (2, {"a": 2})]


# One instance of each frozen value type, built twice by its factory, with its
# repr: the text the dataclass version printed, which DataError messages embed.
TASK = Task("t1", "Capital of France?", "Paris")
TASK_REPR = "Task(id='t1', question='Capital of France?', gold_answers=(('Paris',),), env_kind='retrieval_qa')"
TINY = TagPreset("tiny", "<i>", "</i>", "<q>", "</q>", "<a>", "</a>", "<f>", "</f>")
TINY_REPR = (
    "TagPreset(name='tiny', is_open='<i>', is_close='</i>', query_open='<q>', query_close='</q>', "
    "answer_open='<a>', answer_close='</a>', info_open='<f>', info_close='</f>')"
)
CONFIG_REPR = (
    "RolloutConfig(max_turns={}, tag_preset='paper_body', retrieval_k=3, mode='consolidate', "
    "hint_enabled=True, max_tokens_per_generation=1024, seed={}, temperature=0.01, policy_url=None, "
    "policy_api_style='completions', policy_model=None, api_key_env='MEMROLL_API_KEY')"
)
COMPOSITE = CompositeTask("c1", (TASK,), "Q: Capital of France?", 1, "retrieval_qa", "Q: ")
COMPOSITE_REPR = (
    f"CompositeTask(id='c1', sub_tasks=({TASK_REPR},), rendered_prompt='Q: Capital of France?', "
    "objective_count=1, env_kind='retrieval_qa', prompt_prefix='Q: ')"
)
SPAN_REPR = "Span(start=0, end=18, inner_start=8, inner_end=9)"
PARSED = parse_turn("<answer>x</answer>", PAPER_BODY)
PARSED_REPR = (
    "ParsedTurn(is_segment=None, action=Answer(text='x'), raw='<answer>x</answer>', "
    f"spans={{'answer': {SPAN_REPR}}})"
)
GENERATION = Generation("<answer>x</answer>", "stop", "</answer>", 0.5)
GENERATION_REPR = "Generation(text='<answer>x</answer>', finish='stop', stop_marker='</answer>', latency_s=0.5)"
TURN = TurnRecord(state_of("Q: Capital of France?"), GENERATION, PARSED, None)
TURN_REPR = (
    f"TurnRecord(context=ContextState(head='Q: Capital of France?', preset={PAPER_BODY!r}, mode='consolidate', "
    f"turn_index=0, tail=()), generation={GENERATION_REPR}, parsed={PARSED_REPR}, info=None, env_reward=None)"
)

RECORDS = {
    "Task": (lambda: Task("t1", "Capital of France?", "Paris"), TASK_REPR),
    "TagPreset": (lambda: TagPreset("tiny", "<i>", "</i>", "<q>", "</q>", "<a>", "</a>", "<f>", "</f>"),
                  TINY_REPR),
    "RolloutConfig": (lambda: RolloutConfig(max_turns=4, seed=7), CONFIG_REPR.format(4, 7)),
    "CompositeTask": (lambda: CompositeTask("c1", (TASK,), "Q: Capital of France?", 1, "retrieval_qa", "Q: "),
                      COMPOSITE_REPR),
    "ContextState": (lambda: ContextState("H", TINY, "consolidate", 1, ("a", "b")),
                     f"ContextState(head='H', preset={TINY_REPR}, mode='consolidate', turn_index=1, tail=('a', 'b'))"),
    "Span": (lambda: Span(0, 18, 8, 9), SPAN_REPR),
    "Query": (lambda: Query("x"), "Query(text='x')"),
    "Answer": (lambda: Answer("x"), "Answer(text='x')"),
    "Invalid": (lambda: Invalid("no_action"), "Invalid(reason='no_action')"),
    "ParsedTurn": (lambda: parse_turn("<answer>x</answer>", PAPER_BODY), PARSED_REPR),
    "Generation": (lambda: Generation("<answer>x</answer>", "stop", "</answer>", 0.5), GENERATION_REPR),
    "TurnRecord": (lambda: TurnRecord(state_of("Q: Capital of France?"), GENERATION, PARSED, None), TURN_REPR),
    "TrajectoryRecord": (lambda: TrajectoryRecord(COMPOSITE, (TURN,), "x", "answered", RolloutConfig(), 0.25),
                         f"TrajectoryRecord(task={COMPOSITE_REPR}, turns=({TURN_REPR},), final_answer='x', "
                         f"terminated='answered', config={CONFIG_REPR.format(6, 0)}, wall_time_s=0.25)"),
    "Observation": (lambda: Observation("found", 1.0, True), "Observation(text='found', reward=1.0, done=True)"),
    "Doc": (lambda: Doc("d1", "Paris", "Capital of France."),
            "Doc(doc_id='d1', title='Paris', body='Capital of France.')"),
    "Product": (lambda: Product("p1", "Mouse", ("red", "wireless"), 9.5),
                "Product(id='p1', title='Mouse', attributes=('red', 'wireless'), price=9.5)"),
    "ShopGoal": (lambda: ShopGoal("a red mouse under $10", ("red",), 10.0),
                 "ShopGoal(text='a red mouse under $10', attributes=('red',), price_cap=10.0)"),
    "ShopState": (lambda: ShopState("search", budget=3),
                  "ShopState(page='search', query='', page_no=1, product_id=None, panel=None, budget=3, "
                  "done=False, reward=None)"),
    "MetricReport": (lambda: MetricReport("c1", 1, 1.0, 1.0, 12, 3.5, 0.25, 1.0, "answered"),
                     "MetricReport(trajectory_id='c1', objective_count=1, em=1.0, f1=1.0, peak_tokens=12, "
                     "dependency=3.5, wall_time_s=0.25, valid_action_ratio=1.0, terminated='answered', "
                     "reward=None)"),
}
# A ParsedTurn holds its spans in a dict, so it and the records holding one
# do not hash, as with a frozen dataclass.
UNHASHABLE = {"ParsedTurn", "TurnRecord", "TrajectoryRecord"}


class TestRecord:
    @pytest.mark.parametrize("name", RECORDS)
    def test_repr_is_the_dataclass_text(self, name):
        make, text = RECORDS[name]
        assert type(make()).__name__ == name
        assert repr(make()) == text

    @pytest.mark.parametrize("name", RECORDS)
    def test_equal_values_are_equal_and_hash_alike(self, name):
        make, _ = RECORDS[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert a != tuple(getattr(a, field) for field in a._fields)
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_type_decides_equality(self):
        assert Query("x") != Answer("x")
        assert Query("x") != ("x",)
        assert Query("x").__eq__(Answer("x")) is NotImplemented
        assert Query("x") != Query("y")

    @pytest.mark.parametrize("name", RECORDS)
    def test_hash_is_the_field_tuple_and_other_classes_never_equal(self, name):
        # The values a frozen dataclass gives: hash of the field tuple, a
        # one-field record included, and NotImplemented from any other class.
        obj = RECORDS[name][0]()
        values = tuple(getattr(obj, field) for field in obj._fields)
        if name not in UNHASHABLE:
            assert hash(obj) == hash(values)
        for other, (make, _) in RECORDS.items():
            if other != name:
                assert obj.__eq__(make()) is NotImplemented and obj != make()
        assert hash(Query("x")) == hash(("x",))

    def test_every_record_class_is_covered(self):
        # RECORDS above and the two mask types (tests/test_masks.py) are all
        # the package's record classes.
        from memroll import core

        found = set()
        for module in ("core", "tagparse", "context", "compose", "archive", "envs", "shop", "metrics", "masks"):
            namespace = vars(importlib.import_module(f"memroll.{module}"))
            found |= {
                name for name, value in namespace.items()
                if isinstance(value, type) and value.__module__ == f"memroll.{module}"
                and value.__dict__.get("__setattr__") is core._frozen_setattr
            }
        assert found == set(RECORDS) | {"StitchedTrajectory", "Mask1D"}

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_cannot_be_set_or_deleted(self, name):
        obj = RECORDS[name][0]()
        for field in obj._fields:
            value = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, value)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert getattr(obj, field) is value
        with pytest.raises(AttributeError):
            obj.extra = 1

    def test_fields_are_the_annotations_in_order(self):
        for make, _ in RECORDS.values():
            cls = type(make())
            assert cls._fields == tuple(cls.__annotations__)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Query(),
            lambda: Query("x", "y"),
            lambda: Query(text="x", words="y"),
            lambda: Query("x", text="y"),
            lambda: Span(0, 1, 0),
            lambda: replace(Query("x"), words="y"),
        ],
        ids=["missing", "extra", "unknown", "repeated", "missing_last", "replace_unknown"],
    )
    def test_arguments_are_checked(self, call):
        with pytest.raises(TypeError):
            call()

    def test_replace_builds_a_checked_copy(self):
        config = RolloutConfig(max_turns=9)
        assert replace(config, seed=3) == RolloutConfig(max_turns=9, seed=3)
        assert config.seed == 0
        with pytest.raises(ValidationError):
            RolloutConfig().with_overrides(max_turns=0)
        with pytest.raises(ValidationError):
            replace(config, mode="windowed")
        task = replace(TASK, gold_answers="Rome")
        assert task.gold_answers == (("Rome",),)
        assert (task.id, task.question) == (TASK.id, TASK.question)

    @pytest.mark.parametrize("name", RECORDS)
    def test_pickle_and_copy_round_trip(self, name):
        obj = RECORDS[name][0]()
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
            with pytest.raises(AttributeError):
                setattr(twin, obj._fields[0], None)

    def test_config_keys_and_coercion_follow_the_annotations(self):
        keys = ["max_turns", "tag_preset", "retrieval_k", "mode", "hint_enabled",
                "max_tokens_per_generation", "seed", "temperature", "policy_url",
                "policy_api_style", "policy_model", "api_key_env"]
        assert list(RolloutConfig().to_dict()) == keys == list(RolloutConfig._fields)
        config = config_from_mapping({"max_turns": "4", "hint_enabled": "no", "temperature": "0.5",
                                      "seed": 7.0, "policy_url": None, "policy_model": 12})
        values = config.to_dict()
        assert [type(values[key]) for key in keys] == [
            int, str, int, str, bool, int, int, float, type(None), str, str, str]
        assert (config.max_turns, config.hint_enabled, config.temperature, config.policy_model) == (
            4, False, 0.5, "12")
        with pytest.raises(ConfigError):
            config_from_mapping({"max_turns": None})
