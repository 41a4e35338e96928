from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memroll import (
    ConfigError,
    DataError,
    IntegrityError,
    PAPER_BODY,
    PRESETS,
    PROMPT_STYLE,
    RolloutConfig,
    TagPreset,
    Task,
    TokenCounter,
    ValidationError,
    WordTokenizer,
    config_from_mapping,
    default_max_turns,
    load_config,
    rename_tags,
    segment_text,
)
from memroll.core import iter_jsonl


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
