from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memroll import (
    Answer,
    Invalid,
    PAPER_BODY,
    PROMPT_STYLE,
    ParsedTurn,
    Query,
    parse_turn,
    rename_tags,
    render_turn,
    split_answers,
)


class TestParseTurn:
    def test_query_turn(self):
        parsed = parse_turn("<IS>notes</IS><query>capital of France</query>", PAPER_BODY)
        assert parsed.is_segment == "notes"
        assert parsed.action == Query("capital of France")
        assert parsed.valid

    def test_answer_turn(self):
        parsed = parse_turn("<IS>done</IS><answer>Paris; 1969</answer>", PAPER_BODY)
        assert parsed.action == Answer("Paris; 1969")

    def test_unterminated_answer(self):
        parsed = parse_turn("<answer>Paris", PAPER_BODY)
        assert parsed.action == Invalid("mismatched_tags")
        assert not parsed.valid

    def test_no_action(self):
        parsed = parse_turn("<IS>just thinking</IS>", PAPER_BODY)
        assert parsed.action == Invalid("no_action")
        assert parsed.is_segment == "just thinking"

    def test_query_and_answer_together(self):
        raw = "<query>q</query><answer>a</answer>"
        assert parse_turn(raw, PAPER_BODY).action == Invalid("multiple_actions")

    def test_two_queries(self):
        raw = "<query>a</query><query>b</query>"
        assert parse_turn(raw, PAPER_BODY).action == Invalid("multiple_actions")

    def test_nested_same_tag(self):
        raw = "<query>a<query>b</query></query>"
        assert parse_turn(raw, PAPER_BODY).action == Invalid("mismatched_tags")

    def test_is_optional(self):
        parsed = parse_turn("<query>q</query>", PAPER_BODY)
        assert parsed.is_segment is None
        assert parsed.action == Query("q")

    def test_action_text_trimmed_is_segment_exact(self):
        parsed = parse_turn("<IS> keep  ws </IS><query>  padded  </query>", PAPER_BODY)
        assert parsed.is_segment == " keep  ws "
        assert parsed.action == Query("padded")
        # spans recover the untrimmed inner text.
        assert parsed.inner("query") == "  padded  "

    def test_stray_text_preserved_in_raw(self):
        raw = "preamble <query>q</query> trailing"
        parsed = parse_turn(raw, PAPER_BODY)
        assert parsed.action == Query("q")
        assert parsed.raw == raw

    def test_prompt_style_vocabulary(self):
        parsed = parse_turn("<think>x</think><search>y</search>", PROMPT_STYLE)
        assert parsed.is_segment == "x"
        assert parsed.action == Query("y")

    def test_case_sensitive(self):
        assert parse_turn("<Query>q</Query>", PAPER_BODY).action == Invalid("no_action")

    def test_spans_index_raw(self):
        raw = "<IS>ab</IS><answer>final</answer>"
        parsed = parse_turn(raw, PAPER_BODY)
        s = parsed.spans["is"]
        assert raw[s.start:s.end] == "<IS>ab</IS>"
        assert raw[s.inner_start:s.inner_end] == "ab"
        a = parsed.spans["answer"]
        assert raw[a.start:a.end] == "<answer>final</answer>"
        assert raw[a.inner_start:a.inner_end] == "final"

    def test_empty_inner_text(self):
        parsed = parse_turn("<IS></IS><answer></answer>", PAPER_BODY)
        assert parsed.is_segment == ""
        assert parsed.action == Answer("")

    @settings(max_examples=300)
    @given(st.text(max_size=60))
    def test_total_never_raises(self, raw):
        parsed = parse_turn(raw, PAPER_BODY)
        assert isinstance(parsed.action, (Query, Answer, Invalid))
        for span in parsed.spans.values():
            assert 0 <= span.start <= span.inner_start <= span.inner_end <= span.end <= len(raw)


INNER = st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=15)


class TestRenderTurn:
    def test_query_round_trip(self):
        parsed = parse_turn("<IS>x</IS><query>y</query>", PAPER_BODY)
        assert render_turn(parsed, PAPER_BODY) == "<IS>x</IS><query>y</query>"

    def test_render_under_other_preset(self):
        parsed = parse_turn("<IS>x</IS><query>y</query>", PAPER_BODY)
        assert render_turn(parsed, PROMPT_STYLE) == "<think>x</think><search>y</search>"

    def test_invalid_rejected(self):
        parsed = parse_turn("no tags at all", PAPER_BODY)
        with pytest.raises(ValueError):
            render_turn(parsed, PAPER_BODY)

    def test_is_omitted_when_absent(self):
        parsed = parse_turn("<answer>a</answer>", PAPER_BODY)
        assert render_turn(parsed, PAPER_BODY) == "<answer>a</answer>"

    @settings(max_examples=200)
    @given(is_text=st.none() | INNER, body=INNER, is_query=st.booleans())
    def test_parse_render_round_trip(self, is_text, body, is_query):
        # Build a canonical turn; parse(render(p)) must reproduce the segments.
        action = Query(body.strip()) if is_query else Answer(body.strip())
        name = "query" if is_query else "answer"
        parsed = ParsedTurn(is_text, action, raw="", spans={})
        rendered = render_turn(parsed, PAPER_BODY)
        again = parse_turn(rendered, PAPER_BODY)
        assert again.is_segment == is_text
        assert again.action == action
        assert again.spans[name] is not None

    @settings(max_examples=150)
    @given(is_text=st.none() | INNER, body=INNER, is_query=st.booleans())
    def test_rename_commutes_with_parse(self, is_text, body, is_query):
        action = Query(body.strip()) if is_query else Answer(body.strip())
        raw = render_turn(ParsedTurn(is_text, action, "", {}), PAPER_BODY)
        renamed = rename_tags(raw, PAPER_BODY, PROMPT_STYLE)
        a = parse_turn(renamed, PROMPT_STYLE)
        b = parse_turn(raw, PAPER_BODY)
        assert a.is_segment == b.is_segment
        assert a.action == b.action


class TestSplitAnswers:
    def test_two_parts(self):
        assert split_answers("Paris; 1969") == ["Paris", "1969"]

    def test_no_separator(self):
        assert split_answers("Paris") == ["Paris"]

    def test_empty_middle_part_retained(self):
        assert split_answers("a;;b") == ["a", "", "b"]

    def test_empty_string(self):
        assert split_answers("") == [""]

    @given(st.lists(st.text(alphabet=st.characters(blacklist_characters=";"), max_size=8), min_size=1, max_size=5))
    def test_part_count_is_separator_count_plus_one(self, parts):
        joined = ";".join(parts)
        assert len(split_answers(joined)) == len(parts)
