from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memroll import (
    DEFAULT_COUNTER,
    HINT_TEMPLATE,
    PAPER_BODY,
    advance,
    initial_state,
    inject_hint,
    parse_turn,
    render_context,
)

TEMPLATE = "You are a research agent. Question: "
HEAD = TEMPLATE + "Who wrote Hamlet?"


def fresh(mode: str = "consolidate"):
    return initial_state(HEAD, PAPER_BODY, mode)


def turn(raw: str):
    parsed = parse_turn(raw, PAPER_BODY)
    assert parsed.valid, parsed.action
    return parsed


class TestRenderContext:
    def test_first_turn_is_head_only(self):
        assert render_context(fresh()) == HEAD

    def test_retained_tuple_serialized_in_order(self):
        state = advance(fresh(), turn("<IS>IS1</IS><query>q1</query>"), "info1")
        assert render_context(state) == HEAD + "<IS>IS1</IS><query>q1</query><info>info1</info>"

    def test_full_append_three_turns_verbatim(self):
        state = fresh("full_append")
        raws = [
            "<IS>a</IS><query>one</query>",
            "<query>two</query>",
            "<IS>c</IS><query>three</query>",
        ]
        for i, raw in enumerate(raws):
            state = advance(state, turn(raw), f"d{i}")
        expected = HEAD + "".join(f"{raw}<info>d{i}</info>" for i, raw in enumerate(raws))
        assert render_context(state) == expected

    def test_retained_without_is_block(self):
        state = advance(fresh(), turn("<query>q</query>"), "d")
        assert render_context(state) == HEAD + "<query>q</query><info>d</info>"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            initial_state(HEAD, PAPER_BODY, "windowed")


class TestAdvance:
    def test_only_most_recent_tuple_survives(self):
        state = advance(fresh(), turn("<IS>first</IS><query>q1</query>"), "d1")
        state = advance(state, turn("<IS>second</IS><query>q2</query>"), "d2")
        assert state.tail == ("<IS>second</IS>", "<query>q2</query>", "<info>", "d2", "</info>")
        rendered = render_context(state)
        assert "first" not in rendered
        assert "q1" not in rendered
        assert state.turn_index == 2

    def test_answer_leaves_retained_untouched(self):
        state = advance(fresh(), turn("<IS>x</IS><query>q</query>"), "d")
        done = advance(state, turn("<IS>y</IS><answer>final</answer>"), None)
        assert done.tail == state.tail == ("<IS>x</IS>", "<query>q</query>", "<info>", "d", "</info>")
        assert done.turn_index == state.turn_index + 1

    def test_full_append_history_grows(self):
        state = fresh("full_append")
        state = advance(state, turn("<query>a</query>"), "d1")
        state = advance(state, turn("<query>b</query>"), "d2")
        assert state.tail == ("<query>a</query>", "<info>", "d1", "</info>",
                              "<query>b</query>", "<info>", "d2", "</info>")

    def test_retained_keeps_exact_inner_text(self):
        # No trimming: the policy must see exactly what it emitted.
        state = advance(fresh(), turn("<IS> pad </IS><query>  q  </query>"), "d")
        assert state.tail == ("<IS> pad </IS>", "<query>  q  </query>", "<info>", "d", "</info>")

    @pytest.mark.parametrize("mode", ["consolidate", "full_append"])
    def test_tail_holds_the_info_it_was_given(self, mode):
        # Not a copy: a read archive holds each turn's feedback once.
        info = "".join(["doc ", "body"])
        state = advance(fresh(mode), turn("<IS>x</IS><query>q</query>"), info)
        assert state.tail[-2] is info
        assert render_context(state).endswith("<info>doc body</info>")

    def test_query_requires_info(self):
        with pytest.raises(ValueError):
            advance(fresh(), turn("<query>q</query>"), None)

    def test_answer_rejects_info(self):
        with pytest.raises(ValueError):
            advance(fresh(), turn("<answer>a</answer>"), "stray")

    def test_invalid_action_rejected(self):
        parsed = parse_turn("no tags here", PAPER_BODY)
        with pytest.raises(ValueError):
            advance(fresh(), parsed, None)

    def test_consolidate_retention_rule(self):
        # After any advance the rendered context holds at most one IS and at
        # most one info element.
        state = fresh()
        for i in range(5):
            state = advance(state, turn(f"<IS>s{i}</IS><query>q{i}</query>"), f"d{i}")
            rendered = render_context(state)
            assert rendered.count("<IS>") == 1
            assert rendered.count("<info>") == 1

    @settings(max_examples=60)
    @given(st.lists(st.text(alphabet="ab ", min_size=1, max_size=6), min_size=1, max_size=6))
    def test_full_append_is_prefix_preserving(self, queries):
        state = fresh("full_append")
        prev = render_context(state)
        for i, q in enumerate(queries):
            state = advance(state, turn(f"<query>{q}</query>"), f"doc {i}")
            cur = render_context(state)
            assert cur.startswith(prev)
            prev = cur


class TestInjectHint:
    def test_paper_template(self):
        assert inject_hint("docs...", 3) == "[HINT: YOU HAVE 3 TURNS LEFT] docs..."

    def test_empty_info_edge(self):
        assert inject_hint("", 0) == "[HINT: YOU HAVE 0 TURNS LEFT] "

    def test_disabled_passthrough(self):
        assert inject_hint("docs...", 3, enabled=False) == "docs..."

    def test_template_constant(self):
        assert HINT_TEMPLATE.format(turns_left=7) == "[HINT: YOU HAVE 7 TURNS LEFT] "


def context_token_len(state) -> int:
    """Token length of the rendered context, the prompt template excluded, as
    metrics.peak_tokens counts it."""
    return DEFAULT_COUNTER.count(render_context(state).removeprefix(TEMPLATE))


class TestContextTokenLen:
    def test_question_only(self):
        state = initial_state(TEMPLATE + "q", PAPER_BODY, "consolidate")
        assert context_token_len(state) == 1

    def test_retained_tuple_counts(self):
        state = advance(fresh(), turn("<IS>x</IS><query>y</query>"), "d")
        tuple_text = "<IS>x</IS><query>y</query><info>d</info>"
        expected = DEFAULT_COUNTER.count("Who wrote Hamlet?") + DEFAULT_COUNTER.count(tuple_text)
        assert context_token_len(state) == expected

    def test_full_append_exceeds_consolidate(self):
        turns = [f"<IS>notes {i}</IS><query>find {i}</query>" for i in range(3)]
        consolidated, appended = fresh(), fresh("full_append")
        for i, raw in enumerate(turns):
            consolidated = advance(consolidated, turn(raw), f"doc {i}")
            appended = advance(appended, turn(raw), f"doc {i}")
        assert context_token_len(appended) > context_token_len(consolidated)

    def test_constant_memory_bound(self):
        # Fixed-size segments: the consolidate context length is identical at
        # every turn past the first, no matter how long the episode runs.
        state = fresh()
        sizes = []
        for i in range(50):
            state = advance(state, turn("<IS>aa bb</IS><query>cc dd</query>"), "ee ff")
            sizes.append(context_token_len(state))
        assert len(set(sizes)) == 1
        assert state.turn_index == 50

    def test_full_append_grows_monotonically(self):
        state = fresh("full_append")
        sizes = []
        for i in range(10):
            state = advance(state, turn("<IS>aa</IS><query>bb</query>"), "cc")
            sizes.append(context_token_len(state))
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]
