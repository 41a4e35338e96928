"""Parsing and rendering of tagged policy turns.

A well-formed turn is an optional internal-state block followed by exactly one
action block, either a query or an answer. Tag matching is exact
string matching, case sensitive, with no nesting support: nested or overlapping
tag pairs invalidate the action. Text outside recognized tags never affects
control flow but is preserved in raw.

parse_turn reads a turn in one left-to-right scan for the preset's eight tags
(TagPreset.scanner). A preset's tags cannot overlap in text, so that scan
finds every tag that a separate search for each tag would.
"""

from __future__ import annotations

import re

from .core import TagPreset, record

__all__ = [
    "Span",
    "Query",
    "Answer",
    "Invalid",
    "Action",
    "ParsedTurn",
    "parse_turn",
    "render_turn",
    "split_answers",
]


@record
class Span:
    """Offsets of one tag block inside raw: [start, end) covers the whole block,
    [inner_start, inner_end) covers the content between the tags."""

    start: int
    end: int
    inner_start: int
    inner_end: int


@record
class Query:
    text: str


@record
class Answer:
    text: str


@record
class Invalid:
    reason: str  # one of: no_action, mismatched_tags, multiple_actions


Action = Query | Answer | Invalid


@record
class ParsedTurn:
    """The structured reading of one generated turn.

    is_segment is the exact (untrimmed) content of the internal-state block
    when one is present; action text is trimmed. spans index into raw by
    string offset and never overlap.
    """

    is_segment: str | None
    action: Action
    raw: str
    spans: dict[str, Span]

    @property
    def valid(self) -> bool:
        return not isinstance(self.action, Invalid)

    def inner(self, name: str) -> str:
        """Exact content of a span by name ('is', 'query', 'answer')."""
        span = self.spans[name]
        return self.raw[span.inner_start:span.inner_end]


def parse_turn(raw: str, preset: TagPreset) -> ParsedTurn:
    """Parse one generated turn. Never raises: malformed input yields Invalid.

    Validity is decided by the action tags alone. The internal-state block is
    extracted best effort (first well-formed pair) and may be present on
    invalid turns too.

    One scan pairs the tags: an open tag pairs with the next close tag of its
    kind. An open tag while its kind is already open, a close tag with none
    open, or a tag left open makes the kind mismatched. A query or answer kind
    is present when it has a pair or is mismatched; both present, or two
    pairs of one, is multiple_actions, and an action overlapping the
    internal-state block is mismatched_tags.
    """
    pairs: dict[str, list[Span]] = {"is": [], "query": [], "answer": [], "info": []}
    opened: dict[str, re.Match[str]] = {}
    mismatched: set[str] = set()
    pattern, fields = preset.scanner()
    for tag in pattern.finditer(raw):
        kind, _, side = fields[tag.group()].partition("_")
        if side == "open":
            if kind in opened:
                mismatched.add(kind)
            opened[kind] = tag
        elif kind in opened:
            start = opened.pop(kind)
            pairs[kind].append(Span(start.start(), tag.end(), start.end(), tag.start()))
        else:
            mismatched.add(kind)
    mismatched.update(opened)

    is_span = pairs["is"][0] if pairs["is"] else None
    is_segment = raw[is_span.inner_start:is_span.inner_end] if is_span else None
    spans = {"is": is_span} if is_span else {}

    def invalid(reason: str) -> ParsedTurn:
        return ParsedTurn(is_segment, Invalid(reason), raw, spans)

    present = [name for name in ("query", "answer") if pairs[name] or name in mismatched]
    if len(present) != 1:
        return invalid("multiple_actions" if present else "no_action")
    name = present[0]
    if name in mismatched:
        return invalid("mismatched_tags")
    if len(pairs[name]) > 1:
        return invalid("multiple_actions")
    action_span = pairs[name][0]
    if is_span is not None and is_span.start < action_span.end and action_span.start < is_span.end:
        # Nesting across tag kinds is unsupported.
        return invalid("mismatched_tags")
    spans[name] = action_span
    inner = raw[action_span.inner_start:action_span.inner_end]
    action: Action = Query(inner.strip()) if name == "query" else Answer(inner.strip())
    return ParsedTurn(is_segment, action, raw, spans)


def render_turn(parsed: ParsedTurn, preset: TagPreset) -> str:
    """Serialize a parsed turn back to canonical tagged text.

    Only valid turns render; the output is IS block (when present) followed by
    the action block with no separators.
    """
    if isinstance(parsed.action, Invalid):
        raise ValueError(f"cannot render an invalid turn (reason: {parsed.action.reason})")
    parts = []
    if parsed.is_segment is not None:
        parts.append(f"{preset.is_open}{parsed.is_segment}{preset.is_close}")
    if isinstance(parsed.action, Query):
        parts.append(f"{preset.query_open}{parsed.action.text}{preset.query_close}")
    else:
        parts.append(f"{preset.answer_open}{parsed.action.text}{preset.answer_close}")
    return "".join(parts)


def split_answers(text: str) -> list[str]:
    """Split a multi-answer string on semicolons, trimming each part.

    Empty parts are preserved so positional scoring can detect count
    mismatches.
    """
    return [part.strip() for part in text.split(";")]
