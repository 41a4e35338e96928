"""Parsing and rendering of tagged policy turns.

A well-formed turn is an optional internal-state block followed by exactly one
action block, either a query or an answer. Tag matching is exact
string matching, case sensitive, with no nesting support: nested or overlapping
tag pairs invalidate the action. Text outside recognized tags never affects
control flow but is preserved in raw.
"""

from __future__ import annotations

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


def _marker_positions(raw: str, marker: str) -> list[int]:
    """Non-overlapping left-to-right occurrences of marker in raw."""
    out = []
    start = 0
    while True:
        idx = raw.find(marker, start)
        if idx < 0:
            return out
        out.append(idx)
        start = idx + len(marker)


def _scan_pairs(raw: str, open_tag: str, close_tag: str) -> tuple[list[Span], bool]:
    """Pair up open/close markers in positional order.

    Returns (well-formed spans, mismatched flag). A close without a pending
    open, an open while another is pending (nesting), or a dangling open all
    set the mismatched flag.
    """
    events = sorted(
        [(pos, "open") for pos in _marker_positions(raw, open_tag)]
        + [(pos, "close") for pos in _marker_positions(raw, close_tag)]
    )
    spans: list[Span] = []
    pending: int | None = None
    mismatched = False
    for pos, kind in events:
        if kind == "open":
            if pending is not None:
                mismatched = True
            pending = pos
        else:
            if pending is None:
                mismatched = True
                continue
            spans.append(Span(pending, pos + len(close_tag), pending + len(open_tag), pos))
            pending = None
    if pending is not None:
        mismatched = True
    return spans, mismatched


def _overlaps(a: Span, b: Span) -> bool:
    return a.start < b.end and b.start < a.end


def parse_turn(raw: str, preset: TagPreset) -> ParsedTurn:
    """Parse one generated turn. Never raises: malformed input yields Invalid.

    Validity is decided by the action tags alone. The internal-state block is
    extracted best effort (first well-formed pair) and may be present on
    invalid turns too.
    """
    is_spans, _ = _scan_pairs(raw, preset.is_open, preset.is_close)
    is_span = is_spans[0] if is_spans else None
    is_segment = raw[is_span.inner_start:is_span.inner_end] if is_span else None

    q_spans, q_bad = _scan_pairs(raw, preset.query_open, preset.query_close)
    a_spans, a_bad = _scan_pairs(raw, preset.answer_open, preset.answer_close)
    q_present = q_spans or q_bad
    a_present = a_spans or a_bad

    spans: dict[str, Span] = {}
    if is_span is not None:
        spans["is"] = is_span

    def invalid(reason: str) -> ParsedTurn:
        return ParsedTurn(is_segment, Invalid(reason), raw, spans)

    if q_present and a_present:
        return invalid("multiple_actions")
    if not q_present and not a_present:
        return invalid("no_action")
    name, tag_spans, bad = ("query", q_spans, q_bad) if q_present else ("answer", a_spans, a_bad)
    if bad:
        return invalid("mismatched_tags")
    if len(tag_spans) > 1:
        return invalid("multiple_actions")
    action_span = tag_spans[0]
    if is_span is not None and _overlaps(is_span, action_span):
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
