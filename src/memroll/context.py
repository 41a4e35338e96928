"""Per-turn context construction: what the policy sees at each step.

Two policies are supported. consolidate keeps the immutable head (prompt plus
question block) and only the previous query turn's internal-state, query and
info blocks, so the rendered context stays bounded regardless of episode
length. full_append is the baseline that appends every turn verbatim.

Both keep the text after the head as one tail of pieces, cut from the exact
raw text the policy emitted (not trimmed or re-flowed), so re-rendering a
context reproduces the string the policy actually saw, byte for byte.
"""

from __future__ import annotations

from .core import TagPreset, TokenCounter, record, replace
from .tagparse import Answer, ParsedTurn, Query

__all__ = [
    "HINT_TEMPLATE",
    "ContextState",
    "initial_state",
    "render_context",
    "advance",
    "info_block",
    "inject_hint",
    "context_token_len",
]

HINT_TEMPLATE = "[HINT: YOU HAVE {turns_left} TURNS LEFT] "


@record
class ContextState:
    """Immutable snapshot of the context policy between turns."""

    head: str
    head_template: str
    preset: TagPreset
    mode: str
    turn_index: int = 0
    tail: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("consolidate", "full_append"):
            raise ValueError(f"unknown context mode {self.mode!r}")


def initial_state(head: str, head_template: str, preset: TagPreset, mode: str) -> ContextState:
    """State before the first generation: the context is exactly the head."""
    return ContextState(head=head, head_template=head_template, preset=preset, mode=mode)


def render_context(state: ContextState) -> str:
    """The exact prompt string handed to the policy for the next turn."""
    return state.head + "".join(state.tail)


def advance(state: ContextState, parsed: ParsedTurn, info: str | None) -> ContextState:
    """Fold one completed turn into the state.

    info is the (already hint-injected) environment feedback and must be given
    exactly for query turns. In consolidate mode a query turn replaces the
    tail with its is and query blocks, in that order, and its info block; an
    answer turn leaves the tail untouched. In full_append mode the turn text
    (and its info block, for query turns) is appended to the tail.
    """
    consolidate = state.mode == "consolidate"
    if isinstance(parsed.action, Query):
        if info is None:
            raise ValueError("query turns require environment feedback")
        block = info_block(info, state.preset)
        if consolidate:
            spans = [parsed.spans[name] for name in ("is", "query") if name in parsed.spans]
            tail = tuple(parsed.raw[s.start : s.end] for s in spans) + (block,)
        else:
            tail = state.tail + (parsed.raw, block)
    elif isinstance(parsed.action, Answer):
        if info is not None:
            raise ValueError("only query turns carry environment feedback")
        tail = state.tail if consolidate else state.tail + (parsed.raw,)
    else:
        raise ValueError("cannot advance over an invalid turn")
    return replace(state, turn_index=state.turn_index + 1, tail=tail)


def info_block(info: str | None, preset: TagPreset) -> str:
    """Environment feedback as a context holds it, framed by the info tags ("" for none)."""
    return "" if info is None else preset.info_open + info + preset.info_close


def inject_hint(info: str, turns_left: int, enabled: bool = True) -> str:
    """Prefix environment feedback with the remaining-turn banner."""
    if not enabled:
        return info
    return HINT_TEMPLATE.format(turns_left=turns_left) + info


def context_token_len(state: ContextState, counter: TokenCounter) -> int:
    """Token length of the rendered context, excluding the prompt template.

    The question block and everything the episode accumulated count; the fixed
    instruction text does not.
    """
    return counter.count(render_context(state)) - counter.count(state.head_template)
