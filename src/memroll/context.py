"""Per-turn context construction: what the policy sees at each step.

Two policies are supported. consolidate keeps the immutable head (prompt plus
question block) and at most one retained tuple from the previous turn, so the
rendered context stays bounded regardless of episode length. full_append is
the baseline that appends every turn verbatim.

The retained tuple stores the exact inner text of the previous turn's tag
blocks (not trimmed or re-flowed), so re-rendering a context reproduces the
string the policy actually saw, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import TagPreset, TokenCounter
from .tagparse import Answer, ParsedTurn, Query

__all__ = [
    "HINT_TEMPLATE",
    "Retained",
    "ContextState",
    "initial_state",
    "render_context",
    "advance",
    "inject_hint",
    "context_token_len",
]

HINT_TEMPLATE = "[HINT: YOU HAVE {turns_left} TURNS LEFT] "


@dataclass(frozen=True)
class Retained:
    """The single tuple carried across turns in consolidate mode.

    is_text is None when the turn carried no internal-state block.
    """

    is_text: str | None
    query_text: str
    info_text: str


@dataclass(frozen=True)
class ContextState:
    """Immutable snapshot of the context policy between turns."""

    head: str
    head_template: str
    preset: TagPreset
    mode: str
    turn_index: int = 0
    retained: Retained | None = None
    history: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("consolidate", "full_append"):
            raise ValueError(f"unknown context mode {self.mode!r}")


def initial_state(head: str, head_template: str, preset: TagPreset, mode: str) -> ContextState:
    """State before the first generation: the context is exactly the head."""
    return ContextState(head=head, head_template=head_template, preset=preset, mode=mode)


def _render_retained(retained: Retained, preset: TagPreset) -> str:
    parts = []
    if retained.is_text is not None:
        parts.append(f"{preset.is_open}{retained.is_text}{preset.is_close}")
    parts.append(f"{preset.query_open}{retained.query_text}{preset.query_close}")
    parts.append(f"{preset.info_open}{retained.info_text}{preset.info_close}")
    return "".join(parts)


def render_context(state: ContextState) -> str:
    """The exact prompt string handed to the policy for the next turn."""
    if state.mode == "consolidate":
        if state.retained is None:
            return state.head
        return state.head + _render_retained(state.retained, state.preset)
    return state.head + "".join(state.history)


def advance(state: ContextState, parsed: ParsedTurn, info: str | None) -> ContextState:
    """Fold one completed turn into the state.

    info is the (already hint-injected) environment feedback and must be given
    exactly for query turns. In consolidate mode a query turn replaces the
    retained tuple; an answer turn leaves it untouched. In full_append mode the
    turn text (and its tagged info block, for query turns) is appended.
    """
    preset = state.preset
    if isinstance(parsed.action, Query):
        if info is None:
            raise ValueError("query turns require environment feedback")
        query_inner = parsed.inner("query")
        if state.mode == "consolidate":
            return replace(
                state,
                turn_index=state.turn_index + 1,
                retained=Retained(parsed.is_segment, query_inner, info),
            )
        entry = parsed.raw + f"{preset.info_open}{info}{preset.info_close}"
        return replace(state, turn_index=state.turn_index + 1, history=state.history + (entry,))
    if not isinstance(parsed.action, Answer):
        raise ValueError("cannot advance over an invalid turn")
    if info is not None:
        raise ValueError("only query turns carry environment feedback")
    if state.mode == "consolidate":
        return replace(state, turn_index=state.turn_index + 1)
    return replace(state, turn_index=state.turn_index + 1, history=state.history + (parsed.raw,))


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
