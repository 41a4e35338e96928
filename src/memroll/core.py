"""Shared domain types: tasks, tag presets, rollout configuration, token counting.

Everything downstream (context rendering, rollouts, masks, metrics) builds on the
types in this module. The built-in token counter is intentionally simple and
deterministic so that token-denominated measurements are reproducible across
machines and runs.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import NoneType
from typing import Protocol, Sequence, get_args, get_type_hints, runtime_checkable

__all__ = [
    "ConfigError",
    "DataError",
    "IntegrityError",
    "ValidationError",
    "ENV_KINDS",
    "Task",
    "TagPreset",
    "PAPER_BODY",
    "PROMPT_STYLE",
    "PRESETS",
    "rename_tags",
    "TokenCounter",
    "WordTokenizer",
    "DEFAULT_COUNTER",
    "segment_text",
    "RolloutConfig",
    "config_from_mapping",
    "load_config",
    "default_max_turns",
    "iter_jsonl",
]


class ConfigError(ValueError):
    """A config file could not be parsed, or names an unknown key."""


class ValidationError(ValueError):
    """A value violates a documented invariant."""


class DataError(ValueError):
    """A dataset, corpus, catalog, or archive file is malformed."""


class IntegrityError(RuntimeError):
    """Recorded state and re-derived state disagree (refusing to proceed)."""


ENV_KINDS = ("retrieval_qa", "web_search_qa", "shop")


@dataclass(frozen=True)
class Task:
    """One atomic unit of work: a question plus acceptable gold answers.

    gold_answers holds one inner list of acceptable variants per sub-question;
    scoring takes the best variant per sub-question.
    """

    id: str
    question: str
    gold_answers: tuple[tuple[str, ...], ...]
    env_kind: str = "retrieval_qa"

    def __post_init__(self) -> None:
        object.__setattr__(self, "gold_answers", _freeze_gold(self.gold_answers))
        if not self.gold_answers or any(not v for v in self.gold_answers):
            raise ValidationError(f"task {self.id!r}: gold_answers must be non-empty")
        if self.env_kind not in ENV_KINDS:
            raise ValidationError(f"task {self.id!r}: unknown env_kind {self.env_kind!r}")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "question": self.question,
            "golden_answers": [list(v) for v in self.gold_answers],
            "env_kind": self.env_kind,
        }


def _freeze_gold(gold) -> tuple[tuple[str, ...], ...]:
    """Normalize a golden_answers payload.

    A flat list of strings is the variant set of a single answer; a list of
    lists gives one variant list per answer part. A bare string inside a
    mixed list still becomes its own single-variant part.
    """
    if isinstance(gold, str):
        return ((gold,),)
    entries = list(gold)
    if entries and all(isinstance(e, str) for e in entries):
        return (tuple(entries),)
    out: list[tuple[str, ...]] = []
    for entry in entries:
        if isinstance(entry, str):
            out.append((entry,))
        else:
            out.append(tuple(str(v) for v in entry))
    return tuple(out)


@dataclass(frozen=True)
class TagPreset:
    """The four tag pairs a policy uses to structure a turn.

    Two vocabularies ship built in: ``paper_body`` (IS/query/answer/info)
    and ``prompt_style`` (think/search/answer/information). All eight
    strings must be distinct and non-empty within a preset.
    """

    name: str
    is_open: str
    is_close: str
    query_open: str
    query_close: str
    answer_open: str
    answer_close: str
    info_open: str
    info_close: str

    def __post_init__(self) -> None:
        tags = self.all_tags()
        if len(set(tags)) != 8 or any(not t for t in tags):
            raise ValidationError(f"preset {self.name!r}: tags must be 8 distinct non-empty strings")

    def all_tags(self) -> tuple[str, ...]:
        # Every field after name is a tag, in open/close pairs.
        return tuple(getattr(self, f.name) for f in fields(self)[1:])


PAPER_BODY = TagPreset(
    name="paper_body",
    is_open="<IS>", is_close="</IS>",
    query_open="<query>", query_close="</query>",
    answer_open="<answer>", answer_close="</answer>",
    info_open="<info>", info_close="</info>",
)

PROMPT_STYLE = TagPreset(
    name="prompt_style",
    is_open="<think>", is_close="</think>",
    query_open="<search>", query_close="</search>",
    answer_open="<answer>", answer_close="</answer>",
    info_open="<information>", info_close="</information>",
)

PRESETS: dict[str, TagPreset] = {p.name: p for p in (PAPER_BODY, PROMPT_STYLE)}


def rename_tags(text: str, source: TagPreset, target: TagPreset) -> str:
    """Rewrite every source-vocabulary tag in text to the target vocabulary.

    Replacement happens in a single pass, so emitted target tags are never
    rescanned. Renaming a text to another preset and back is the identity as
    long as the text only carries source-vocabulary tags.
    """
    mapping = dict(zip(source.all_tags(), target.all_tags()))
    # Longest-first so no tag can shadow another that it prefixes.
    pattern = re.compile("|".join(re.escape(t) for t in sorted(mapping, key=len, reverse=True)))
    return pattern.sub(lambda m: mapping[m.group(0)], text)


# Lossless segmentation: whitespace runs, word runs, and single other chars.
# Every character lands in exactly one segment, so joining the segments
# reproduces the input byte for byte.
_SCAN = re.compile(r"\s+|\w+|\W", re.UNICODE)


def segment_text(text: str) -> list[str]:
    """Split text into token segments (word runs, punctuation chars, whitespace runs)."""
    return _SCAN.findall(text)


# The same rule as character classes: a token is a maximal whitespace run, a
# maximal word run, or one other character. No character is both \s and \w.
_SPACE, _WORD, _OTHER = 0, 1, 2


def _char_class(ch: str) -> int:
    if re.fullmatch(r"\s", ch):
        return _SPACE
    return _WORD if re.fullmatch(r"\w", ch) else _OTHER


@functools.cache
def _ascii_classes():
    import numpy as np

    return np.array([_char_class(chr(c)) for c in range(128)], dtype=np.uint8)


@runtime_checkable
class TokenCounter(Protocol):
    """Counts, encodes, and decodes text deterministically.

    encode/decode must round-trip byte-identically and count(text) must equal
    len(encode(text)). Implementations are free to be stateful (interning
    vocabularies) but must stay deterministic for a fixed call sequence.
    """

    name: str

    def count(self, text: str) -> int: ...

    def encode(self, text: str) -> list[int]: ...

    def decode(self, ids: Sequence[int]) -> str: ...


class WordTokenizer:
    """The built-in counter: splits on whitespace and punctuation, keeping both.

    Word runs are single tokens, punctuation marks are single-char tokens, and
    whitespace runs are kept as tokens so decoding restores the exact input.
    Ids are interned in first-seen order, which makes a fresh instance fully
    deterministic for a fixed sequence of texts. Instances are not thread-safe;
    use one per worker.
    """

    name = "wordpunct-intern-1"

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []

    def count(self, text: str) -> int:
        """len(encode(text)), without building the segments.

        A token starts at every character that is "other" or whose class
        differs from the previous character's. ASCII is classified by table,
        the distinct non-ASCII code points by the same two regexes.
        """
        if not text:
            return 0
        import numpy as np  # here, so that commands which never count never load it

        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        classes = _ascii_classes().take(codes, mode="clip")  # code points >= 128 fixed below
        wide = np.flatnonzero(codes >= 128)
        if wide.size:
            distinct, where = np.unique(codes[wide], return_inverse=True)
            table = np.array([_char_class(chr(c)) for c in distinct.tolist()], dtype=np.uint8)
            classes[wide] = table[where]
        cur, prev = classes[1:], classes[:-1]
        return 1 + int(np.count_nonzero((cur == _OTHER) | (cur != prev)))

    def encode(self, text: str) -> list[int]:
        ids = self._ids
        out: list[int] = []
        for tok in _SCAN.findall(text):
            idx = ids.get(tok)
            if idx is None:
                idx = len(self._tokens)
                ids[tok] = idx
                self._tokens.append(tok)
            out.append(idx)
        return out

    def decode(self, ids: Sequence[int]) -> str:
        try:
            return "".join(map(self._tokens.__getitem__, ids))
        except IndexError:
            raise ValueError("unknown token id passed to decode") from None

    def vocab_size(self) -> int:
        return len(self._tokens)


DEFAULT_COUNTER = WordTokenizer()


def default_max_turns(objective_count: int) -> int:
    """Turn budget by task size: 6 turns for up to 4 objectives, 20 beyond."""
    return 6 if objective_count <= 4 else 20


def iter_jsonl(path: str | Path):
    """Yield (line_number, object) pairs from a JSONL file.

    Blank lines are skipped; a bad line raises DataError naming it, as does
    text that is not UTF-8.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path} line {lineno}: invalid JSON ({exc})") from None
                if not isinstance(obj, dict):
                    raise DataError(f"{path} line {lineno}: expected a JSON object")
                yield lineno, obj
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


@dataclass(frozen=True)
class RolloutConfig:
    """Knobs for one rollout run.

    temperature and the policy_* fields only matter for the HTTP policy
    backend; scripted backends ignore them.
    """

    max_turns: int = 6
    tag_preset: str = "paper_body"
    retrieval_k: int = 3
    mode: str = "consolidate"
    hint_enabled: bool = True
    max_tokens_per_generation: int = 1024
    seed: int = 0
    temperature: float = 0.01
    policy_url: str | None = None
    policy_api_style: str = "completions"
    policy_model: str | None = None
    api_key_env: str = "MEMROLL_API_KEY"

    def __post_init__(self) -> None:
        if self.max_turns < 1:
            raise ValidationError("max_turns must be >= 1")
        if self.retrieval_k < 1:
            raise ValidationError("retrieval_k must be >= 1")
        if self.max_tokens_per_generation < 1:
            raise ValidationError("max_tokens_per_generation must be >= 1")
        if self.tag_preset not in PRESETS:
            raise ValidationError(f"unknown tag_preset {self.tag_preset!r}")
        if self.mode not in ("consolidate", "full_append"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")
        if self.policy_api_style not in ("completions", "chat"):
            raise ValidationError(f"unknown policy_api_style {self.policy_api_style!r}")

    @property
    def preset(self) -> TagPreset:
        return PRESETS[self.tag_preset]

    @property
    def stop_markers(self) -> tuple[str, str]:
        return (self.preset.query_close, self.preset.answer_close)

    def stop_markers_for(self, turn_index: int) -> tuple[str, ...]:
        """Stop markers for a zero-indexed turn.

        The final turn drops the query close marker so the policy cannot be
        halted mid-turn by a search it is no longer allowed to make.
        """
        if turn_index >= self.max_turns - 1:
            return (self.preset.answer_close,)
        return self.stop_markers

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_overrides(self, **kwargs) -> "RolloutConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# Each config key's type comes from its RolloutConfig annotation: a key is
# nullable when None is one of the hint's arguments, and is coerced with the
# hint's other type.
_FIELD_HINTS = get_type_hints(RolloutConfig)
_NULLABLE_KEYS = {key for key, hint in _FIELD_HINTS.items() if NoneType in get_args(hint)}
_CONFIG_COERCERS = {
    key: next((arg for arg in get_args(hint) if arg is not NoneType), hint)
    for key, hint in _FIELD_HINTS.items()
}


def _coerce(key: str, value) -> object:
    if value is None:
        if key in _NULLABLE_KEYS:
            return None
        raise ConfigError(f"config key {key!r}: null is not a valid value")
    kind = _CONFIG_COERCERS[key]
    if kind is bool:
        if isinstance(value, bool):
            return value
        word = str(value).strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"config key {key!r}: expected a boolean, got {value!r}")
        return _BOOL_WORDS[word]
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot coerce {value!r}") from None


def config_from_mapping(data: dict) -> RolloutConfig:
    """Build a RolloutConfig from a plain mapping, rejecting unknown keys."""
    kwargs = {}
    for key, value in data.items():
        if key not in _CONFIG_COERCERS:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, value)
    return RolloutConfig(**kwargs)


def load_config(path: str | Path) -> RolloutConfig:
    """Load a rollout config from key=value lines or a JSON object.

    Key=value is the primary format: one pair per line, # comments and blank
    lines ignored. A file whose first non-space character is '{' is read as a
    JSON object with the same keys. An empty file yields the defaults.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: not UTF-8 text ({exc})") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config {path}: JSON body must be an object")
        return config_from_mapping(data)
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config {path} line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return config_from_mapping(data)
