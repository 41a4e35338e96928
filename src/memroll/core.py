"""Shared domain types: tasks, tag presets, rollout configuration, token counting.

Everything downstream (context rendering, rollouts, masks, metrics) builds on the
types in this module. The built-in token counter is intentionally simple and
deterministic so that token-denominated measurements are reproducible across
machines and runs.
"""

from __future__ import annotations

import functools
import io
import json
import re
from itertools import permutations
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType, NoneType
from typing import Mapping, Protocol, Sequence, get_args, get_type_hints, runtime_checkable

__all__ = [
    "record",
    "replace",
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


def _frozen_setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Make cls a frozen value type, as @dataclass(frozen=True) would, without
    importing dataclasses (and with it inspect) in every process.

    The fields are the annotations cls itself declares, in order, and a
    field's class attribute is its default, unless it is a data descriptor
    (one with __set__), which then stores the field. cls gains _fields (the
    field names); an __init__ taking the fields as arguments, which then calls
    __post_init__ when cls has one; a __repr__ in the dataclass form; an
    __eq__ that compares the field values of two instances of the same class
    and returns NotImplemented for anything else; a __hash__ of the tuple of
    field values; and __setattr__ and __delattr__ that raise AttributeError.
    A method cls defines itself is kept. Instances pickle and copy, and
    replace builds a changed copy.

    Only __init__ is compiled from source generated per class, as dataclasses
    does, so that constructing costs no more than a hand-written __init__;
    the other methods share one attrgetter of the fields.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {
        f"_d_{n}": cls.__dict__[n] for n in names
        if n in cls.__dict__ and not hasattr(type(cls.__dict__[n]), "__set__")
    }
    params = ", ".join(f"{n}=_d_{n}" if f"_d_{n}" in defaults else n for n in names)
    source = "\n".join([
        f"def __init__(self, {params}):",
        *(f"    _set(self, {n!r}, {n})" for n in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
    ])
    namespace = {"_set": object.__setattr__, **defaults}
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)

    if len(names) > 1:
        values = attrgetter(*names)
    else:  # attrgetter gives a lone field's value bare, and needs a name

        def values(obj) -> tuple:
            return tuple(getattr(obj, n) for n in names)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, names, values(self)))})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    for method in (namespace["__init__"], __repr__, __eq__, __hash__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls._fields = names
    return cls


def replace(obj, /, **changes):
    """A copy of the record obj with the fields named in changes set to new
    values. It is built through __init__, so __post_init__ checks it again;
    a name that is not a field raises TypeError."""
    for name in obj._fields:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


ENV_KINDS = ("retrieval_qa", "web_search_qa", "shop")


@record
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


@record
class TagPreset:
    """The four tag pairs a policy uses to structure a turn.

    Two vocabularies ship built in: ``paper_body`` (IS/query/answer/info)
    and ``prompt_style`` (think/search/answer/information). All eight
    strings must be distinct and non-empty within a preset, and no two
    occurrences of them can overlap in text: no tag lies inside another, and
    no tag ends with the start of a tag, itself included. So one
    left-to-right scan finds every occurrence of every tag.
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
        starts = {t[:k] for t in tags for k in range(1, len(t))}
        ends = {t[-k:] for t in tags for k in range(1, len(t))}
        if starts & ends or any(a in b for a, b in permutations(tags, 2)):
            raise ValidationError(f"preset {self.name!r}: tags can overlap in text (a tag lies inside "
                                  "another, or ends with the start of a tag)")

    def all_tags(self) -> tuple[str, ...]:
        # Every field after name is a tag, in open/close pairs.
        return tuple(getattr(self, name) for name in self._fields[1:])

    @functools.lru_cache(maxsize=16)
    def scanner(self) -> tuple[re.Pattern[str], Mapping[str, str]]:
        """A pattern matching any of the eight tags, and each tag's field
        name, such as ``is_open``; kept for the last 16 presets scanned. The
        pattern holds no groups: with them, re no longer skips ahead to the
        tags' first characters, and a scan of a generated turn took 50 times
        as long."""
        fields = dict(zip(self.all_tags(), self._fields[1:]))
        return re.compile("|".join(map(re.escape, fields))), MappingProxyType(fields)


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

    Replacement happens in the source preset's single scan, so emitted target
    tags are never rescanned. Renaming a text to another preset and back is
    the identity whenever every target tag in the text is also a source tag.
    """
    pattern, fields = source.scanner()
    return pattern.sub(lambda tag: getattr(target, fields[tag.group()]), text)


# Lossless segmentation: whitespace runs, word runs, and single other chars.
# Every character lands in exactly one segment, so joining the segments
# reproduces the input byte for byte.
_SCAN = re.compile(r"\s+|\w+|\W", re.UNICODE)


def segment_text(text: str) -> list[str]:
    """Split text into token segments (word runs, punctuation chars, whitespace runs)."""
    return _SCAN.findall(text)


# Each ASCII character's class under _SCAN: "s" for whitespace (\x1c-\x1f
# included), "w" for word characters, "o" for the rest; indexed by code point,
# it is a str.translate table.
_CLASSES = "".join(
    "s" if c.isspace() else "w" if c.isalnum() or c == "_" else "o" for c in map(chr, range(128))
)


def _count(text: str) -> int:
    """len(_SCAN.findall(text)), without the list for ASCII text.

    An ASCII text's token count is its count of other characters plus the
    starts of its whitespace and word runs. Translated to classes, a run
    starts at the first character or after a character of another class, and
    none of the two-character needles counted can overlap itself.
    """
    if text.isascii():
        c = text.translate(_CLASSES)
        return (c.count("o") + c.count("ow") + c.count("sw") + c.count("os") + c.count("ws")
                + c.startswith(("s", "w")))
    return len(_SCAN.findall(text))


@runtime_checkable
class TokenCounter(Protocol):
    """Counts, encodes, and decodes text deterministically.

    encode/decode must round-trip byte-identically and count(text) must equal
    len(encode(text)). Implementations are free to be stateful (interning
    vocabularies) but must stay deterministic for a fixed call sequence.
    WordTokenizer.count keeps the last text it counted, as one tuple replaced
    whole, so concurrent calls stay exact and a shared counter holds one
    string; a text that extends that one costs only what it adds, and ASCII
    text is counted from its character classes, with no scan.
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
    deterministic for a fixed sequence of texts. count is safe to call from
    several threads; encode is not, so encode with one instance per worker.
    """

    name = "wordpunct-intern-1"

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        self._last: tuple[str, int] = ("", 0)

    def count(self, text: str) -> int:
        """len(encode(text)), counting only what text adds to the last text counted.

        The counter keeps the last (text, count) as one tuple, replaced whole,
        so concurrent calls stay exact and a shared counter holds one string.
        A text that extends the last one is counted from the last one's
        final character on: that piece holds one token more than the
        extension adds, whether or not the join falls in one run (whitespace
        or word). Any other text is counted whole. ASCII text is counted
        from its character classes, without the segmenting scan.
        """
        last, n = self._last
        if last and text.startswith(last):
            n += _count(text[len(last) - 1:]) - 1
        else:
            n = _count(text)
        self._last = (text, n)
        return n

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


def jsonl_lines(path: str | Path, data: bytes | None = None):
    """Yield (line_number, line) for each non-blank line of a JSONL file,
    stripped of whitespace (str.strip).

    Lines end as in text mode: at \\n, \\r\\n or a lone \\r. A UTF-8
    byte-order mark at the start of the file is dropped; text that is not
    UTF-8 raises DataError. data, when given, is the file's content already
    read: it is split exactly as the file would be, and path only names it
    in errors.
    """
    path = Path(path)
    try:
        if data is None:
            handle = path.open(encoding="utf-8-sig")
        else:
            handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
        with handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def iter_jsonl(path: str | Path):
    """Yield (line_number, object) pairs from a JSONL file.

    Blank lines are skipped; a bad line raises DataError naming it, as does
    text that is not UTF-8.
    """
    for lineno, line in jsonl_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} line {lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path} line {lineno}: expected a JSON object")
        yield lineno, obj


def _typed(data: dict, kinds: dict) -> None:
    """Refuse data with DataError unless it is an object whose keys named in
    kinds hold one of the types given for them. A JSON true or false is of
    no type but bool, so it is never a number."""
    if not isinstance(data, dict):
        raise DataError(f"expected a JSON object, got {type(data).__name__}")
    for key, kind in kinds.items():
        if key in data and (not isinstance(data[key], kind) or type(data[key]) is bool):
            raise DataError(f"{key} holds {type(data[key]).__name__}")


@record
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
        return {name: getattr(self, name) for name in self._fields}

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
