"""Stitch episode records into one token sequence with attention and loss masks.

Training on consolidation-style rollouts needs a single stitched sequence in
which every generated token attends to exactly the tokens it could see when it
was sampled. A sequence is held as its turns, the head being turn 0: turn t
holds tokens [bounds[t], bounds[t + 1]), the first gens[t] of them generated,
and saw the (start, end) index ranges bases[t]. There is one visibility rule:
row k is its turn's base plus the earlier tokens of its own turn. stitch()
alone decides each turn's base: turn 1 sees the head; a later turn sees the
head plus the previous turn's is/query runs and info block (consolidate) or
everything before it (full_append). The ranges are the mask: build_masks()
gives the sequence's own, a container of any format is read back as ranges,
and dense rows are built only when asked for. One check holds a sequence to
its records: per turn, the base decodes to the context snapshot, the leading
generated tokens to the generation and the rest to the info block. stitch()
emits nothing that fails it; verify_masks() runs it on a given sequence.

Token positions restart per rollout-time context: a generated token's position
is its index within the context the policy actually saw, not within the
stitched sequence. So the per-token columns turn_of, generated (the loss) and
positions follow from the turns, token k of turn t at position
|base_t| + k - bounds[t], and a sequence derives them on first access: they
cannot disagree with its turns. Every run of positions is a slice of one
ramp, 0, 1, 2, ..., that the module keeps.

The per-token columns (and Mask1D.loss) are held packed, as memoryviews in
native order, so stitch, build_masks, verify_masks, and export_masks and
import_masks with ranges or index_list run on the standard library alone.
Reading a column as an attribute gives an np.ndarray of its documented dtype,
a view of the packed column built on first access and kept; that,
Mask2D.words, visible_tokens and dense_bitpack are what import numpy.

The export container is binary: magic MEM1MASK, a little-endian u16 version,
a u32 header length, a JSON header {n, counter_id, format, sha256}, then the
payload. The header is the canonical (sort_keys) JSON of exactly those four
fields. The sha256 covers the canonical JSON of the other three header fields
followed by the payload as stored (from version 4 the u16 version first), so
no byte of a container can change unnoticed (version 1 containers, whose
sha256 covers the payload alone, are still read). The payload comes in one of
three formats:

- ranges (version 6, the default): the version 5 payload below, stored as
  one raw DEFLATE stream (RFC 1951, no zlib header or checksum) at level 1.
  The hash covers the deflated bytes, so nothing is inflated before it is
  checked; a stream that is not DEFLATE, does not end, or has bytes after
  it is refused. The version 5 payload is the sequence as it is held, each
  part at the narrowest width it needs. A width-coded field is a u8 width
  code, 1, 2 or 4, then its values little-endian at that width, the
  narrowest that holds them all. First the token ids, width-coded; then the
  segments as runs: a u32 run count, that many u8 codes and the runs'
  lengths, width-coded; then a u32 turn count, and for each turn its u32
  token count, its u32 count of leading generated tokens, a u32 range count
  and that many u32 (start, end) pairs, its base ranges. Last the string
  table: a u32 count, the entries' lengths in code points, width-coded, then
  their texts joined, UTF-8 to the end of the payload (lone surrogates pass
  through), where entry i is the text of token id i. The container thus
  decodes without the counter that made it. Version 5, still read, stored
  that payload as it is; version 4 stored ids as i32, segments u8 per token
  and the table's byte lengths as u32; version 3 held every column as the
  dense formats do, and each turn's range count and ranges alone.
- dense_bitpack (version 2): the columns tokens i32, positions i32, loss u8,
  segments u8, turn_of u16, then ceil(n/64) little-endian u64 words per
  token, bit i of word w covering token 64*w+i.
- index_list (version 2): the same columns, then per token a u32 count
  followed by that many ascending u32 indices.

A container that stores turn_of, loss and positions is read back as turns,
from turn_of and each turn's leading run of loss 1s, and its stored columns
must be the ones the turns derive. A dense container's turn bases are the
runs of each turn's first row, and each later row must be the previous row
plus one token.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .archive import TrajectoryRecord
from .context import HINT_TEMPLATE, info_block
from .core import DataError, IntegrityError, TokenCounter, record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SEGMENT_CODES",
    "SEGMENT_NAMES",
    "StitchedTrajectory",
    "Mask2D",
    "Mask1D",
    "stitch",
    "build_masks",
    "visible_tokens",
    "verify_masks",
    "export_masks",
    "import_masks",
    "MAGIC",
    "FORMAT_VERSION",
    "RANGES_VERSION",
    "FORMATS",
]

SEGMENT_NAMES = ("head", "is", "query", "answer", "info", "hint", "glue")
SEGMENT_CODES = {name: i for i, name in enumerate(SEGMENT_NAMES)}

_HEAD = SEGMENT_CODES["head"]
_IS = SEGMENT_CODES["is"]
_QUERY = SEGMENT_CODES["query"]
_ANSWER = SEGMENT_CODES["answer"]
_INFO = SEGMENT_CODES["info"]
_HINT = SEGMENT_CODES["hint"]
_GLUE = SEGMENT_CODES["glue"]

_HINT_RE = re.compile(
    re.escape(HINT_TEMPLATE).replace(re.escape("{turns_left}"), r"\d+")
)

MAGIC = b"MEM1MASK"
FORMAT_VERSION = 2  # dense_bitpack and index_list containers
RANGES_VERSION = 6  # ranges containers
# The container versions each mask format is read from; export writes the last.
# Pairing them means a version byte flipped between 2 and 3, which the hash
# cannot see before version 4, is still refused.
_VERSIONS = {
    "ranges": (3, 4, 5, RANGES_VERSION),
    "dense_bitpack": (1, FORMAT_VERSION),
    "index_list": (1, FORMAT_VERSION),
}
FORMATS = tuple(_VERSIONS)  # the default first
_PREFIX = struct.Struct("<HI")  # version, header length
# From ranges version 6 the payload is stored as one raw DEFLATE stream
# (RFC 1951, no zlib header) at level 1. On the eight seed-9 long_append
# containers level 6 saved 9% more (88,289 bytes against 97,438, from
# 246,796) but took 14.9 ms to export them against 5.6 (best of 15, 2-CPU
# Xeon VM, zlib 1.2.13).
_DEFLATE_LEVEL = 1
_HEADER_TYPES = {"counter_id": str, "format": str, "n": int, "sha256": str}
# turn_of numbers turns in u16, so a sequence holds the head and this many turns.
_MAX_TURNS = (1 << 16) - 1
_SEGMENT_BYTES = bytes(range(len(SEGMENT_NAMES)))  # the codes that name a segment
# A run of one segment code; a byte that names no segment is a run of its own.
# (.)\1* would do, but its back-reference matches a byte at a time: over the
# segments of the eight seed-9 long_append sequences it took 1.8 ms to this 0.4.
_RUN = re.compile(b"|".join(b"%c+" % code for code in _SEGMENT_BYTES) + b"|.", re.S)

# The container is little-endian; packed columns are held in native order, so
# a big-endian host byteswaps them on the way in and out.
_SWAP = sys.byteorder == "big"

# The ramp 0, 1, 2, ...: every run of positions is a slice of it. It grows by
# binding a longer array in its place, never by resizing the one bound, which
# another thread may still be slicing (and an array with an exported
# memoryview cannot be resized). Each caller slices the array it read or
# built, so two threads growing it at once cost at most a rebuild.
_RAMP = array("i")


def _ramp(n: int) -> memoryview:
    """The ramp, at least n long."""
    global _RAMP
    ramp = _RAMP
    if len(ramp) < n:
        ramp = _RAMP = array("i", range(max(n, 2 * len(ramp))))
    return memoryview(ramp)


def _derive(
    bounds: Sequence[int], gens: Sequence[int], bases: Sequence[tuple[tuple[int, int], ...]]
) -> tuple[memoryview, memoryview, memoryview]:
    """The turn_of, generated and positions columns, packed and read-only, of
    a sequence whose turn t holds tokens [bounds[t], bounds[t + 1]), the
    first gens[t] of them generated, and sees bases[t]."""
    turn_of, generated, positions = [], [], []
    for t, (base, a, b, g) in enumerate(zip(bases, bounds, bounds[1:], gens)):
        m = sum(e - s for s, e in base)  # token k's position is m + k - a
        turn_of.append(array("H", (t,)) * (b - a))
        generated += (b"\x01" * g, bytes(b - a - g))
        positions.append(_ramp(m + b - a)[m : m + b - a])
    return (
        memoryview(b"".join(turn_of)).cast("H"),
        memoryview(b"".join(generated)),
        memoryview(b"".join(positions)).cast("i"),
    )


class _Column:
    """A per-token column of a record, held packed and read through numpy.

    The packed column is a memoryview of native items of format fmt, which
    is the container's layout: an array.array, a slice of an imported
    container, or a column derived from a sequence's turns. Reading the
    attribute gives np.frombuffer(packed, dtype), built on first access and
    kept, so it shares memory with the packed column. Assigning takes a
    memoryview or array.array of format fmt as it is, and anything else (an
    np.ndarray, a list) converted to dtype by numpy.
    """

    def __init__(self, fmt: str, dtype: str) -> None:
        self.fmt, self.dtype = fmt, dtype

    def __set_name__(self, owner: type, name: str) -> None:
        self.name, self.packed = name, "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        view = obj.__dict__.get(self.name)
        if view is None:
            import numpy as np

            view = obj.__dict__[self.name] = np.frombuffer(_packed(obj, self.name), self.dtype)
        return view

    def __set__(self, obj, value) -> None:
        try:
            packed = memoryview(value)
        except TypeError:
            packed = None
        if packed is None or packed.format != self.fmt or packed.ndim != 1 or not packed.c_contiguous:
            import numpy as np

            packed = memoryview(np.ascontiguousarray(value, self.dtype)).cast("B").cast(self.fmt)
        obj.__dict__[self.packed] = packed
        obj.__dict__.pop(self.name, None)


def _packed(obj, name: str) -> memoryview:
    """The packed column behind a _Column attribute, read without numpy. A
    sequence derives turn_of, generated and positions together, on the first
    access to any of them."""
    packed = obj.__dict__.get("_" + name)
    if packed is None:  # threads deriving at once build equal columns; any set kept will do
        derived = _derive(obj.bounds, obj.gens, obj.bases)
        obj.__dict__.update(zip(("_turn_of", "_generated", "_positions"), derived))
        packed = obj.__dict__["_" + name]
    return packed


def _reduce(obj):
    # Pickle and deepcopy by the field values: a memoryview cannot be pickled.
    return type(obj), tuple(getattr(obj, name) for name in obj._fields)


def _eq(self, other):
    # Field by field, a column by its packed items: a memoryview compare, in
    # C and without numpy, where an np.ndarray's == gives no truth value.
    if other.__class__ is not self.__class__:
        return NotImplemented
    cls = type(self)
    return all(
        _packed(self, name) == _packed(other, name)
        if isinstance(getattr(cls, name, None), _Column)
        else getattr(self, name) == getattr(other, name)
        for name in self._fields
    )


@record
class StitchedTrajectory:
    """One episode as a flat token sequence, held as its turns.

    Turn t, the head being turn 0, holds tokens [bounds[t], bounds[t + 1]),
    the first gens[t] of them generated, and saw bases[t], (start, end) index
    ranges, as its context; bases[0] = (). strings is the string table:
    strings[i] is the text of token id i ("" for ids the sequence does not
    use), None for sequences imported from dense_bitpack or index_list
    containers, which carry none.

    tokens and segments are held packed and read as np.ndarray views of the
    dtypes below, built on first access (which imports numpy) and kept; those
    of an imported sequence are views of the container, read-only when it is
    bytes. turn_of (0 for head tokens, 1-based for turn tokens), generated
    and positions (rollout-context-local) are not fields: they are derived
    from the turns on first access, read-only. The constructor and
    memroll.core.replace take numpy arrays. Like every record it is frozen.
    """

    tokens: np.ndarray = _Column("i", "int32")
    segments: np.ndarray = _Column("B", "uint8")
    bounds: tuple[int, ...]
    gens: tuple[int, ...]
    bases: tuple[tuple[tuple[int, int], ...], ...]
    strings: tuple[str, ...] | None = None
    turn_of = _Column("H", "uint16")
    generated = _Column("B", "bool")
    positions = _Column("i", "int32")

    __reduce__ = _reduce
    __eq__ = _eq
    __hash__ = None  # unhashable: a column may be a writable view

    @property
    def n(self) -> int:
        return len(_packed(self, "tokens"))


class Mask2D:
    """Per-token visibility rows, strictly causal (token k never sees itself).

    Row k is its turn's base ranges plus the earlier tokens of its own turn,
    and every mask is held as exactly that, whether from build_masks or
    imported from any format: bases[t] for each turn t, whose rows are
    [bounds[t], bounds[t + 1]). words, the rows bitpacked (words[k, w] bit i
    covers token 64*w+i), are built from the ranges on first access and kept,
    read-only: writing to them would change no row.
    """

    def __init__(
        self,
        n: int,
        bases: tuple[tuple[tuple[int, int], ...], ...],
        bounds: Sequence[int],
    ) -> None:
        self.n = n
        self.bases = bases
        self.bounds = bounds
        self._words = None

    @property
    def words(self) -> np.ndarray:
        """uint64, shape (n, ceil(n/64)), read-only."""
        if self._words is None:
            self._words = _dense_rows(self)
            self._words.flags.writeable = False
        return self._words

    def same_rows(self, other: Mask2D) -> bool:
        """Whether other gives the same rows. Dense rows cannot tell touching
        ranges from joined ones, nor hold the base of a turn with no tokens,
        so this compares joined ranges, on the turns that have tokens."""
        return self.n == other.n and _row_key(self) == _row_key(other)


def _row_key(mask: Mask2D) -> list:
    bounds = mask.bounds
    return [(a, b, _joined(base)) for base, a, b in zip(mask.bases, bounds, bounds[1:]) if a < b]


def _joined(ranges: Iterable[tuple[int, int]]) -> list[int]:
    """Sorted ranges as dense rows give them, as flat [start, end, ...]
    edges: empty ones dropped, touching ones joined."""
    edges: list[int] = []
    for s, e in ranges:
        if s == e:
            continue
        if edges and edges[-1] == s:
            edges[-1] = e
        else:
            edges += (s, e)
    return edges


@record
class Mask1D:
    """Loss mask: True exactly on policy-generated tokens.

    loss is held packed like a StitchedTrajectory column: a bool np.ndarray
    view, built on first access.
    """

    loss: np.ndarray = _Column("B", "bool")

    __reduce__ = _reduce
    __eq__ = _eq
    __hash__ = None  # unhashable: the column may be a writable view


def _token_spans(
    text: str, counter: TokenCounter, strings: dict[int, str]
) -> tuple[list[int], list[int]]:
    """Encode text and return its ids and cumulative character bounds: token j
    covers text[bounds[j]:bounds[j + 1]], so bounds has one entry more than ids.

    strings caches each id's decoded text, so a caller decodes every distinct
    id once however many texts it encodes. The bounds hold only if the ids'
    texts join to text exactly, which stitch's records check makes sure of.
    """
    ids = counter.encode(text)
    for token_id in set(ids).difference(strings):
        strings[token_id] = counter.decode([token_id])
    return ids, list(accumulate(map(len, map(strings.__getitem__, ids)), initial=0))


def stitch(trajectory: TrajectoryRecord, counter: TokenCounter) -> StitchedTrajectory:
    """Concatenate head, generations, and injected feedback into one sequence.

    This is the one place that decides which tokens a turn sees. The result
    must pass the records check, and each base hold as many tokens as the
    counter counts in its snapshot; any disagreement (tampered records, a
    lossy counter) raises IntegrityError rather than producing wrong masks.
    The result keeps the ranges as its bases, each id's text as its strings.
    A trajectory of more turns than turn_of can number raises DataError.

    The string table runs to the largest id the trajectory uses ("" for ids
    it does not use), so stitch each trajectory with a fresh WordTokenizer(),
    as export-masks does: with one counter shared over the twelve records of
    a seed-9 search_qa archive, the last record's table held 1,580 entries
    for the 382 ids it uses, and its container 8,460 bytes against 7,262.
    """
    turns = trajectory.turns
    if not turns:
        raise ValueError("cannot stitch an empty trajectory")
    if len(turns) > _MAX_TURNS:
        raise DataError(
            f"trajectory {trajectory.task.id!r}: {len(turns)} turns, more than the {_MAX_TURNS} a sequence holds"
        )
    mode = trajectory.config.mode
    preset = trajectory.config.preset

    texts: dict[int, str] = {}
    head_ids, _ = _token_spans(turns[0].context_snapshot, counter, texts)
    tokens, segments = list(head_ids), [_HEAD] * len(head_ids)
    head = (0, len(tokens))
    # Per turn, the head being turn 0: its first token, its generated count
    # and its base.
    bounds, gens = [0], [0]
    bases: list[tuple[tuple[int, int], ...]] = [()]
    # The previous turn's is/query runs and info block; turn 1 sees the head alone.
    kept: list[tuple[int, int]] = []

    for i, turn in enumerate(turns):
        visible = ((0, len(tokens)),) if mode == "full_append" else (head, *kept)
        bases.append(visible)
        n_context = sum(e - s for s, e in visible)
        if n_context != counter.count(turn.context_snapshot):
            raise IntegrityError(f"turn {i}: context token count mismatch")

        gen_ids, offsets = _token_spans(turn.generation.text, counter, texts)
        gen_start = len(tokens)
        bounds.append(gen_start)
        gens.append(len(gen_ids))
        gen_codes = [_GLUE] * len(gen_ids)
        runs = []
        # A token belongs to a block only if it lies wholly inside it. Labels
        # go on in reverse, so a zero-length token on a boundary two blocks
        # share keeps the first label in is/query/answer order.
        for name, code in (("answer", _ANSWER), ("query", _QUERY), ("is", _IS)):
            span = turn.parsed.spans.get(name)
            if span is None:
                continue
            lo, hi = bisect_left(offsets, span.start), bisect_right(offsets, span.end) - 1
            if lo < hi:
                gen_codes[lo:hi] = [code] * (hi - lo)
                if code != _ANSWER:
                    runs.append((gen_start + lo, gen_start + hi))
        # The kept is/query runs, in token order, with touching runs joined.
        kept = []
        for lo, hi in sorted(runs):
            if kept and lo <= kept[-1][1]:
                kept[-1] = (kept[-1][0], max(kept[-1][1], hi))
            else:
                kept.append((lo, hi))
        tokens += gen_ids
        segments += gen_codes

        if turn.info is not None:
            info_ids, offsets = _token_spans(info_block(turn.info, preset), counter, texts)
            info_codes = [_INFO] * len(info_ids)
            match = _HINT_RE.match(turn.info)
            if match:
                # A hint token is one that starts inside the hint.
                hint_start, n_info = len(preset.info_open), len(info_ids)
                lo = bisect_left(offsets, hint_start, 0, n_info)
                hi = bisect_left(offsets, hint_start + match.end(), 0, n_info)
                info_codes[lo:hi] = [_HINT] * (hi - lo)
            kept.append((len(tokens), len(tokens) + len(info_ids)))
            tokens += info_ids
            segments += info_codes

    bounds.append(len(tokens))
    stitched = StitchedTrajectory(
        tokens=array("i", tokens),
        segments=array("B", segments),
        bounds=tuple(bounds),
        gens=tuple(gens),
        bases=tuple(bases),
        strings=tuple(texts.get(i, "") for i in range(max(texts, default=-1) + 1)),
    )
    _check_records(trajectory, list(map(texts.__getitem__, tokens)), stitched)
    return stitched


def _check_records(trajectory: TrajectoryRecord, pieces: list[str], stitched: StitchedTrajectory) -> None:
    """Hold a sequence, its tokens' texts being pieces, to its records by the
    rule in the module docstring, the head being a turn with no generation. A
    sequence read from dense rows may stop before trailing turns with no
    tokens, which they cannot hold. Raises IntegrityError as "token K (turn
    T): ...", K the first token that disagrees."""
    bounds, bases = stitched.bounds, stitched.bases
    text = "".join(pieces)
    offsets = list(accumulate(map(len, pieces), initial=0))
    turns, preset = trajectory.turns, trajectory.config.preset

    def expected(t: int) -> tuple[str, str, str]:
        """Turn t's snapshot, its generation, and its other tokens' text."""
        if not t:
            return "", "", turns[0].context_snapshot
        turn = turns[t - 1]
        return turn.context_snapshot, turn.generation.text, info_block(turn.info, preset)

    held, n_turns = len(bases), len(turns) + 1
    if held > n_turns or any(gen or rest for _, gen, rest in map(expected, range(held, n_turns))):
        t = min(held, n_turns)
        raise IntegrityError(f"token {bounds[t]} (turn {t}): {held - 1} turns in the mask, {n_turns - 1} in the record")
    for t, (base, a, b, g) in enumerate(zip(bases, bounds, bounds[1:], stitched.gens)):
        snapshot, gen, rest = expected(t)
        if "".join(text[offsets[s] : offsets[e]] for s, e in base) != snapshot:
            raise IntegrityError(f"token {a} (turn {t}): visible tokens decode to a different context")
        for lo, hi, want, what in ((a, a + g, gen, "generated"), (a + g, b, rest, "other")):
            start = offsets[lo]
            if text[start : offsets[hi]] != want:
                bad = (k for k in range(lo, hi) if pieces[k] != want[offsets[k] - start : offsets[k + 1] - start])
                k = next(bad, hi)  # hi when the tokens are a prefix of want
                raise IntegrityError(f"token {k} (turn {t}): {what} tokens decode to other text than the record")


def build_masks(stitched: StitchedTrajectory) -> tuple[Mask2D, Mask1D]:
    """The visibility and loss masks of a stitched sequence: its base ranges
    and bounds, held as they are (the rule is in the module docstring), and
    its generated column. A generated token sees its turn's context plus the
    turn's generation so far, and injected feedback also sees the whole
    generation that triggered it. No row is built here.
    """
    mask2d = Mask2D(stitched.n, stitched.bases, list(stitched.bounds))
    return mask2d, Mask1D(loss=_packed(stitched, "generated"))


def _check_own(stitched: StitchedTrajectory, mask2d: Mask2D, mask1d: Mask1D | None = None) -> None:
    """Raise IntegrityError unless the masks are the ones build_masks gives
    the sequence."""
    if (mask2d.n, mask2d.bases, list(mask2d.bounds)) != (stitched.n, stitched.bases, list(stitched.bounds)) or (
        mask1d is not None and _packed(mask1d, "loss") != _packed(stitched, "generated")
    ):
        raise IntegrityError("the masks are not the sequence's own, the ones build_masks gives it")


def _bounds(turn_of: Sequence[int], turns: int) -> list[int]:
    """Where each turn starts, then the end: turn_of is non-decreasing, so
    turn t occupies [bounds[t], bounds[t + 1])."""
    return [bisect_left(turn_of, t) for t in range(turns + 1)]


def _dense_rows(mask: Mask2D) -> np.ndarray:
    """Bitpack the rows of a mask."""
    import numpy as np

    rows = np.zeros((mask.n, (mask.n + 63) // 64), dtype=np.uint64)
    for base, a, b in zip(mask.bases, mask.bounds, mask.bounds[1:]):
        _fill_rows(rows[a:b], base, a)
    return rows


def _fill_rows(out: np.ndarray, base: Iterable[tuple[int, int]], a: int) -> None:
    """Fill out, uint64 words, with rows a, a + 1, ... of one turn with the
    given base, bitpacked."""
    import numpy as np

    bits = np.zeros(64 * out.shape[1], dtype=bool)
    for s, e in base:
        bits[s:e] = True
    out[:] = np.packbits(bits, bitorder="little").view("<u8")
    # Row a + i also sees [a, a + i): one bit per row, OR-accumulated down
    # the turn's rows, over the words the turn spans.
    b = a + len(out)
    w0, w1 = a >> 6, (b + 63) >> 6
    steps = np.zeros((b - a, w1 - w0), dtype=np.uint64)
    prev = np.arange(a, b - 1)
    steps[np.arange(1, b - a), (prev >> 6) - w0] = np.uint64(1) << (prev & 63).astype(np.uint64)
    out[:, w0:w1] |= np.bitwise_or.accumulate(steps, axis=0, out=steps)


def visible_tokens(mask: Mask2D, k: int) -> np.ndarray:
    """Ascending indices of the tokens row k attends to."""
    import numpy as np

    if not 0 <= k < mask.n:
        raise IndexError(f"token index {k} out of range for {mask.n} tokens")
    turn = bisect_right(mask.bounds, k) - 1
    runs = [np.arange(s, e) for s, e in mask.bases[turn]]
    return np.concatenate(runs + [np.arange(mask.bounds[turn], k)])


def verify_masks(
    trajectory: TrajectoryRecord,
    stitched: StitchedTrajectory,
    mask: Mask2D,
    counter: TokenCounter,
) -> None:
    """Check a sequence against the records it was stitched from, by the
    check stitch makes on the sequence it builds, once mask is found to be
    the sequence's own (IntegrityError if not). The counter must decode each
    id as its table entry, if any, and the sequence as its ids' texts joined."""
    _check_own(stitched, mask)
    tokens = _packed(stitched, "tokens").tolist()
    own = {i: counter.decode([i]) for i in set(tokens)}
    table = stitched.strings
    bad = [i for i, text in own.items() if table[i] != text] if table is not None else []
    if bad:
        k = min(map(tokens.index, bad))
        i, t = tokens[k], bisect_right(stitched.bounds, k) - 1
        raise IntegrityError(f"token {k} (turn {t}): table entry {i} is {table[i]!r}, the counter decodes {own[i]!r}")
    pieces = list(map(own.__getitem__, tokens))
    if counter.decode(tokens) != "".join(pieces):
        raise IntegrityError("token counter does not decode the sequence as its tokens' texts joined")
    _check_records(trajectory, pieces, stitched)


def _not_plus_one(k: int, turn: int) -> str:
    return f"token {k} (turn {turn}): row is not the previous row plus one token"


def _turn_rows(base: Iterable[tuple[int, int]], a: int, b: int):
    """Yield rows a..b-1 of one turn with the given base, each as the
    ascending indices it sees: one array, grown by a token between rows."""
    row = array("I", chain.from_iterable(range(s, e) for s, e in base))
    for k in range(a, b):
        yield row
        row.append(k)


def _little_endian(items: memoryview | array) -> memoryview | array:
    """Packed native items as the container stores them: as they are on a
    little-endian host, a byteswapped copy on a big-endian one."""
    if not _SWAP:
        return items
    swapped = array(memoryview(items).format, items)
    swapped.byteswap()
    return swapped


def _uints(items: memoryview | array) -> tuple[bytes, bytearray]:
    """Packed native 32-bit items as a width-coded field: a u8 width code,
    the narrowest of 1, 2 and 4 bytes that holds every item, then the items
    little-endian at that width (a negative i32 takes 4, as its u32 bits).
    The bytes move in strided slices, a byte lane at a time, never an item
    at a time."""
    wide = bytes(_little_endian(items))
    lanes = [wide[j::4] for j in range(4)]  # byte j of every item
    zero = bytes(len(lanes[0]))
    width = 4 if lanes[3] != zero or lanes[2] != zero else 2 if lanes[1] != zero else 1
    narrow = bytearray(width * len(zero))
    for j in range(width):
        narrow[j::width] = lanes[j]
    return bytes((width,)), narrow


def _payload(stitched: StitchedTrajectory, mask2d: Mask2D, fmt: str):
    # The packed columns are the container's columns: on a little-endian
    # host they are written as they are.
    if fmt == "ranges":
        yield from _ranges_payload(stitched)
        return
    for name in ("tokens", "positions", "generated", "segments", "turn_of"):  # generated is the loss
        yield _little_endian(_packed(stitched, name))
    if fmt == "dense_bitpack":
        import numpy as np

        # On a little-endian host the rows are written straight from the mask.
        yield np.ascontiguousarray(mask2d.words, dtype="<u8")
    else:
        bounds = mask2d.bounds
        for base, a, b in zip(mask2d.bases, bounds, bounds[1:]):
            rows = array("I")
            for row in _turn_rows(base, a, b):
                rows.append(len(row))
                rows += row
            yield _little_endian(rows)


def _ranges_payload(stitched: StitchedTrajectory):
    """A ranges payload: the sequence as it is held, each part at the
    narrowest width it needs."""
    strings = stitched.strings
    if strings is None:
        raise ValueError(
            "the ranges format needs the sequence's string table; export a "
            "sequence imported from dense rows as dense_bitpack or index_list"
        )
    yield from _uints(_packed(stitched, "tokens"))
    runs = _RUN.findall(_packed(stitched, "segments"))
    yield _little_endian(array("I", [len(runs)]))
    yield bytes(map(itemgetter(0), runs))
    yield from _uints(array("I", map(len, runs)))
    bases, bounds, gens = stitched.bases, stitched.bounds, stitched.gens
    words = array("I", [len(bases)])
    for base, a, b, g in zip(bases, bounds, bounds[1:], gens):
        words += array("I", (b - a, g, len(base)))
        words.extend(chain.from_iterable(base))
    words.append(len(strings))
    yield _little_endian(words)
    yield from _uints(array("I", map(len, strings)))
    yield "".join(strings).encode("utf-8", "surrogatepass")


def export_masks(
    stitched: StitchedTrajectory,
    mask2d: Mask2D,
    mask1d: Mask1D,
    counter_id: str,
    fmt: str = "ranges",
) -> bytes:
    """Serialize a stitched sequence and its masks to the binary container.

    The masks must be the sequence's own, the ones build_masks gives it, or
    IntegrityError is raised: a container holds one sequence, and each
    format writes what it holds of it. ranges writes the sequence's turns
    and string table, so it needs a sequence from stitch or a ranges
    container. Its string table holds the decodes of the counter it was
    stitched with; see stitch() for why that counter should be a fresh one.
    """
    if fmt not in _VERSIONS:
        raise ValueError(f"unknown mask format {fmt!r}")
    _check_own(stitched, mask2d, mask1d)
    header = {"n": stitched.n, "counter_id": counter_id, "format": fmt}
    version = _VERSIONS[fmt][-1]
    digest = _hash_head(version, header)
    # The header's length does not depend on its hash, so the payload goes
    # straight into its place in the container, deflated (from ranges version
    # 6) and hashed on the way, and the header is put in front of it last:
    # the payload is never held twice, and a deflated one never whole.
    header_len = len(_canonical(header | {"sha256": digest.hexdigest()}))
    out = io.BytesIO()
    out.seek(len(MAGIC) + _PREFIX.size + header_len)
    parts = _payload(stitched, mask2d, fmt)
    for part in _deflated(parts) if version >= 6 else parts:
        digest.update(part)
        out.write(part)
    header["sha256"] = digest.hexdigest()
    out.seek(0)
    out.write(MAGIC + _PREFIX.pack(version, header_len) + _canonical(header))
    return out.getvalue()


def _deflated(parts: Iterable) -> Iterable[bytes]:
    """parts, bytes-like, as the pieces of one raw DEFLATE stream."""
    stream = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
    for part in parts:
        yield stream.compress(part)
    yield stream.flush()


def _inflated(stored: memoryview) -> bytes:
    """The payload a version 6 container stores deflated: stored must be one
    raw DEFLATE stream, whole, and nothing after it."""
    stream = zlib.decompressobj(-15)
    try:
        payload = stream.decompress(stored)
    except zlib.error as exc:
        raise IntegrityError(f"mask payload is not a deflate stream: {exc}") from None
    if not stream.eof:
        raise IntegrityError("mask payload truncated: its deflate stream does not end")
    if stream.unused_data:
        raise IntegrityError("mask payload has trailing bytes after its deflate stream")
    return payload


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _hash_head(version: int, header: dict):
    """The container hash, fed what comes before the payload: nothing in
    version 1; from version 2 the other header fields, so they are covered
    too, and from version 4 the version before them."""
    h = hashlib.sha256()
    if version >= 4:
        h.update(version.to_bytes(2, "little"))
    if version >= 2:
        h.update(_canonical({k: v for k, v in header.items() if k != "sha256"}))
    return h


def _items(chunk: memoryview, fmt: str) -> memoryview:
    """A little-endian payload slice as packed native items of format fmt:
    the slice itself on a little-endian host, a byteswapped copy on a
    big-endian one."""
    if len(chunk) % struct.calcsize(fmt):
        raise IntegrityError(f"mask payload truncated: {len(chunk)} bytes is not a whole number of {fmt!r} items")
    if not _SWAP:
        return chunk.cast(fmt)
    items = array(fmt, chunk.tobytes())
    items.byteswap()
    return memoryview(items)


def _utf8(table) -> str:
    try:
        return str(table, "utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"string table is not UTF-8: {exc}") from None


def import_masks(data: bytes) -> tuple[StitchedTrajectory, Mask2D, Mask1D, dict]:
    """Parse the binary container, verifying magic, version, header and hash.

    Every malformed input, truncated or altered anywhere, raises
    IntegrityError. The hash is checked over the payload as stored, before
    a version 6 payload is inflated. A container that is signed but unsound
    raises IntegrityError too, since anyone can re-sign one: in version 6 a
    payload that is not a raw DEFLATE stream, a stream that does not end,
    or bytes after its end; in any format a segment code that names no
    segment, base ranges that are unsorted, overlap or reach past their
    turn's first token, or more turns than turn_of can number; in ranges a
    token id outside the string table or a table that is not UTF-8; from
    version 4 turn token counts that do not sum to n or a generated count
    above its turn's; from version 5 a width code other than 1, 2 and 4,
    segment runs that do not sum to n, or table lengths that do not sum to
    the code points of its text; in the other versions a decreasing turn_of,
    a loss byte other than 0 and 1, a loss 1 after a 0 in one turn ("row is
    not the previous row plus one token") or a position other than the turns
    derive ("position X, not Y"), each named by its first token; in the
    dense formats a row that is not the previous row plus one token.

    Every format comes back as a sequence held as its turns (see
    StitchedTrajectory) with the masks build_masks gives it, held as ranges,
    with no dense row built; only dense_bitpack loads numpy. A dense
    container's bases come back joined (see Mask2D.same_rows), and only a
    ranges container fills in the string table. tokens and segments are
    views of data, not copies, read-only when data is bytes; from version 5
    a container stores segments as runs and ids narrowed, so there they are
    read-only columns built from data (ids stored 4 bytes wide stay views,
    of the inflated payload in version 6).
    turn_of, generated (the loss) and positions are derived from the turns,
    never read from data.
    """
    if data[: len(MAGIC)] != MAGIC:
        raise IntegrityError("not a mask container: bad magic")
    offset = len(MAGIC) + _PREFIX.size
    if len(data) < offset:
        raise IntegrityError("mask container truncated before its header")
    version, header_len = _PREFIX.unpack_from(data, len(MAGIC))
    if not any(version in versions for versions in _VERSIONS.values()):
        raise IntegrityError(f"unsupported mask container version {version}")
    header_bytes = data[offset : offset + header_len]
    offset += header_len
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise IntegrityError(f"corrupt mask header: {exc}") from None
    if (
        not isinstance(header, dict)
        or header.keys() != _HEADER_TYPES.keys()
        or any(type(header[k]) is not t for k, t in _HEADER_TYPES.items())
        or header["n"] < 0
    ):
        raise IntegrityError(f"corrupt mask header: expected fields {sorted(_HEADER_TYPES)}")
    if _canonical(header) != header_bytes:
        raise IntegrityError("corrupt mask header: not in canonical form")
    fmt = header["format"]
    if fmt not in _VERSIONS:
        raise IntegrityError(f"unknown mask format {fmt!r} in header")
    if version not in _VERSIONS[fmt]:
        raise IntegrityError(f"mask container version {version} does not hold format {fmt!r}")
    payload = memoryview(data)[offset:]  # read in place, not copied
    digest = _hash_head(version, header)
    digest.update(payload)  # the bytes as stored: nothing is inflated unsigned
    if digest.hexdigest() != header["sha256"]:
        raise IntegrityError("mask payload hash mismatch")
    if version >= 6:
        payload = memoryview(_inflated(payload))
    n = header["n"]
    pos = 0

    def take(count: int) -> memoryview:
        nonlocal pos
        chunk = payload[pos : pos + count]
        if len(chunk) != count:
            raise IntegrityError("mask payload truncated")
        pos += count
        return chunk

    def take_uints(count: int, width: int | None = 4, fmt: str = "I") -> memoryview:
        # count little-endian items width bytes wide, after a width code when
        # width is None, as packed 4-byte items: read in place at width 4,
        # else widened a byte lane at a time into a read-only column.
        if width is None:
            width = take(1)[0]
            if width not in (1, 2, 4):
                raise IntegrityError(f"width code {width}, not 1, 2 or 4")
        if width == 4:
            return _items(take(4 * count), fmt)
        narrow = bytes(take(width * count))  # bytes: a strided memoryview copies an item at a time
        wide = bytearray(4 * count)
        for j in range(width):
            wide[j::4] = narrow[j::width]
        return _items(memoryview(wide), fmt).toreadonly()

    bases: list[tuple[tuple[int, int], ...]] = []

    def add_base(edges: list[int]) -> tuple[tuple[int, int], ...]:
        turn = len(bases)
        if edges != sorted(edges) or (edges and edges[-1] > bounds[turn]):
            raise IntegrityError(
                f"turn {turn}: base ranges are unsorted, overlap or reach past the turn's first token"
            )
        bases.append(tuple(zip(edges[0::2], edges[1::2])))
        return bases[-1]

    if version >= 5:
        tokens = take_uints(n, None, "i")
        codes = take(take_uints(1)[0])  # the segment runs' codes, then their lengths
        runs = take_uints(len(codes), None)
        if sum(runs) != n:
            raise IntegrityError(f"the segment runs sum to {sum(runs)} tokens, not {n}")
        segments = memoryview(b"".join(bytes((c,)) * k for c, k in zip(codes, runs)))
    else:
        tokens = take_uints(n, 4, "i")
        if version == 4:
            segments = codes = take(n)
    if version >= 4:
        turns = take_uints(1)[0]
        # Each turn takes 12 bytes or more, and turn_of holds its number.
        if turns > min(_MAX_TURNS + 1, (len(payload) - pos) // 12):
            raise IntegrityError(f"mask payload truncated or short of turns: {turns} turns")
        bounds, gens = [0], []
        for turn in range(turns):
            count, gen, ranges = take_uints(3)
            if gen > count:
                raise IntegrityError(f"turn {turn}: {gen} leading generated tokens of its {count}")
            bounds.append(bounds[-1] + count)
            gens.append(gen)
            add_base(take_uints(2 * ranges).tolist())
        if bounds[-1] != n:
            raise IntegrityError(f"the turns' token counts sum to {bounds[-1]}, not {n}")
    else:
        positions = take_uints(n, 4, "i")
        loss = take(n)
        if loss.tobytes().translate(None, b"\x00\x01"):
            raise IntegrityError("loss column holds a byte other than 0 and 1")
        segments = codes = take(n)
        turn_of = _items(take(2 * n), "H")
        turn_list = turn_of.tolist()
        if turn_list != sorted(turn_list):
            raise IntegrityError("turn_of decreases")
    stray = codes.tobytes().translate(None, _SEGMENT_BYTES)
    if stray:
        raise IntegrityError(f"segment code {stray[0]} names no segment")
    if version == 3:  # ranges, each turn's count and pairs after the columns
        turns = take_uints(1)[0]
        if turns > min(_MAX_TURNS + 1, (len(payload) - pos) // 4) or (n and turn_list[-1] >= turns):
            raise IntegrityError(f"mask payload truncated or short of turns: {turns} turns")
        bounds = _bounds(turn_list, turns)
        for _ in range(turns):
            add_base(take_uints(2 * take_uints(1)[0]).tolist())
    strings = None
    if fmt == "ranges":
        count = take_uints(1)[0]
        if version >= 5:  # code-point lengths, then the text to the end
            ends = list(accumulate(take_uints(count, None)))
            text = _utf8(take(len(payload) - pos))
        else:  # byte lengths, each entry decoded alone
            ends = list(accumulate(take_uints(count)))
            text = bytes(take(ends[-1] if ends else 0))
        total = ends[-1] if ends else 0
        if len(text) != total:
            raise IntegrityError(f"string table lengths sum to {total}, not the {len(text)} code points of its text")
        strings = tuple([text[a:b] for a, b in zip([0] + ends, ends)])
        if version < 5:
            strings = tuple(map(_utf8, strings))
        # A negative id reads as a u32 past any table.
        if n and max(tokens.cast("B").cast("I")) >= len(strings):
            raise IntegrityError("token id outside the string table")
    else:
        # Each turn's base is the runs of its first row. The turn's rows are
        # then written again from it, as export writes them, and must match.
        bounds = _bounds(turn_list, turn_list[-1] + 1 if n else 0)
        if fmt == "dense_bitpack":
            import numpy as np

            width = (n + 63) // 64
            rows = np.frombuffer(take(8 * n * width), dtype="<u8").reshape(n, width)
        for turn, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a == b:
                add_base([])
            elif fmt == "dense_bitpack":
                got = rows[a:b]
                bits = np.unpackbits(got[0].view(np.uint8), bitorder="little")
                base = add_base(np.flatnonzero(np.diff(bits, prepend=0, append=0)).tolist())
                want = np.empty_like(got)
                _fill_rows(want, base, a)
                bad = np.flatnonzero((want != got).any(axis=1))
                if bad.size:
                    raise IntegrityError(_not_plus_one(a + int(bad[0]), turn))
            else:
                first = pos
                base = add_base(_joined((k, k + 1) for k in take_uints(take_uints(1)[0])))
                pos = first  # the first row is compared too, with the rest
                for k, row in enumerate(_turn_rows(base, a, b), a):
                    # Compared as bytes, a memcmp, where comparing items is not.
                    if take_uints(1)[0] != len(row) or take_uints(len(row)).tobytes() != row.tobytes():
                        raise IntegrityError(_not_plus_one(k, turn))
    if pos != len(payload):
        raise IntegrityError("mask payload has trailing bytes")
    if version < 4:  # each turn's generated count is its leading run of loss 1s
        gens = [len(f) - len(f.lstrip(b"\x01")) for f in (loss[a:b].tobytes() for a, b in zip(bounds, bounds[1:]))]
    stitched = StitchedTrajectory(tokens, segments, tuple(bounds), tuple(gens), tuple(bases), strings)
    if version < 4:
        for got, name in ((loss, "generated"), (positions, "positions")):
            want = _packed(stitched, name)
            if got != want:
                k = next(k for k, (x, y) in enumerate(zip(got, want)) if x != y)
                t = bisect_right(bounds, k) - 1
                raise IntegrityError(
                    _not_plus_one(k, t) if got is loss else f"token {k} (turn {t}): position {got[k]}, not {want[k]}"
                )
    return (stitched, *build_masks(stitched), header)
