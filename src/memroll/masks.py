"""Stitch episode records into one token sequence with attention and loss masks.

Training on consolidation-style rollouts needs a single stitched sequence in
which every generated token attends to exactly the tokens it could see when it
was sampled. There is one visibility rule: row k is its turn's base plus the
earlier tokens of its own turn, and the head is turn 0, with an empty base.
stitch() alone decides each turn's base, as (start, end) index ranges: turn 1
sees the head; a later turn sees the head plus the previous turn's is/query
runs and info block (consolidate) or everything before it (full_append). It
verifies byte-for-byte that those ranges decode to the recorded context
snapshot, refuses to emit anything otherwise, and keeps them as the
sequence's bases. Those ranges are the mask: build_masks() holds them as they
are, and dense rows are built from them only when asked for.

Token positions restart per rollout-time context: a generated token's position
is its index within the context the policy actually saw, not within the
stitched sequence.

The per-token columns (and Mask1D.loss) are held packed, as memoryviews in the
container's own column layout, so the default path (stitch, build_masks,
export_masks and import_masks with ranges, verify_masks on a mask held as
ranges) runs on the standard library alone. Reading a column as an attribute
gives an np.ndarray of its documented dtype, a view of the packed column built
on first access and kept; that, dense rows, visible_tokens and the two dense
formats are what import numpy.

The export container is binary: magic MEM1MASK, a little-endian u16 version,
a u32 header length, a JSON header {n, counter_id, format, sha256}, then the
payload. The header is the canonical (sort_keys) JSON of exactly those four
fields. The sha256 covers the canonical JSON of the other three header fields
followed by the payload, so no byte of a container can change unnoticed
(version 1 containers, whose sha256 covers the payload alone, are still read).
Every payload starts with the per-token columns: tokens i32, positions i32,
loss u8, segments u8, turn_of u16. The mask follows, in one of three formats:

- ranges (version 3, the default): a u32 turn count, then for each turn, the
  head being turn 0, a u32 range count and that many u32 (start, end) pairs,
  its base ranges. A turn's own tokens are the run of turn_of equal to it.
  Then the string table: a u32 count, that many u32 byte lengths, then the
  UTF-8 bytes (lone surrogates pass through), where entry i is the text of
  token id i. The container thus decodes without the counter that made it.
- dense_bitpack (version 2): ceil(n/64) little-endian u64 words per token,
  bit i of word w covering token 64*w+i.
- index_list (version 2): per token a u32 count followed by that many
  ascending u32 indices.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .archive import TrajectoryRecord
from .context import HINT_TEMPLATE
from .core import IntegrityError, TokenCounter, record

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
RANGES_VERSION = 3  # ranges containers
# The container versions each mask format is read from; export writes the last.
# Pairing them means a version byte flipped between 2 and 3, which the hash
# cannot see, is still refused.
_VERSIONS = {
    "ranges": (RANGES_VERSION,),
    "dense_bitpack": (1, FORMAT_VERSION),
    "index_list": (1, FORMAT_VERSION),
}
FORMATS = tuple(_VERSIONS)  # the default first
_ROW_BLOCK = 256  # rows packed or unpacked at a time, bounding index_list scratch
_PREFIX = struct.Struct("<HI")  # version, header length
_HEADER_TYPES = {"counter_id": str, "format": str, "n": int, "sha256": str}

# The container is little-endian; packed columns are held in native order, so
# a big-endian host byteswaps them on the way in and out.
_SWAP = sys.byteorder == "big"


class _Column:
    """A per-token column of a record, held packed and read through numpy.

    The packed column is a memoryview of native items of format fmt, which
    is the container's layout: an array.array, or a slice of an imported
    container. Reading the attribute gives np.frombuffer(packed, dtype), built
    on first access and kept, so it shares memory with the packed column.
    Assigning takes a memoryview or array.array of format fmt as it is, and
    anything else (an np.ndarray, a list) converted to dtype by numpy.
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

            view = obj.__dict__[self.name] = np.frombuffer(obj.__dict__[self.packed], self.dtype)
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
    """The packed column behind a _Column field, read without numpy."""
    return obj.__dict__["_" + name]


def _reduce(obj):
    # Pickle and deepcopy by the field values: a memoryview cannot be pickled.
    return type(obj), tuple(getattr(obj, name) for name in obj._fields)


@record
class StitchedTrajectory:
    """One episode as a flat token sequence with per-token annotations.

    turn_of is 0 for head tokens and 1-based for turn tokens. positions are
    rollout-context-local. bases[t] holds the (start, end) index ranges turn t
    saw as its context, bases[0] = () for the head. strings is the string
    table: strings[i] is the text of token id i ("" for ids the sequence does
    not use). Both are None for sequences imported from dense_bitpack or
    index_list containers, which carry neither.

    The five columns are held packed in the container's layout and read as
    np.ndarray views of the dtypes below, built on first access (which
    imports numpy) and kept. The views of an imported sequence are views of
    the container, read-only when it is bytes. The constructor and
    memroll.core.replace take numpy arrays. Like every record it is frozen,
    and the columns are required arguments.
    """

    tokens: np.ndarray = _Column("i", "int32")
    segments: np.ndarray = _Column("B", "uint8")
    turn_of: np.ndarray = _Column("H", "uint16")
    generated: np.ndarray = _Column("B", "bool")
    positions: np.ndarray = _Column("i", "int32")
    bases: tuple[tuple[tuple[int, int], ...], ...] | None = None
    strings: tuple[str, ...] | None = None

    __reduce__ = _reduce

    @property
    def n(self) -> int:
        return len(_packed(self, "tokens"))


class Mask2D:
    """Per-token visibility rows, strictly causal (token k never sees itself).

    Row k is its turn's base ranges plus the earlier tokens of its own turn. A
    mask from build_masks or a ranges container is held as exactly that:
    bases[t] for each turn t, whose rows are [bounds[t], bounds[t + 1]).
    words, the rows bitpacked (words[k, w] bit i covers token 64*w+i), are
    built from the ranges on first access and kept: the dense_bitpack and
    index_list writers read them, and once they exist so do visible_tokens
    and verify_masks. A mask imported from a dense_bitpack or index_list
    container holds words only.
    """

    def __init__(
        self,
        n: int,
        words: np.ndarray | None = None,
        bases: tuple[tuple[tuple[int, int], ...], ...] | None = None,
        bounds: Sequence[int] | None = None,
    ) -> None:
        self.n = n
        self.bases = bases
        self.bounds = bounds
        self._words = words

    @property
    def words(self) -> np.ndarray:
        """uint64, shape (n, ceil(n/64))."""
        if self._words is None:
            self._words = _dense_rows(self)
        return self._words

    @property
    def dense(self) -> bool:
        """True once the rows are held as words."""
        return self._words is not None


@record
class Mask1D:
    """Loss mask: True exactly on policy-generated tokens.

    loss is held packed like a StitchedTrajectory column: a bool np.ndarray
    view, built on first access.
    """

    loss: np.ndarray = _Column("B", "bool")

    __reduce__ = _reduce


def _token_spans(
    text: str, counter: TokenCounter, strings: dict[int, str]
) -> tuple[list[int], list[int]]:
    """Encode text and return its ids and cumulative character bounds: token j
    covers text[bounds[j]:bounds[j + 1]], so bounds has one entry more than ids.

    strings caches each id's decoded text, so a caller decodes every distinct
    id once however many texts it encodes. The ids' texts must join to text
    exactly, so a run of tokens is a slice of the text.
    """
    ids = counter.encode(text)
    for token_id in set(ids).difference(strings):
        strings[token_id] = counter.decode([token_id])
    pieces = list(map(strings.__getitem__, ids))
    if "".join(pieces) != text:
        raise IntegrityError("token counter does not losslessly segment the text")
    return ids, list(accumulate(map(len, pieces), initial=0))


def _char_offsets(tokens: Iterable[int], strings: Mapping[int, str]) -> list[int]:
    """Where each token's text starts in the sequence's text, the join of its
    tokens' texts: token k covers text[offsets[k]:offsets[k + 1]]."""
    return list(accumulate(map(len, map(strings.__getitem__, tokens)), initial=0))


def _text_of(text: str, offsets: Sequence[int], ranges: Iterable[tuple[int, int]]) -> str:
    """The text of the token ranges [(start, end), ...], offsets being the
    sequence's _char_offsets."""
    return "".join(text[offsets[s] : offsets[e]] for s, e in ranges)


def stitch(trajectory: TrajectoryRecord, counter: TokenCounter) -> StitchedTrajectory:
    """Concatenate head, generations, and injected feedback into one sequence.

    This is the one place that decides which tokens a turn sees. For every turn
    the text of the base ranges that should reconstruct its context snapshot
    is compared byte-for-byte against the recorded snapshot; any disagreement
    (tampered records, reordered tag blocks, a lossy counter) raises
    IntegrityError rather than producing wrong masks. Every token's decoded
    text is its exact slice of the sequence's text, which is joined once, so
    a turn's text is slices of it, not a fresh decode. The checked ranges are
    kept as the result's bases, and the decoded text of each id as its string
    table.

    The string table covers every id the counter has interned, not only the
    ids this trajectory uses, so stitch each trajectory with a fresh
    WordTokenizer(), as the export-masks command does. With one counter shared
    over the twelve records of a search_qa archive, the last record's table
    held 1,580 entries for the 382 ids it uses, and its ranges container took
    33,486 bytes against 28,694 with a fresh counter.
    """
    turns = trajectory.turns
    if not turns:
        raise ValueError("cannot stitch an empty trajectory")
    mode = trajectory.config.mode
    preset = trajectory.config.preset

    tokens: list[int] = []
    segments: list[int] = []
    positions: list[int] = []
    # Packed as they grow, one run per emit.
    turn_of = array("H")
    generated = array("B")

    def emit(ids: list[int], codes: list[int], turn: int, gen: bool, pos0: int) -> None:
        tokens.extend(ids)
        segments.extend(codes)
        turn_of.extend(array("H", (turn,)) * len(ids))
        generated.extend(array("B", (gen,)) * len(ids))
        positions.extend(range(pos0, pos0 + len(ids)))

    texts: dict[int, str] = {}
    head_ids, _ = _token_spans(turns[0].context_snapshot, counter, texts)
    emit(head_ids, [_HEAD] * len(head_ids), 0, False, 0)
    head = (0, len(head_ids))
    bases: list[tuple[tuple[int, int], ...]] = [()]  # the head is turn 0
    # The previous turn's is/query runs and info block; turn 1 sees the head alone.
    kept: list[tuple[int, int]] = []

    for i, turn in enumerate(turns):
        visible = ((0, len(tokens)),) if mode == "full_append" else (head, *kept)
        bases.append(visible)
        n_context = sum(e - s for s, e in visible)

        gen_ids, bounds = _token_spans(turn.generation.text, counter, texts)
        gen_start = len(tokens)
        gen_codes = [_GLUE] * len(gen_ids)
        runs = []
        # A token belongs to a block only if it lies wholly inside it. Labels
        # go on in reverse, so a zero-length token on a boundary two blocks
        # share keeps the first label in is/query/answer order.
        for name, code in (("answer", _ANSWER), ("query", _QUERY), ("is", _IS)):
            span = turn.parsed.spans.get(name)
            if span is None:
                continue
            lo, hi = bisect_left(bounds, span.start), bisect_right(bounds, span.end) - 1
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
        emit(gen_ids, gen_codes, i + 1, True, n_context)

        if turn.info is not None:
            block = preset.info_open + turn.info + preset.info_close
            info_ids, bounds = _token_spans(block, counter, texts)
            info_codes = [_INFO] * len(info_ids)
            match = _HINT_RE.match(turn.info)
            if match:
                # A hint token is one that starts inside the hint.
                hint_start, n_info = len(preset.info_open), len(info_ids)
                lo = bisect_left(bounds, hint_start, 0, n_info)
                hi = bisect_left(bounds, hint_start + match.end(), 0, n_info)
                info_codes[lo:hi] = [_HINT] * (hi - lo)
            info_start = len(tokens)
            emit(info_ids, info_codes, i + 1, False, n_context + len(gen_ids))
            kept.append((info_start, len(tokens)))

    text = "".join(map(texts.__getitem__, tokens))
    offsets = _char_offsets(tokens, texts)
    for i, (turn, visible) in enumerate(zip(turns, bases[1:])):
        if _text_of(text, offsets, visible) != turn.context_snapshot:
            raise IntegrityError(
                f"turn {i}: stitched tokens do not reproduce the recorded context snapshot"
            )
        if sum(e - s for s, e in visible) != counter.count(turn.context_snapshot):
            raise IntegrityError(f"turn {i}: context token count mismatch")

    return StitchedTrajectory(
        tokens=array("i", tokens),
        segments=array("B", segments),
        turn_of=turn_of,
        generated=generated,
        positions=array("i", positions),
        bases=tuple(bases),
        strings=tuple(texts.get(i, "") for i in range(max(texts, default=-1) + 1)),
    )


def build_masks(stitched: StitchedTrajectory) -> tuple[Mask2D, Mask1D]:
    """Derive the visibility and loss masks from a stitched sequence.

    The visibility mask is the base ranges stitch recorded, held as they are:
    row k is its turn's base plus the earlier tokens of its own turn, and the
    head is turn 0, whose base is empty. So a generated token sees its turn's
    context plus the turn's generation so far, and injected feedback also
    sees the whole generation that triggered it. No row is built here.
    """
    if stitched.bases is None:
        raise ValueError("stitched trajectory has no base ranges; masks cannot be rebuilt")
    bounds = _bounds(_packed(stitched, "turn_of"), len(stitched.bases))
    mask2d = Mask2D(stitched.n, bases=stitched.bases, bounds=bounds)
    return mask2d, Mask1D(loss=bytearray(_packed(stitched, "generated")))


def _bounds(turn_of: Sequence[int], turns: int) -> list[int]:
    """Where each turn starts, then the end: turn_of is non-decreasing, so
    turn t occupies [bounds[t], bounds[t + 1])."""
    return [bisect_left(turn_of, t) for t in range(turns + 1)]


def _dense_rows(mask: Mask2D) -> np.ndarray:
    """Bitpack the rows of a mask held as ranges."""
    import numpy as np

    n = mask.n
    width = (n + 63) // 64
    rows = np.zeros((n, width), dtype=np.uint64)
    for turn, base in enumerate(mask.bases):
        a, b = int(mask.bounds[turn]), int(mask.bounds[turn + 1])
        bits = np.zeros(64 * width, dtype=bool)
        for s, e in base:
            bits[s:e] = True
        rows[a:b] = np.packbits(bits, bitorder="little").view("<u8")
        # Row a + i also sees [a, a + i): one bit per row, OR-accumulated
        # down the turn's rows, over the words the turn spans.
        w0, w1 = a >> 6, (b + 63) >> 6
        steps = np.zeros((b - a, w1 - w0), dtype=np.uint64)
        prev = np.arange(a, b - 1)
        steps[np.arange(1, b - a), (prev >> 6) - w0] = np.uint64(1) << (prev & 63).astype(np.uint64)
        rows[a:b, w0:w1] |= np.bitwise_or.accumulate(steps, axis=0, out=steps)
    return rows


def visible_tokens(mask: Mask2D, k: int) -> np.ndarray:
    """Ascending indices of the tokens row k attends to."""
    import numpy as np

    if not 0 <= k < mask.n:
        raise IndexError(f"token index {k} out of range for {mask.n} tokens")
    if not mask.dense:
        turn = bisect_right(mask.bounds, k) - 1
        runs = [np.arange(s, e) for s, e in mask.bases[turn]]
        return np.concatenate(runs + [np.arange(mask.bounds[turn], k)])
    row = mask.words[k]
    bits = np.unpackbits(row.astype("<u8").view(np.uint8), bitorder="little")[: mask.n]
    return np.nonzero(bits)[0]


def verify_masks(
    trajectory: TrajectoryRecord,
    stitched: StitchedTrajectory,
    mask: Mask2D,
    counter: TokenCounter,
) -> None:
    """Check the visible-context oracle for every generated token.

    The first generated token of each turn must see exactly the recorded
    context snapshot; each following one must see the same plus the turn's
    generation so far. Raises IntegrityError naming the first offending token.
    Reads only the mask, never the sequence's bases. A mask held as ranges is
    checked on the standard library alone, with no dense row built: each
    turn's first generated row is its base ranges plus the turn's tokens
    before it, and the turn's generated tokens must be consecutive. A mask
    held as words is checked row by row, with numpy.

    The counter decodes the whole sequence once, which must give its tokens'
    own texts joined; a row's visible text is then slices of that text.
    """
    tokens = _packed(stitched, "tokens").tolist()
    own = {i: counter.decode([i]) for i in set(tokens)}
    text = "".join(map(own.__getitem__, tokens))
    if counter.decode(tokens) != text:
        raise IntegrityError("token counter does not decode the sequence as its tokens' texts joined")
    offsets = _char_offsets(tokens, own)
    if mask.dense:
        _verify_rows(trajectory, stitched, mask, text, offsets)
        return
    generated = _packed(stitched, "generated")
    bounds = mask.bounds
    for turn_no, (turn, a, b) in enumerate(zip(trajectory.turns, bounds[1:], bounds[2:]), 1):
        flags = generated[a:b].tobytes()  # the turn's tokens, 1 where generated
        first = flags.find(1)
        if first < 0:
            continue
        if _text_of(text, offsets, (*mask.bases[turn_no], (a, a + first))) != turn.context_snapshot:
            raise IntegrityError(
                f"token {a + first} (turn {turn_no}): visible tokens decode to a different context"
            )
        # Row k of a turn held as ranges is row k - 1 plus token k - 1, so the
        # rule holds exactly where the generated tokens are consecutive.
        gap = flags.find(0, first)
        later = flags.find(1, gap) if gap >= 0 else -1
        if later >= 0:
            raise IntegrityError(
                f"token {a + later} (turn {turn_no}): row is not the previous row plus one token"
            )


def _verify_rows(
    trajectory: TrajectoryRecord,
    stitched: StitchedTrajectory,
    mask: Mask2D,
    text: str,
    offsets: Sequence[int],
) -> None:
    """verify_masks for a mask held as words."""
    import numpy as np

    for turn_no, turn in enumerate(trajectory.turns, 1):
        gen_idx = np.flatnonzero((stitched.turn_of == turn_no) & stitched.generated)
        if gen_idx.size == 0:
            continue
        first = int(gen_idx[0])
        if _text_of(text, offsets, _runs(visible_tokens(mask, first))) != turn.context_snapshot:
            raise IntegrityError(
                f"token {first} (turn {turn_no}): visible tokens decode to a different context"
            )
        # Each later row must be the previous generated row plus that row's own token.
        prev = gen_idx[:-1]
        expected = mask.words[prev]
        expected[np.arange(prev.size), prev >> 6] |= np.uint64(1) << (prev & 63).astype(np.uint64)
        bad = np.flatnonzero((mask.words[gen_idx[1:]] != expected).any(axis=1))
        if bad.size:
            k = int(gen_idx[1 + bad[0]])
            raise IntegrityError(
                f"token {k} (turn {turn_no}): row is not the previous row plus one token"
            )


def _runs(indices: np.ndarray) -> list[tuple[int, int]]:
    """Ascending indices as (start, end) runs of consecutive ones."""
    import numpy as np

    if indices.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(indices) != 1) + 1
    starts = indices[np.concatenate(([0], cuts))]
    ends = indices[np.concatenate((cuts - 1, [indices.size - 1]))] + 1
    return list(zip(starts.tolist(), ends.tolist()))


def _index_rows(mask: Mask2D):
    """Yield the index_list rows a block of whole rows at a time: each row's
    count, then the indices it sees in order."""
    import numpy as np

    n = mask.n
    for k0 in range(0, n, _ROW_BLOCK):
        block = np.ascontiguousarray(mask.words[k0 : k0 + _ROW_BLOCK], dtype="<u8")
        visible = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little")[:, :n].view(bool)
        table = np.empty((visible.shape[0], n + 1), dtype="<u4")
        table[:, 0] = np.count_nonzero(visible, axis=1)
        table[:, 1:] = np.arange(n)
        keep = np.empty(table.shape, dtype=bool)
        keep[:, 0] = True
        keep[:, 1:] = visible
        yield table[keep]


def _little_endian(items: memoryview | array) -> memoryview | array:
    """Packed native items as the container stores them: as they are on a
    little-endian host, a byteswapped copy on a big-endian one."""
    if not _SWAP:
        return items
    swapped = array(memoryview(items).format, items)
    swapped.byteswap()
    return swapped


def _payload(stitched: StitchedTrajectory, mask2d: Mask2D, mask1d: Mask1D, fmt: str):
    # The packed columns are the container's columns: on a little-endian
    # host they are written as they are.
    yield _little_endian(_packed(stitched, "tokens"))
    yield _little_endian(_packed(stitched, "positions"))
    yield _packed(mask1d, "loss")
    yield _packed(stitched, "segments")
    yield _little_endian(_packed(stitched, "turn_of"))
    if fmt == "dense_bitpack":
        import numpy as np

        # On a little-endian host the rows are written straight from the mask.
        yield np.ascontiguousarray(mask2d.words, dtype="<u8")
    elif fmt == "index_list":
        yield from _index_rows(mask2d)
    else:
        if mask2d.bases is None or stitched.strings is None:
            raise ValueError(
                "the ranges format needs a mask held as ranges and a string table; "
                "export a mask imported as dense rows as dense_bitpack or index_list"
            )
        ranges = array("I", [len(mask2d.bases)])
        for base in mask2d.bases:
            ranges.append(len(base))
            ranges.extend(chain.from_iterable(base))
        yield _little_endian(ranges)
        encoded = [text.encode("utf-8", "surrogatepass") for text in stitched.strings]
        yield _little_endian(array("I", [len(encoded), *map(len, encoded)]))
        yield b"".join(encoded)


def export_masks(
    stitched: StitchedTrajectory,
    mask2d: Mask2D,
    mask1d: Mask1D,
    counter_id: str,
    fmt: str = "ranges",
) -> bytes:
    """Serialize a stitched sequence and its masks to the binary container.

    ranges writes the mask's base ranges and the sequence's string table, so
    it needs a mask held as ranges (from build_masks or a ranges container).
    The string table is the whole vocabulary of the counter the sequence was
    stitched with; see stitch() for why that counter should be a fresh one.
    """
    if fmt not in _VERSIONS:
        raise ValueError(f"unknown mask format {fmt!r}")
    header = {"n": stitched.n, "counter_id": counter_id, "format": fmt}
    digest = hashlib.sha256(_canonical(header))
    # The header's length does not depend on its hash, so the payload goes
    # straight into its place in the container, hashed on the way, and the
    # header is put in front of it last: the payload is never held twice.
    header_len = len(_canonical(header | {"sha256": digest.hexdigest()}))
    out = io.BytesIO()
    out.seek(len(MAGIC) + _PREFIX.size + header_len)
    for part in _payload(stitched, mask2d, mask1d, fmt):
        digest.update(part)
        out.write(part)
    header["sha256"] = digest.hexdigest()
    out.seek(0)
    out.write(MAGIC + _PREFIX.pack(_VERSIONS[fmt][-1], header_len) + _canonical(header))
    return out.getvalue()


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _digest(version: int, header: dict, payload: memoryview) -> str:
    """The container hash: the payload alone in version 1; from version 2
    the other header fields first, so they are covered too."""
    h = hashlib.sha256()
    if version >= 2:
        h.update(_canonical({k: v for k, v in header.items() if k != "sha256"}))
    h.update(payload)
    return h.hexdigest()


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


def _rows_from_index_lists(stream: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Bitpack n index_list rows from the front of a u32 stream; returns the
    rows and the number of u32 read."""
    import numpy as np

    heads = np.empty(n + 1, dtype=np.int64)  # where each row's count sits, then the end
    at = 0
    for k in range(n):
        if at >= stream.size:
            raise IntegrityError("mask payload truncated")
        heads[k] = at
        at += 1 + int(stream[at])
    if at > stream.size:
        raise IntegrityError("mask payload truncated")
    heads[n] = at
    counts = np.diff(heads) - 1
    width = (n + 63) // 64
    rows = np.zeros((n, width), dtype=np.uint64)
    for k0 in range(0, n, _ROW_BLOCK):
        k1 = min(k0 + _ROW_BLOCK, n)
        chunk = stream[heads[k0] : heads[k1]]
        keep = np.ones(chunk.size, dtype=bool)
        keep[heads[k0:k1] - heads[k0]] = False
        cols = chunk[keep]
        if cols.size and int(cols.max()) >= n:
            raise IntegrityError("index_list row names a token past the end of the sequence")
        bits = np.zeros((k1 - k0) * 64 * width, dtype=bool)  # the block's rows, end to end
        row_starts = np.arange(0, bits.size, 64 * width)
        bits[np.repeat(row_starts, counts[k0:k1]) + cols] = True
        rows[k0:k1] = np.packbits(bits.reshape(k1 - k0, -1), axis=1, bitorder="little").view("<u8")
    return rows, at


def import_masks(data: bytes) -> tuple[StitchedTrajectory, Mask2D, Mask1D, dict]:
    """Parse the binary container, verifying magic, version, header and hash.

    Every malformed input, truncated or altered anywhere, raises
    IntegrityError. So does a ranges container that is signed but unsound,
    since anyone can re-sign one: ranges that are unsorted, overlap or reach
    past their turn's first token, a decreasing turn_of, a token id outside
    the string table, or a string table that is not UTF-8. So does a loss
    byte other than 0 and 1, in any format. A ranges container comes back as
    a mask held as ranges, with the sequence's bases and string table filled
    in and no dense row built, and is read without numpy. The columns are
    views of data, not copies, and so are dense_bitpack rows: read-only when
    data is bytes. generated and loss are one column.
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
    if _digest(version, header, payload) != header["sha256"]:
        raise IntegrityError("mask payload hash mismatch")
    n = header["n"]
    pos = 0

    def take(count: int) -> memoryview:
        nonlocal pos
        chunk = payload[pos : pos + count]
        if len(chunk) != count:
            raise IntegrityError("mask payload truncated")
        pos += count
        return chunk

    def take_u32(count: int) -> memoryview:
        return _items(take(4 * count), "I")

    tokens = _items(take(4 * n), "i")
    positions = _items(take(4 * n), "i")
    loss = take(n)
    if loss.tobytes().translate(None, b"\x00\x01"):
        raise IntegrityError("loss column holds a byte other than 0 and 1")
    segments = take(n)
    turn_of = _items(take(2 * n), "H")
    bases = strings = None
    if fmt == "dense_bitpack":
        import numpy as np

        width = (n + 63) // 64
        mask = Mask2D(n, words=np.frombuffer(take(8 * n * width), dtype="<u8").reshape(n, width))
    elif fmt == "index_list":
        import numpy as np

        stream = np.frombuffer(payload[pos : pos + (len(payload) - pos) // 4 * 4], dtype="<u4")
        rows, used = _rows_from_index_lists(stream, n)
        pos += 4 * used
        mask = Mask2D(n, words=rows)
    else:
        turn_list = turn_of.tolist()
        if turn_list != sorted(turn_list):
            raise IntegrityError("turn_of decreases")
        turns = take_u32(1)[0]
        if turns > (len(payload) - pos) // 4 or (n and turn_list[-1] >= turns):
            raise IntegrityError(f"mask payload truncated or short of turns: {turns} turns")
        bounds = _bounds(turn_list, turns)
        bases = []
        for turn in range(turns):
            edges = take_u32(2 * take_u32(1)[0]).tolist()
            if edges != sorted(edges) or (edges and edges[-1] > bounds[turn]):
                raise IntegrityError(
                    f"turn {turn}: base ranges are unsorted, overlap or reach past the turn's first token"
                )
            bases.append(tuple(zip(edges[0::2], edges[1::2])))
        ends = list(accumulate(take_u32(take_u32(1)[0])))
        table = bytes(take(ends[-1] if ends else 0))
        try:
            strings = tuple(
                table[a:b].decode("utf-8", "surrogatepass") for a, b in zip([0] + ends, ends)
            )
        except UnicodeDecodeError as exc:
            raise IntegrityError(f"string table is not UTF-8: {exc}") from None
        ids = set(tokens)
        if ids and (min(ids) < 0 or max(ids) >= len(strings)):
            raise IntegrityError("token id outside the string table")
        bases = tuple(bases)
        mask = Mask2D(n, bases=bases, bounds=bounds)
    if pos != len(payload):
        raise IntegrityError("mask payload has trailing bytes")
    stitched = StitchedTrajectory(tokens, segments, turn_of, loss, positions, bases, strings)
    return stitched, mask, Mask1D(loss=loss), header
