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
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain

import numpy as np

from .core import IntegrityError, TokenCounter
from .context import HINT_TEMPLATE
from .rollout import TrajectoryRecord

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


@dataclass
class StitchedTrajectory:
    """One episode as a flat token sequence with per-token annotations.

    turn_of is 0 for head tokens and 1-based for turn tokens. positions are
    rollout-context-local. bases[t] holds the (start, end) index ranges turn t
    saw as its context, bases[0] = () for the head. strings is the string
    table: strings[i] is the text of token id i ("" for ids the sequence does
    not use). Both are None for sequences imported from dense_bitpack or
    index_list containers, which carry neither.
    """

    tokens: np.ndarray  # int32
    segments: np.ndarray  # uint8
    turn_of: np.ndarray  # uint16
    generated: np.ndarray  # bool
    positions: np.ndarray  # int32
    bases: tuple[tuple[tuple[int, int], ...], ...] | None = None
    strings: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return int(self.tokens.shape[0])


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
        bounds: np.ndarray | None = None,
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


@dataclass
class Mask1D:
    """Loss mask: True exactly on policy-generated tokens."""

    loss: np.ndarray  # bool


def _token_spans(
    text: str, counter: TokenCounter, strings: dict[int, str]
) -> tuple[list[int], list[int]]:
    """Encode text and return its ids and cumulative character bounds: token j
    covers text[bounds[j]:bounds[j + 1]], so bounds has one entry more than ids.

    strings caches each id's decoded text, so a caller decodes every distinct
    id once however many texts it encodes.
    """
    ids = counter.encode(text)
    for token_id in set(ids).difference(strings):
        strings[token_id] = counter.decode([token_id])
    bounds = list(accumulate(map(len, map(strings.__getitem__, ids)), initial=0))
    if bounds[-1] != len(text):
        raise IntegrityError("token counter does not losslessly segment the text")
    return ids, bounds


def stitch(trajectory: TrajectoryRecord, counter: TokenCounter) -> StitchedTrajectory:
    """Concatenate head, generations, and injected feedback into one sequence.

    This is the one place that decides which tokens a turn sees. For every turn
    the base ranges that should reconstruct its context snapshot are decoded
    and compared byte-for-byte against the recorded snapshot; any disagreement
    (tampered records, reordered tag blocks, a lossy counter) raises
    IntegrityError rather than producing wrong masks. The checked ranges are
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
    turn_of: list[int] = []
    generated: list[bool] = []
    positions: list[int] = []

    def emit(ids: list[int], codes: list[int], turn: int, gen: bool, pos0: int) -> None:
        tokens.extend(ids)
        segments.extend(codes)
        turn_of.extend([turn] * len(ids))
        generated.extend([gen] * len(ids))
        positions.extend(range(pos0, pos0 + len(ids)))

    texts: dict[int, str] = {}
    head_ids, _ = _token_spans(turns[0].context_snapshot, counter, texts)
    emit(head_ids, [_HEAD] * len(head_ids), 0, False, 0)
    head = (0, len(head_ids))
    bases: list[tuple[tuple[int, int], ...]] = [()]  # the head is turn 0
    # The previous turn's is/query runs and info block; turn 1 sees the head alone.
    kept: list[tuple[int, int]] = []

    for i, turn in enumerate(turns):
        visible = [(0, len(tokens))] if mode == "full_append" else [head, *kept]
        context_ids = list(chain.from_iterable(tokens[s:e] for s, e in visible))
        if counter.decode(context_ids) != turn.context_snapshot:
            raise IntegrityError(
                f"turn {i}: stitched tokens do not reproduce the recorded context snapshot"
            )
        if len(context_ids) != counter.count(turn.context_snapshot):
            raise IntegrityError(f"turn {i}: context token count mismatch")
        bases.append(tuple(visible))

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
        emit(gen_ids, gen_codes, i + 1, True, len(context_ids))

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
            emit(info_ids, info_codes, i + 1, False, len(context_ids) + len(gen_ids))
            kept.append((info_start, len(tokens)))

    return StitchedTrajectory(
        tokens=np.asarray(tokens, dtype=np.int32),
        segments=np.asarray(segments, dtype=np.uint8),
        turn_of=np.asarray(turn_of, dtype=np.uint16),
        generated=np.asarray(generated, dtype=bool),
        positions=np.asarray(positions, dtype=np.int32),
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
    # turn_of is non-decreasing, so turn t occupies [bounds[t], bounds[t + 1]).
    bounds = np.searchsorted(stitched.turn_of, np.arange(len(stitched.bases) + 1))
    mask2d = Mask2D(stitched.n, bases=stitched.bases, bounds=bounds)
    return mask2d, Mask1D(loss=stitched.generated.copy())


def _dense_rows(mask: Mask2D) -> np.ndarray:
    """Bitpack the rows of a mask held as ranges."""
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
    if not 0 <= k < mask.n:
        raise IndexError(f"token index {k} out of range for {mask.n} tokens")
    if not mask.dense:
        turn = int(np.searchsorted(mask.bounds, k, side="right")) - 1
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
    Reads only the mask, never the sequence's bases, and builds no dense row
    for a mask held as ranges: its first rows are decoded from the ranges.
    """
    for i, turn in enumerate(trajectory.turns):
        turn_no = i + 1
        gen_idx = np.flatnonzero((stitched.turn_of == turn_no) & stitched.generated)
        if gen_idx.size == 0:
            continue
        first = int(gen_idx[0])
        vis = visible_tokens(mask, first)
        if counter.decode(stitched.tokens[vis].tolist()) != turn.context_snapshot:
            raise IntegrityError(
                f"token {first} (turn {turn_no}): visible tokens decode to a different context"
            )
        if mask.dense:
            # Each later row must be the previous generated row plus that row's own token.
            prev = gen_idx[:-1]
            expected = mask.words[prev]
            expected[np.arange(prev.size), prev >> 6] |= np.uint64(1) << (prev & 63).astype(np.uint64)
            bad = np.flatnonzero((mask.words[gen_idx[1:]] != expected).any(axis=1))
        else:
            # Row k of a turn held as ranges is row k - 1 plus token k - 1, so
            # the rule holds exactly where the generated tokens are consecutive.
            bad = np.flatnonzero(np.diff(gen_idx) != 1)
        if bad.size:
            k = int(gen_idx[1 + bad[0]])
            raise IntegrityError(
                f"token {k} (turn {turn_no}): row is not the previous row plus one token"
            )


def _index_rows(mask: Mask2D):
    """Yield the index_list rows a block of whole rows at a time: each row's
    count, then the indices it sees in order."""
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


def _payload(stitched: StitchedTrajectory, mask2d: Mask2D, mask1d: Mask1D, fmt: str):
    yield stitched.tokens.astype("<i4")
    yield stitched.positions.astype("<i4")
    yield mask1d.loss.astype(np.uint8)
    yield stitched.segments.astype(np.uint8)
    yield stitched.turn_of.astype("<u2")
    if fmt == "dense_bitpack":
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
        ranges = [len(mask2d.bases)]
        for base in mask2d.bases:
            ranges.append(len(base))
            ranges.extend(chain.from_iterable(base))
        yield np.array(ranges, dtype="<u4")
        encoded = [text.encode("utf-8", "surrogatepass") for text in stitched.strings]
        yield np.array([len(encoded), *map(len, encoded)], dtype="<u4")
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


def _rows_from_index_lists(stream: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Bitpack n index_list rows from the front of a u32 stream; returns the
    rows and the number of u32 read."""
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
    the string table, or a string table that is not UTF-8. A ranges container
    comes back as a mask held as ranges, with the sequence's bases and string
    table filled in and no dense row built. dense_bitpack rows are a view over
    data, not a copy, so they are read-only when data is bytes.
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

    def take_u32(count: int) -> np.ndarray:
        return np.frombuffer(take(4 * count), dtype="<u4")

    tokens = np.frombuffer(take(4 * n), dtype="<i4").astype(np.int32)
    positions = np.frombuffer(take(4 * n), dtype="<i4").astype(np.int32)
    loss = np.frombuffer(take(n), dtype=np.uint8).astype(bool)
    segments = np.frombuffer(take(n), dtype=np.uint8).copy()
    turn_of = np.frombuffer(take(2 * n), dtype="<u2").astype(np.uint16)
    stitched = StitchedTrajectory(
        tokens=tokens,
        segments=segments,
        turn_of=turn_of,
        generated=loss.copy(),
        positions=positions,
    )
    if fmt == "dense_bitpack":
        width = (n + 63) // 64
        mask = Mask2D(n, words=np.frombuffer(take(8 * n * width), dtype="<u8").reshape(n, width))
    elif fmt == "index_list":
        stream = np.frombuffer(payload[pos : pos + (len(payload) - pos) // 4 * 4], dtype="<u4")
        rows, used = _rows_from_index_lists(stream, n)
        pos += 4 * used
        mask = Mask2D(n, words=rows)
    else:
        if np.any(turn_of[1:] < turn_of[:-1]):
            raise IntegrityError("turn_of decreases")
        turns = int(take_u32(1)[0])
        if turns > (len(payload) - pos) // 4 or (n and turn_of[-1] >= turns):
            raise IntegrityError(f"mask payload truncated or short of turns: {turns} turns")
        bounds = np.searchsorted(turn_of, np.arange(turns + 1))
        bases = []
        for turn in range(turns):
            edges = take_u32(2 * int(take_u32(1)[0]))
            if np.any(edges[1:] < edges[:-1]) or (edges.size and edges[-1] > bounds[turn]):
                raise IntegrityError(
                    f"turn {turn}: base ranges are unsorted, overlap or reach past the turn's first token"
                )
            bases.append(tuple(zip(edges[0::2].tolist(), edges[1::2].tolist())))
        lengths = take_u32(int(take_u32(1)[0])).astype(np.int64)
        table = bytes(take(int(lengths.sum())))
        ends = np.cumsum(lengths).tolist()
        try:
            strings = tuple(
                table[a:b].decode("utf-8", "surrogatepass") for a, b in zip([0] + ends, ends)
            )
        except UnicodeDecodeError as exc:
            raise IntegrityError(f"string table is not UTF-8: {exc}") from None
        if n and (tokens.min() < 0 or tokens.max() >= len(strings)):
            raise IntegrityError("token id outside the string table")
        stitched.bases, stitched.strings = tuple(bases), strings
        mask = Mask2D(n, bases=stitched.bases, bounds=bounds)
    if pos != len(payload):
        raise IntegrityError("mask payload has trailing bytes")
    return stitched, mask, Mask1D(loss=loss), header
