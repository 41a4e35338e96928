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
sequence's bases, which build_masks() turns into rows.

Token positions restart per rollout-time context: a generated token's position
is its index within the context the policy actually saw, not within the
stitched sequence.

The export container is binary: magic MEM1MASK, a little-endian u16 version,
a u32 header length, a JSON header {n, counter_id, format, sha256}, then the
payload arrays in order (tokens i32, positions i32, loss u8, segments u8,
turn_of u16, mask rows). dense_bitpack rows are ceil(n/64) little-endian u64
words per token, bit i of word w covering token 64*w+i; index_list rows are a
u32 count followed by that many u32 indices. The header is the canonical
(sort_keys) JSON of exactly those four fields. In version 2 the sha256 covers
the canonical JSON of the other three header fields followed by the payload,
so no byte of a container can change unnoticed; version 1 containers, whose
sha256 covers the payload alone, are still read.
"""

from __future__ import annotations

import hashlib
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
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_PREFIX = struct.Struct("<HI")  # version, header length
_HEADER_TYPES = {"counter_id": str, "format": str, "n": int, "sha256": str}


@dataclass
class StitchedTrajectory:
    """One episode as a flat token sequence with per-token annotations.

    turn_of is 0 for head tokens and 1-based for turn tokens. positions are
    rollout-context-local. bases[t] holds the (start, end) index ranges turn t
    saw as its context, bases[0] = () for the head; it is None for imported
    sequences (which arrive with their masks prebuilt).
    """

    tokens: np.ndarray  # int32
    segments: np.ndarray  # uint8
    turn_of: np.ndarray  # uint16
    generated: np.ndarray  # bool
    positions: np.ndarray  # int32
    bases: tuple[tuple[tuple[int, int], ...], ...] | None = None

    @property
    def n(self) -> int:
        return int(self.tokens.shape[0])


@dataclass
class Mask2D:
    """Per-token visibility rows, bitpacked: words[k, w] bit i covers token
    64*w+i. Rows are strictly causal (token k never sees itself)."""

    words: np.ndarray  # uint64, shape (n, ceil(n/64))
    n: int


@dataclass
class Mask1D:
    """Loss mask: True exactly on policy-generated tokens."""

    loss: np.ndarray  # bool


def _token_spans(
    text: str, counter: TokenCounter, sizes: dict[int, int]
) -> tuple[list[int], list[int]]:
    """Encode text and return its ids and cumulative character bounds: token j
    covers text[bounds[j]:bounds[j + 1]], so bounds has one entry more than ids.

    sizes caches each id's decoded length, so a caller decodes every distinct
    id once however many texts it encodes.
    """
    ids = counter.encode(text)
    for token_id in set(ids).difference(sizes):
        sizes[token_id] = len(counter.decode([token_id]))
    bounds = list(accumulate(map(sizes.__getitem__, ids), initial=0))
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
    kept as the result's bases, from which build_masks derives the rows.
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

    sizes: dict[int, int] = {}
    head_ids, _ = _token_spans(turns[0].context_snapshot, counter, sizes)
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

        gen_ids, bounds = _token_spans(turn.generation.text, counter, sizes)
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
            info_ids, bounds = _token_spans(block, counter, sizes)
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
    )


def _set_bits(row: np.ndarray, indices: np.ndarray) -> None:
    if indices.size == 0:
        return
    words = indices >> 6
    bits = np.uint64(1) << (indices & 63).astype(np.uint64)
    np.bitwise_or.at(row, words, bits)


def build_masks(stitched: StitchedTrajectory) -> tuple[Mask2D, Mask1D]:
    """Derive the visibility and loss masks from a stitched sequence.

    Row k is its turn's base ranges (recorded by stitch) plus the earlier
    tokens of its own turn; the head is turn 0, whose base is empty. So a
    generated token sees its turn's context plus the turn's generation so far,
    and injected feedback also sees the whole generation that triggered it.
    """
    if stitched.bases is None:
        raise ValueError("stitched trajectory has no base ranges; masks cannot be rebuilt")
    n = stitched.n
    width = (n + 63) // 64
    rows = np.zeros((n, width), dtype=np.uint64)
    # turn_of is non-decreasing, so turn t occupies [bounds[t], bounds[t + 1]).
    bounds = np.searchsorted(stitched.turn_of, np.arange(len(stitched.bases) + 1))
    for turn, base in enumerate(stitched.bases):
        a, b = int(bounds[turn]), int(bounds[turn + 1])
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
    return Mask2D(words=rows, n=n), Mask1D(loss=stitched.generated.copy())


def visible_tokens(mask: Mask2D, k: int) -> np.ndarray:
    """Ascending indices of the tokens row k attends to."""
    if not 0 <= k < mask.n:
        raise IndexError(f"token index {k} out of range for {mask.n} tokens")
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
    Reads only the dense rows, never the bases they were built from.
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


def _pack_rows(mask: Mask2D, fmt: str) -> bytes | np.ndarray:
    if fmt == "dense_bitpack":
        # The rows are the largest part of a container; on a little-endian
        # host they are written straight from the mask, without a copy.
        return np.ascontiguousarray(mask.words, dtype="<u8")
    chunks = []
    for k in range(mask.n):
        idx = visible_tokens(mask, k).astype("<u4")
        chunks.append(struct.pack("<I", idx.size))
        chunks.append(idx.tobytes())
    return b"".join(chunks)


def export_masks(
    stitched: StitchedTrajectory,
    mask2d: Mask2D,
    mask1d: Mask1D,
    counter_id: str,
    fmt: str = "dense_bitpack",
) -> bytes:
    """Serialize a stitched sequence and its masks to the binary container."""
    if fmt not in ("dense_bitpack", "index_list"):
        raise ValueError(f"unknown mask format {fmt!r}")
    payload = [
        stitched.tokens.astype("<i4").tobytes(),
        stitched.positions.astype("<i4").tobytes(),
        mask1d.loss.astype(np.uint8).tobytes(),
        stitched.segments.astype(np.uint8).tobytes(),
        stitched.turn_of.astype("<u2").tobytes(),
        _pack_rows(mask2d, fmt),
    ]
    header = {"n": stitched.n, "counter_id": counter_id, "format": fmt}
    header["sha256"] = _digest(FORMAT_VERSION, header, payload)
    header_bytes = _canonical(header)
    # One join: the payload is never held twice.
    return b"".join([MAGIC, _PREFIX.pack(FORMAT_VERSION, len(header_bytes)), header_bytes, *payload])


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _digest(version: int, header: dict, payload_parts: list) -> str:
    """The container hash: the payload alone in version 1; from version 2
    the other header fields first, so they are covered too."""
    h = hashlib.sha256()
    if version >= 2:
        h.update(_canonical({k: v for k, v in header.items() if k != "sha256"}))
    for part in payload_parts:
        h.update(part)
    return h.hexdigest()


def import_masks(data: bytes) -> tuple[StitchedTrajectory, Mask2D, Mask1D, dict]:
    """Parse the binary container, verifying magic, version, header and hash.

    Every malformed input, truncated or altered anywhere, raises
    IntegrityError. dense_bitpack rows are a view over data, not a copy, so
    they are read-only when data is bytes.
    """
    if data[: len(MAGIC)] != MAGIC:
        raise IntegrityError("not a mask container: bad magic")
    offset = len(MAGIC) + _PREFIX.size
    if len(data) < offset:
        raise IntegrityError("mask container truncated before its header")
    version, header_len = _PREFIX.unpack_from(data, len(MAGIC))
    if version not in _READABLE_VERSIONS:
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
    payload = memoryview(data)[offset:]  # read in place, not copied
    if _digest(version, header, [payload]) != header["sha256"]:
        raise IntegrityError("mask payload hash mismatch")
    n = header["n"]
    fmt = header["format"]
    pos = 0

    def take(count: int) -> bytes:
        nonlocal pos
        chunk = payload[pos : pos + count]
        if len(chunk) != count:
            raise IntegrityError("mask payload truncated")
        pos += count
        return chunk

    tokens = np.frombuffer(take(4 * n), dtype="<i4").astype(np.int32)
    positions = np.frombuffer(take(4 * n), dtype="<i4").astype(np.int32)
    loss = np.frombuffer(take(n), dtype=np.uint8).astype(bool)
    segments = np.frombuffer(take(n), dtype=np.uint8).copy()
    turn_of = np.frombuffer(take(2 * n), dtype="<u2").astype(np.uint16)
    width = (n + 63) // 64
    if fmt == "dense_bitpack":
        rows = np.frombuffer(take(8 * n * width), dtype="<u8").reshape(n, width)
    elif fmt == "index_list":
        rows = np.zeros((n, width), dtype=np.uint64)
        for k in range(n):
            (count,) = struct.unpack("<I", take(4))
            idx = np.frombuffer(take(4 * count), dtype="<u4").astype(np.int64)
            _set_bits(rows[k], idx)
    else:
        raise IntegrityError(f"unknown mask format {fmt!r} in header")
    if pos != len(payload):
        raise IntegrityError("mask payload has trailing bytes")
    stitched = StitchedTrajectory(
        tokens=tokens,
        segments=segments,
        turn_of=turn_of,
        generated=loss.copy(),
        positions=positions,
    )
    return stitched, Mask2D(words=rows, n=n), Mask1D(loss=loss), header
