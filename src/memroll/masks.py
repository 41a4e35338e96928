"""Stitch episode records into one token sequence with attention and loss masks.

Training on consolidation-style rollouts needs a single stitched sequence in
which every generated token attends to exactly the tokens it could see when it
was sampled: the head once, then, per turn, the previous turn's kept tag
blocks plus injected feedback (consolidate) or everything so far
(full_append). stitch() verifies byte-for-byte that the tokens selected for
each turn decode to the recorded context snapshot and refuses to emit masks
otherwise.

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

# Tokens a later turn may attend to from a kept turn: the tag blocks that are
# re-rendered into the next context, plus the injected feedback.
_RETAINED_CODES = (_IS, _QUERY, _INFO, _HINT)

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
    rollout-context-local. mode is carried for mask construction and is None
    for imported sequences (which arrive with their masks prebuilt).
    """

    tokens: np.ndarray  # int32
    segments: np.ndarray  # uint8
    turn_of: np.ndarray  # uint16
    generated: np.ndarray  # bool
    positions: np.ndarray  # int32
    mode: str | None = "consolidate"

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


def _token_spans(text: str, counter: TokenCounter) -> tuple[list[int], list[tuple[int, int]]]:
    """Encode text and recover each token's character range."""
    ids = counter.encode(text)
    spans = []
    pos = 0
    for token_id in ids:
        piece = counter.decode([token_id])
        spans.append((pos, pos + len(piece)))
        pos += len(piece)
    if pos != len(text):
        raise IntegrityError("token counter does not losslessly segment the text")
    return ids, spans


def stitch(trajectory: TrajectoryRecord, counter: TokenCounter) -> StitchedTrajectory:
    """Concatenate head, generations, and injected feedback into one sequence.

    For every turn the tokens that should reconstruct its context snapshot are
    decoded and compared byte-for-byte against the recorded snapshot; any
    disagreement (tampered records, reordered tag blocks, a lossy counter)
    raises IntegrityError rather than producing wrong masks.
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

    head = turns[0].context_snapshot
    head_ids, _ = _token_spans(head, counter)
    tokens.extend(head_ids)
    segments.extend([_HEAD] * len(head_ids))
    turn_of.extend([0] * len(head_ids))
    generated.extend([False] * len(head_ids))
    positions.extend(range(len(head_ids)))
    head_indices = list(range(len(head_ids)))

    prev_retained: list[int] = []
    prev_info: list[int] = []

    for i, turn in enumerate(turns):
        if i == 0:
            visible = list(head_indices)
        elif mode == "full_append":
            visible = list(range(len(tokens)))
        else:
            visible = head_indices + prev_retained + prev_info
        reconstructed = counter.decode([tokens[j] for j in visible])
        if reconstructed != turn.context_snapshot:
            raise IntegrityError(
                f"turn {i}: stitched tokens do not reproduce the recorded context snapshot"
            )
        if len(visible) != counter.count(turn.context_snapshot):
            raise IntegrityError(f"turn {i}: context token count mismatch")

        base = len(visible)
        raw = turn.generation.text
        gen_ids, char_spans = _token_spans(raw, counter)
        label_ranges = []
        for name, code in (("is", _IS), ("query", _QUERY), ("answer", _ANSWER)):
            span = turn.parsed.spans.get(name)
            if span is not None:
                label_ranges.append((span.start, span.end, code))
        start_index = len(tokens)
        for j, (token_id, (cs, ce)) in enumerate(zip(gen_ids, char_spans)):
            code = _GLUE
            for s, e, c in label_ranges:
                if cs >= s and ce <= e:
                    code = c
                    break
            tokens.append(token_id)
            segments.append(code)
            turn_of.append(i + 1)
            generated.append(True)
            positions.append(base + j)
        gen_indices = list(range(start_index, len(tokens)))

        info_indices: list[int] = []
        if turn.info is not None:
            block = preset.info_open + turn.info + preset.info_close
            info_ids, info_spans = _token_spans(block, counter)
            hint_start = hint_end = -1
            match = _HINT_RE.match(turn.info)
            if match:
                hint_start = len(preset.info_open)
                hint_end = hint_start + match.end()
            info_base = base + len(gen_indices)
            for m, (token_id, (cs, _)) in enumerate(zip(info_ids, info_spans)):
                code = _HINT if hint_start <= cs < hint_end else _INFO
                info_indices.append(len(tokens))
                tokens.append(token_id)
                segments.append(code)
                turn_of.append(i + 1)
                generated.append(False)
                positions.append(info_base + m)

        prev_retained = [k for k in gen_indices if segments[k] in (_IS, _QUERY)]
        prev_info = info_indices

    return StitchedTrajectory(
        tokens=np.asarray(tokens, dtype=np.int32),
        segments=np.asarray(segments, dtype=np.uint8),
        turn_of=np.asarray(turn_of, dtype=np.uint16),
        generated=np.asarray(generated, dtype=bool),
        positions=np.asarray(positions, dtype=np.int32),
        mode=mode,
    )


def _set_bits(row: np.ndarray, indices: np.ndarray) -> None:
    if indices.size == 0:
        return
    words = indices >> 6
    bits = np.uint64(1) << (indices & 63).astype(np.uint64)
    np.bitwise_or.at(row, words, bits)


def build_masks(stitched: StitchedTrajectory) -> tuple[Mask2D, Mask1D]:
    """Derive the visibility and loss masks from a stitched sequence.

    Rows follow the rollout-time rule: a generated token sees its turn's
    context tokens plus the earlier generated tokens of its own turn; injected
    feedback tokens additionally see the whole generation that triggered them.
    """
    if stitched.mode not in ("consolidate", "full_append"):
        raise ValueError("stitched trajectory has no context mode; masks cannot be rebuilt")
    n = stitched.n
    width = (n + 63) // 64
    rows = np.zeros((n, width), dtype=np.uint64)
    segments = stitched.segments
    turn_of = stitched.turn_of
    generated = stitched.generated
    indices = np.arange(n)

    def bit_of(k: int) -> tuple[int, np.uint64]:
        return k >> 6, np.uint64(1) << np.uint64(k & 63)

    # Head tokens attend to their strict prefix.
    head_mask = segments == _HEAD
    head_indices = indices[head_mask]
    running = np.zeros(width, dtype=np.uint64)
    for k in head_indices:
        rows[k] = running
        w, b = bit_of(k)
        running[w] |= b

    max_turn = int(turn_of.max(initial=0))
    for turn in range(1, max_turn + 1):
        in_turn = turn_of == turn
        gen_idx = indices[in_turn & generated]
        info_idx = indices[in_turn & ~generated]
        if stitched.mode == "full_append":
            first = int(gen_idx[0]) if gen_idx.size else int(info_idx[0])
            visible = indices[:first]
        elif turn == 1:
            visible = head_indices
        else:
            prev = turn_of == turn - 1
            kept = prev & np.isin(segments, _RETAINED_CODES)
            visible = np.concatenate([head_indices, indices[kept]])
        base = np.zeros(width, dtype=np.uint64)
        _set_bits(base, visible)
        running = base.copy()
        for k in gen_idx:
            rows[k] = running
            w, b = bit_of(k)
            running = running.copy()
            running[w] |= b
        for k in info_idx:
            rows[k] = running
            w, b = bit_of(k)
            running = running.copy()
            running[w] |= b

    return Mask2D(words=rows, n=n), Mask1D(loss=generated.copy())


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
    """
    pieces = [counter.decode([int(t)]) for t in stitched.tokens]
    indices = np.arange(stitched.n)
    for i, turn in enumerate(trajectory.turns):
        turn_no = i + 1
        gen_idx = indices[(stitched.turn_of == turn_no) & stitched.generated]
        if gen_idx.size == 0:
            continue
        first = int(gen_idx[0])
        vis = visible_tokens(mask, first)
        decoded = "".join(pieces[j] for j in vis)
        if decoded != turn.context_snapshot:
            raise IntegrityError(
                f"token {first} (turn {turn_no}): visible tokens decode to a different context"
            )
        prev_row = mask.words[first]
        prev_k = first
        for k in gen_idx[1:]:
            k = int(k)
            expected = prev_row.copy()
            w, b = prev_k >> 6, np.uint64(1) << np.uint64(prev_k & 63)
            expected[w] |= b
            if not np.array_equal(mask.words[k], expected):
                raise IntegrityError(
                    f"token {k} (turn {turn_no}): row is not the previous row plus one token"
                )
            prev_row = mask.words[k]
            prev_k = k


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
    IntegrityError.
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
        rows = np.frombuffer(take(8 * n * width), dtype="<u8").reshape(n, width).astype(np.uint64)
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
        mode=None,
    )
    return stitched, Mask2D(words=rows, n=n), Mask1D(loss=loss), header
