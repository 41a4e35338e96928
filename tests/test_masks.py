"""Trajectory stitching, attention/loss masks, and the mask container format."""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import pickle
import random
import re
import struct
import subprocess
import sys
from array import array
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from memroll import (
    IntegrityError,
    Mask1D,
    RolloutConfig,
    SEGMENT_CODES,
    SEGMENT_NAMES,
    ScriptedEnv,
    ScriptedPolicy,
    StitchedTrajectory,
    Task,
    WordTokenizer,
    build_masks,
    composite_from_tasks,
    export_masks,
    import_masks,
    run_rollout,
    stitch,
    verify_masks,
    visible_tokens,
)
import memroll.masks
from memroll.core import replace
from memroll.masks import FORMAT_VERSION, MAGIC, RANGES_VERSION, Mask2D, _items, _packed

from helpers import random_episode, scripted_episode

HEAD = SEGMENT_CODES["head"]
IS = SEGMENT_CODES["is"]
QUERY = SEGMENT_CODES["query"]
ANSWER = SEGMENT_CODES["answer"]
INFO = SEGMENT_CODES["info"]
HINT = SEGMENT_CODES["hint"]
GLUE = SEGMENT_CODES["glue"]

HINT_RE = re.compile(r"^\[HINT: YOU HAVE \d+ TURNS LEFT\] ")


def stitched(record):
    counter = WordTokenizer()
    return stitch(record, counter), counter


def full_build(record):
    st, counter = stitched(record)
    mask2d, mask1d = build_masks(st)
    return st, counter, mask2d, mask1d


def decode(counter, st, indices) -> str:
    return counter.decode([int(st.tokens[i]) for i in indices])


def popcount(row: np.ndarray) -> int:
    return int(np.unpackbits(row.astype("<u8").view(np.uint8), bitorder="little").sum())


def turn_indices(st, turn: int, *, generated: bool | None = None) -> np.ndarray:
    picked = st.turn_of == turn
    if generated is not None:
        picked &= st.generated == generated
    return np.nonzero(picked)[0]


class EmptyTokensAtTags:
    """One token per character, plus a zero-length token before every '<' and
    after every '>', so adjacent tag blocks share boundary tokens."""

    name = "char-empty-at-tags"

    def encode(self, text: str) -> list[int]:
        ids = []
        for ch in text:
            ids += [0, ord(ch) + 1] if ch == "<" else [ord(ch) + 1, 0] if ch == ">" else [ord(ch) + 1]
        return ids

    def decode(self, ids) -> str:
        return "".join(chr(i - 1) for i in ids if i)

    def count(self, text: str) -> int:
        return len(self.encode(text))


class TestStitch:
    def test_segment_name_codes_align(self):
        assert SEGMENT_NAMES == ("head", "is", "query", "answer", "info", "hint", "glue")
        assert [SEGMENT_CODES[n] for n in SEGMENT_NAMES] == list(range(7))

    def test_arrays_share_length(self):
        rng = random.Random(11)
        for _ in range(5):
            st, _ = stitched(random_episode(rng))
            n = st.n
            for arr in (st.tokens, st.segments, st.turn_of, st.generated, st.positions):
                assert arr.shape == (n,)

    def test_single_turn_structure(self):
        rng = random.Random(3)
        record = scripted_episode(rng, turns=1, ending="answer")
        st, counter = stitched(record)
        n_head = counter.count(record.turns[0].context_snapshot)
        assert list(st.segments[:n_head]) == [HEAD] * n_head
        gen = st.segments[n_head:]
        assert set(gen) <= {IS, ANSWER, GLUE}
        assert IS in gen and ANSWER in gen
        assert list(st.turn_of[:n_head]) == [0] * n_head
        assert list(st.turn_of[n_head:]) == [1] * (st.n - n_head)
        assert not st.generated[:n_head].any()
        assert st.generated[n_head:].all()

    def test_labels_follow_the_containment_rule(self):
        # Per token: the first of is/query/answer that wholly contains it, else
        # glue; in an info block, hint exactly when the token starts inside it.
        rng = random.Random(17)
        counter = EmptyTokensAtTags()
        for _ in range(20):
            record = random_episode(rng)
            st = stitch(record, counter)
            for i, turn in enumerate(record.turns, 1):
                gen = turn_indices(st, i, generated=True)
                bounds = np.cumsum([0] + [len(counter.decode([int(t)])) for t in st.tokens[gen]])
                blocks = [turn.parsed.spans.get(name) for name in ("is", "query", "answer")]
                expected = [
                    next((c for c, sp in zip((IS, QUERY, ANSWER), blocks)
                          if sp and sp.start <= s and e <= sp.end), GLUE)
                    for s, e in zip(bounds[:-1], bounds[1:])
                ]
                assert st.segments[gen].tolist() == expected
                fed = turn_indices(st, i, generated=False)
                if turn.info is None:
                    continue
                match = HINT_RE.match(turn.info)
                hint_end = len(record.config.preset.info_open) + (match.end() if match else 0)
                starts = np.cumsum([0] + [len(counter.decode([int(t)])) for t in st.tokens[fed]])[:-1]
                hinted = [len(record.config.preset.info_open) <= s < hint_end for s in starts]
                assert st.segments[fed].tolist() == [HINT if h else INFO for h in hinted]

    def test_head_appears_once_at_front(self):
        rng = random.Random(4)
        st, counter = stitched(scripted_episode(rng, turns=4))
        head_idx = np.nonzero(st.segments == HEAD)[0]
        assert np.array_equal(head_idx, np.arange(head_idx.size))

    def test_generated_iff_policy_segment(self):
        rng = random.Random(5)
        for _ in range(4):
            st, _ = stitched(random_episode(rng))
            policy_coded = np.isin(st.segments, (IS, QUERY, ANSWER, GLUE))
            assert np.array_equal(st.generated, policy_coded)

    def test_tag_blocks_decode_back(self):
        rng = random.Random(6)
        record = scripted_episode(rng, turns=3, ending="answer")
        st, counter = stitched(record)
        for t, turn in enumerate(record.turns, start=1):
            gen_idx = turn_indices(st, t, generated=True)
            assert decode(counter, st, gen_idx) == turn.generation.text
            for name, code in (("is", IS), ("query", QUERY), ("answer", ANSWER)):
                span = turn.parsed.spans.get(name)
                if span is None:
                    continue
                block = [i for i in gen_idx if st.segments[i] == code]
                assert decode(counter, st, block) == turn.generation.text[span.start : span.end]

    def test_positions_are_context_local(self):
        rng = random.Random(7)
        for mode in ("consolidate", "full_append"):
            record = scripted_episode(rng, mode=mode, turns=4, ending="turn_limit")
            st, counter = stitched(record)
            assert np.array_equal(
                st.positions[st.segments == HEAD],
                np.arange(np.count_nonzero(st.segments == HEAD)),
            )
            for t, turn in enumerate(record.turns, start=1):
                base = counter.count(turn.context_snapshot)
                gen_idx = turn_indices(st, t, generated=True)
                assert np.array_equal(
                    st.positions[gen_idx], base + np.arange(gen_idx.size)
                )
                info_idx = turn_indices(st, t, generated=False)
                assert np.array_equal(
                    st.positions[info_idx],
                    base + gen_idx.size + np.arange(info_idx.size),
                )

    def test_info_block_tokens(self):
        rng = random.Random(8)
        record = scripted_episode(rng, turns=3, ending="answer", hint=True)
        st, counter = stitched(record)
        preset = record.config.preset
        for t, turn in enumerate(record.turns, start=1):
            info_idx = turn_indices(st, t, generated=False)
            if turn.info is None:
                assert info_idx.size == 0
                continue
            block = preset.info_open + turn.info + preset.info_close
            assert decode(counter, st, info_idx) == block
            hint_idx = [i for i in info_idx if st.segments[i] == HINT]
            match = HINT_RE.match(turn.info)
            assert match is not None
            assert decode(counter, st, hint_idx) == match.group(0)
            plain_idx = [i for i in info_idx if st.segments[i] == INFO]
            assert decode(counter, st, plain_idx) == (
                preset.info_open + turn.info[match.end() :] + preset.info_close
            )

    def test_hint_disabled_has_no_hint_tokens(self):
        rng = random.Random(9)
        st, _ = stitched(scripted_episode(rng, turns=3, hint=False))
        assert HINT not in st.segments

    def test_turn_limit_final_turn_keeps_info(self):
        rng = random.Random(10)
        record = scripted_episode(rng, turns=3, ending="turn_limit", hint=True)
        st, counter = stitched(record)
        last_info = turn_indices(st, 3, generated=False)
        assert last_info.size > 0
        assert "0 TURNS LEFT" in decode(counter, st, last_info)

    def test_prompt_style_preset(self):
        rng = random.Random(12)
        record = scripted_episode(rng, turns=3, preset_name="prompt_style")
        st, _ = stitched(record)
        assert IS in st.segments and QUERY in st.segments and INFO in st.segments

    def test_tampered_snapshot_rejected(self):
        rng = random.Random(13)
        record = scripted_episode(rng, turns=3)
        bad_turn = replace(
            record.turns[1],
            context_snapshot=record.turns[1].context_snapshot + "x",
        )
        bad = replace(
            record, turns=(record.turns[0], bad_turn, record.turns[2])
        )
        with pytest.raises(IntegrityError):
            stitch(bad, WordTokenizer())

    def test_tampered_generation_rejected(self):
        # Flipping one query character desynchronizes the retained tuple from
        # the next turn's recorded snapshot.
        rng = random.Random(14)
        record = scripted_episode(rng, turns=3, mode="consolidate")
        close = record.config.preset.query_close
        text = record.turns[0].generation.text
        cut = text.index(close)
        tampered = text[: cut - 1] + "Q" + text[cut:]
        bad_turn = replace(
            record.turns[0],
            generation=replace(record.turns[0].generation, text=tampered),
        )
        bad = replace(record, turns=(bad_turn,) + record.turns[1:])
        with pytest.raises(IntegrityError):
            stitch(bad, WordTokenizer())

    def test_token_boundary_not_in_snapshot_rejected(self):
        # The head ends in a word and the first generation starts with one, so
        # the stitched head/generation boundary splits what re-tokenizing the
        # next turn's snapshot reads as one word.
        task = composite_from_tasks([Task("q1", "Capital of France", ["Paris"])])
        policy = ScriptedPolicy(["Sure<query>capital</query>", "<answer>Paris</answer>"])
        config = RolloutConfig(mode="full_append")
        record = run_rollout(task, policy, ScriptedEnv(["doc"]), config)
        assert record.turns[0].context_snapshot.endswith("France")
        with pytest.raises(IntegrityError, match="turn 1: context token count mismatch"):
            stitch(record, WordTokenizer())

    def test_token_texts_must_join_to_the_text(self):
        # Each id alone decodes to its text uppercased: every length still adds
        # up, and a decode of several ids is right, but the string table would
        # hold the wrong characters.
        class UpperIds(WordTokenizer):
            def decode(self, ids):
                text = super().decode(ids)
                return text.upper() if len(ids) == 1 else text

        record = scripted_episode(random.Random(16), turns=2)
        with pytest.raises(IntegrityError, match="losslessly segment"):
            stitch(record, UpperIds())

    def test_empty_trajectory_rejected(self):
        rng = random.Random(15)
        record = scripted_episode(rng, turns=1)
        with pytest.raises(ValueError):
            stitch(replace(record, turns=()), WordTokenizer())


class TestBuildMasks:
    def test_loss_mask_is_generated_flag(self):
        rng = random.Random(20)
        for _ in range(4):
            st, _, _, mask1d = full_build(random_episode(rng))
            assert np.array_equal(mask1d.loss, st.generated)
            assert int(mask1d.loss.sum()) == int(st.generated.sum())

    def test_injected_tokens_carry_no_loss(self):
        rng = random.Random(21)
        st, _, _, mask1d = full_build(scripted_episode(rng, turns=4, hint=True))
        for code in (HEAD, INFO, HINT):
            assert not mask1d.loss[st.segments == code].any()

    def test_rows_strictly_causal(self):
        rng = random.Random(22)
        for mode in ("consolidate", "full_append"):
            st, _, mask2d, _ = full_build(scripted_episode(rng, mode=mode, turns=3))
            for k in range(st.n):
                vis = visible_tokens(mask2d, k)
                assert k not in vis
                assert vis.size == 0 or vis[-1] < k

    def test_head_rows_are_strict_prefixes(self):
        rng = random.Random(23)
        st, _, mask2d, _ = full_build(scripted_episode(rng, turns=2))
        for k in np.nonzero(st.segments == HEAD)[0]:
            assert np.array_equal(visible_tokens(mask2d, int(k)), np.arange(k))

    def test_first_turn_sees_exactly_the_head(self):
        rng = random.Random(24)
        st, _, mask2d, _ = full_build(scripted_episode(rng, turns=3))
        head_idx = np.nonzero(st.segments == HEAD)[0]
        first_gen = turn_indices(st, 1, generated=True)[0]
        assert np.array_equal(visible_tokens(mask2d, int(first_gen)), head_idx)

    def test_visibility_monotone_within_turn(self):
        rng = random.Random(25)
        for mode in ("consolidate", "full_append"):
            st, _, mask2d, _ = full_build(
                scripted_episode(rng, mode=mode, turns=3, ending="turn_limit")
            )
            for t in range(1, 4):
                idx = turn_indices(st, t)
                for prev, nxt in zip(idx, idx[1:]):
                    grown = set(visible_tokens(mask2d, int(prev)))
                    grown.add(int(prev))
                    assert set(visible_tokens(mask2d, int(nxt))) == grown

    def test_row_population_matches_position(self):
        # Each row holds exactly position-many tokens: the context the token
        # was sampled into plus its offset within the turn.
        rng = random.Random(26)
        for _ in range(4):
            record = random_episode(rng)
            st, counter, mask2d, _ = full_build(record)
            for k in range(st.n):
                assert popcount(mask2d.words[k]) == int(st.positions[k])
            for t, turn in enumerate(record.turns, start=1):
                base = counter.count(turn.context_snapshot)
                for offset, k in enumerate(turn_indices(st, t, generated=True)):
                    assert popcount(mask2d.words[int(k)]) == base + offset

    def test_two_turn_visibility_set(self):
        rng = random.Random(27)
        record = scripted_episode(rng, mode="consolidate", turns=2, ending="answer")
        st, _, mask2d, _ = full_build(record)
        head_idx = np.nonzero(st.segments == HEAD)[0]
        kept = [
            int(i)
            for i in turn_indices(st, 1)
            if st.segments[i] in (IS, QUERY, INFO, HINT)
        ]
        expected = np.array(sorted(list(head_idx) + kept))
        first_gen = int(turn_indices(st, 2, generated=True)[0])
        assert np.array_equal(visible_tokens(mask2d, first_gen), expected)

    def test_consolidate_prunes_two_turns_back(self):
        rng = random.Random(28)
        record = scripted_episode(rng, mode="consolidate", turns=5, ending="answer")
        st, _, mask2d, _ = full_build(record)
        for t in range(3, 6):
            stale = set(int(i) for i in turn_indices(st, t - 2))
            for k in turn_indices(st, t, generated=True):
                vis = set(int(i) for i in visible_tokens(mask2d, int(k)))
                assert not (vis & stale)

    def test_full_append_is_the_causal_triangle(self):
        rng = random.Random(29)
        st, _, mask2d, _ = full_build(
            scripted_episode(rng, mode="full_append", turns=4, ending="turn_limit")
        )
        for k in range(st.n):
            assert np.array_equal(visible_tokens(mask2d, k), np.arange(k))

    def test_rows_match_a_per_token_reference(self):
        # The rule spelled out token by token: row k holds its turn's base
        # ranges plus the earlier tokens of its own turn.
        modes, offset_turns = set(), 0
        for seed in range(16):
            record = random_episode(random.Random(seed))
            modes.add(record.config.mode)
            st, _, mask2d, _ = full_build(record)
            turns, starts, sizes = np.unique(st.turn_of, return_index=True, return_counts=True)
            start_of = dict(zip(turns.tolist(), starts.tolist()))
            offset_turns += int(np.count_nonzero((sizes > 64) & (starts % 64 != 0)))
            expected = np.zeros((st.n, 64 * mask2d.words.shape[1]), dtype=bool)
            for k in range(st.n):
                turn = int(st.turn_of[k])
                for s, e in st.bases[turn]:
                    expected[k, s:e] = True
                expected[k, start_of[turn] : k] = True
            got = np.unpackbits(mask2d.words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
            assert np.array_equal(got.astype(bool), expected)
        assert modes == {"consolidate", "full_append"}
        assert offset_turns > 0  # turns over 64 tokens that start mid-word

    def test_imported_sequences_cannot_rebuild_masks(self):
        rng = random.Random(30)
        st, _, _, _ = full_build(scripted_episode(rng, turns=2))
        orphan = replace(st, bases=None)
        with pytest.raises(ValueError):
            build_masks(orphan)


class TestVisibleTokens:
    def test_out_of_range(self):
        rng = random.Random(40)
        _, _, mask2d, _ = full_build(scripted_episode(rng, turns=1))
        with pytest.raises(IndexError):
            visible_tokens(mask2d, -1)
        with pytest.raises(IndexError):
            visible_tokens(mask2d, mask2d.n)

    def test_decode_reproduces_every_snapshot(self):
        rng = random.Random(41)
        for mode in ("consolidate", "full_append"):
            record = scripted_episode(rng, mode=mode, turns=4, ending="answer")
            st, counter, mask2d, _ = full_build(record)
            for t, turn in enumerate(record.turns, start=1):
                first = int(turn_indices(st, t, generated=True)[0])
                vis = visible_tokens(mask2d, first)
                assert decode(counter, st, vis) == turn.context_snapshot

    def test_info_tokens_see_the_context_they_extended(self):
        rng = random.Random(42)
        record = scripted_episode(rng, turns=3, ending="turn_limit")
        st, counter, mask2d, _ = full_build(record)
        for t, turn in enumerate(record.turns, start=1):
            info_idx = turn_indices(st, t, generated=False)
            if info_idx.size == 0:
                continue
            vis = visible_tokens(mask2d, int(info_idx[0]))
            assert decode(counter, st, vis) == turn.context_snapshot + turn.generation.text


class TestVerifyMasks:
    def test_accepts_fresh_masks(self):
        rng = random.Random(50)
        for mode in ("consolidate", "full_append"):
            record = scripted_episode(rng, mode=mode, turns=3)
            st, counter, mask2d, _ = full_build(record)
            verify_masks(record, st, mask2d, counter)

    def test_counter_must_decode_the_sequence_as_its_tokens_joined(self):
        class SpacedDecode(WordTokenizer):
            def decode(self, ids):
                return " ".join(map(super().decode, ([i] for i in ids)))

        # stitch reads each id's own text only; verify_masks also decodes the
        # whole sequence, which must agree.
        record = scripted_episode(random.Random(54), turns=2)
        spaced = SpacedDecode()
        st = stitch(record, spaced)
        mask2d, _ = build_masks(st)
        with pytest.raises(IntegrityError, match="does not decode the sequence"):
            verify_masks(record, st, mask2d, spaced)

    def test_detects_dropped_visibility(self):
        rng = random.Random(51)
        record = scripted_episode(rng, turns=2)
        st, counter, mask2d, _ = full_build(record)
        first = int(turn_indices(st, 1, generated=True)[0])
        mask2d.words[first, 0] &= ~np.uint64(1)
        with pytest.raises(IntegrityError, match="different context"):
            verify_masks(record, st, mask2d, counter)

    def test_detects_extra_visibility(self):
        rng = random.Random(52)
        record = scripted_episode(rng, turns=2)
        st, counter, mask2d, _ = full_build(record)
        gen = turn_indices(st, 2, generated=True)
        assert gen.size >= 2
        second = int(gen[1])
        mask2d.words[second, mask2d.words.shape[1] - 1] |= np.uint64(1) << np.uint64(63)
        with pytest.raises(IntegrityError, match="previous row plus one"):
            verify_masks(record, st, mask2d, counter)

    def test_names_the_first_offending_token(self):
        rng = random.Random(53)
        record = scripted_episode(rng, turns=3, ending="turn_limit")
        st, counter, mask2d, _ = full_build(record)
        gen = turn_indices(st, 2, generated=True)
        assert gen.size >= 5
        last_word = mask2d.words.shape[1] - 1
        bit = np.uint64(1) << np.uint64(63)
        # Two bad rows in turn 2, the later one corrupted first, and a bad
        # first row in turn 3: the error names turn 2's earlier row.
        for k in (gen[4], gen[2], turn_indices(st, 3, generated=True)[0]):
            mask2d.words[int(k), last_word] ^= bit
        message = f"token {int(gen[2])} (turn 2): row is not the previous row plus one token"
        with pytest.raises(IntegrityError, match=re.escape(message)):
            verify_masks(record, st, mask2d, counter)

    def test_ranges_mask_needs_each_turns_generation_unbroken(self):
        # A mask held as ranges gives row k of a turn row k - 1 plus token
        # k - 1, so a generated token after a non-generated one in the same
        # turn cannot see what the rule says; it is named without building rows.
        record = scripted_episode(random.Random(55), turns=3, ending="turn_limit")
        st, counter, mask2d, _ = full_build(record)
        gen = turn_indices(st, 2, generated=True)
        assert gen.size >= 4
        generated = st.generated.copy()
        generated[gen[1:3]] = False
        holey = replace(st, generated=generated)
        message = f"token {int(gen[3])} (turn 2): row is not the previous row plus one token"
        with pytest.raises(IntegrityError, match=re.escape(message)):
            verify_masks(record, holey, mask2d, counter)
        assert not mask2d.dense


def container_parts(blob: bytes) -> tuple[dict, bytes]:
    (header_len,) = struct.unpack_from("<I", blob, 10)
    header = json.loads(blob[14 : 14 + header_len].decode("utf-8"))
    return header, blob[14 + header_len :]


def forge(header: dict, payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    """Re-sign a container so only the hash check itself stays honest.

    Version 1 hashes the payload alone; version 2 hashes the canonical JSON of
    the other header fields, then the payload.
    """
    header = {k: v for k, v in header.items() if k != "sha256"}
    signed = payload if version == 1 else json.dumps(header, sort_keys=True).encode("utf-8") + payload
    header["sha256"] = hashlib.sha256(signed).hexdigest()
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<H", version) + struct.pack("<I", len(hb)) + hb + payload


class TestExportImport:
    def exported(self, rng, fmt):
        record = scripted_episode(rng, turns=3, ending="answer")
        st, counter, mask2d, mask1d = full_build(record)
        blob = export_masks(st, mask2d, mask1d, counter.name, fmt=fmt)
        return st, mask2d, mask1d, counter, blob

    @pytest.mark.parametrize("fmt", ["dense_bitpack", "index_list", "ranges"])
    def test_round_trip(self, fmt):
        rng = random.Random(60)
        st, mask2d, mask1d, counter, blob = self.exported(rng, fmt)
        st2, mask2, loss2, header = import_masks(blob)
        assert header["n"] == st.n
        assert header["format"] == fmt
        assert header["counter_id"] == counter.name
        assert np.array_equal(st2.tokens, st.tokens)
        assert np.array_equal(st2.positions, st.positions)
        assert np.array_equal(st2.segments, st.segments)
        assert np.array_equal(st2.turn_of, st.turn_of)
        assert np.array_equal(st2.generated, st.generated)
        assert np.array_equal(loss2.loss, mask1d.loss)
        assert np.array_equal(mask2.words, mask2d.words)
        reblob = export_masks(st2, mask2, loss2, counter.name, fmt=fmt)
        assert reblob == blob

    def test_imported_mode_is_none(self):
        rng = random.Random(61)
        _, _, _, _, blob = self.exported(rng, "dense_bitpack")
        st2, _, _, _ = import_masks(blob)
        assert st2.bases is None
        with pytest.raises(ValueError):
            build_masks(st2)

    def test_imported_dense_rows_are_read_only(self):
        rng = random.Random(63)
        _, mask2d, _, _, blob = self.exported(rng, "dense_bitpack")
        _, mask2, _, _ = import_masks(blob)
        assert np.array_equal(mask2.words, mask2d.words)
        with pytest.raises(ValueError):
            mask2.words[0, 0] = 1

    def test_cross_format_equality(self):
        rng = random.Random(62)
        record = scripted_episode(rng, turns=3)
        st, counter, mask2d, mask1d = full_build(record)
        dense = import_masks(export_masks(st, mask2d, mask1d, counter.name, "dense_bitpack"))
        sparse = import_masks(export_masks(st, mask2d, mask1d, counter.name, "index_list"))
        assert np.array_equal(dense[0].tokens, sparse[0].tokens)
        assert np.array_equal(dense[1].words, sparse[1].words)
        assert np.array_equal(dense[2].loss, sparse[2].loss)

    def test_dense_size_formula(self):
        rng = random.Random(63)
        st, _, _, _, blob = self.exported(rng, "dense_bitpack")
        header, payload = container_parts(blob)
        n = st.n
        width = (n + 63) // 64
        header_len = len(json.dumps(header, sort_keys=True).encode("utf-8"))
        assert len(payload) == 12 * n + n * width * 8
        assert len(blob) == 14 + header_len + 12 * n + n * width * 8

    def test_index_list_size_formula(self):
        rng = random.Random(64)
        st, mask2d, _, _, blob = self.exported(rng, "index_list")
        _, payload = container_parts(blob)
        total_visible = sum(popcount(mask2d.words[k]) for k in range(st.n))
        assert len(payload) == 12 * st.n + 4 * st.n + 4 * total_visible

    def test_unknown_export_format(self):
        rng = random.Random(65)
        record = scripted_episode(rng, turns=1)
        st, counter, mask2d, mask1d = full_build(record)
        with pytest.raises(ValueError):
            export_masks(st, mask2d, mask1d, counter.name, fmt="sparse")

    def test_corrupted_payload_rejected(self):
        rng = random.Random(66)
        _, _, _, _, blob = self.exported(rng, "dense_bitpack")
        (header_len,) = struct.unpack_from("<I", blob, 10)
        hit = 14 + header_len + 3
        bad = blob[:hit] + bytes([blob[hit] ^ 0xFF]) + blob[hit + 1 :]
        with pytest.raises(IntegrityError, match="hash"):
            import_masks(bad)

    def test_truncated_rejected(self):
        rng = random.Random(67)
        _, _, _, _, blob = self.exported(rng, "index_list")
        with pytest.raises(IntegrityError):
            import_masks(blob[:-5])

    def test_bad_magic_rejected(self):
        with pytest.raises(IntegrityError, match="magic"):
            import_masks(b"NOTMASKS" + b"\x00" * 32)

    def test_wrong_version_rejected(self):
        rng = random.Random(68)
        _, _, _, _, blob = self.exported(rng, "dense_bitpack")
        bad = MAGIC + struct.pack("<H", FORMAT_VERSION + 1) + blob[10:]
        with pytest.raises(IntegrityError, match="version"):
            import_masks(bad)

    def test_trailing_bytes_rejected(self):
        # A validly signed container whose payload outruns its declared n.
        rng = random.Random(69)
        _, _, _, _, blob = self.exported(rng, "dense_bitpack")
        header, payload = container_parts(blob)
        with pytest.raises(IntegrityError, match="trailing"):
            import_masks(forge(header, payload + b"\x00"))

    def test_unknown_header_format_rejected(self):
        rng = random.Random(70)
        _, _, _, _, blob = self.exported(rng, "dense_bitpack")
        header, payload = container_parts(blob)
        header["format"] = "rle"
        with pytest.raises(IntegrityError, match="format"):
            import_masks(forge(header, payload))

    def test_corrupt_header_rejected(self):
        rng = random.Random(71)
        _, _, _, _, blob = self.exported(rng, "dense_bitpack")
        (header_len,) = struct.unpack_from("<I", blob, 10)
        bad = blob[:14] + b"{" * header_len + blob[14 + header_len :]
        with pytest.raises(IntegrityError, match="header"):
            import_masks(bad)

    @given(junk=hst.binary(max_size=200))
    def test_garbage_is_rejected(self, junk):
        with pytest.raises(IntegrityError):
            import_masks(b"X" + junk)


@functools.cache
def valid_container(fmt: str) -> bytes:
    st, counter, mask2d, mask1d = full_build(scripted_episode(random.Random(72), turns=3))
    return export_masks(st, mask2d, mask1d, counter.name, fmt=fmt)


FORMATS = ("dense_bitpack", "index_list")
ALL_FORMATS = FORMATS + ("ranges",)


def ranges_parts(payload: bytes, n: int) -> tuple[bytes, list, list, bytes]:
    """Split a ranges payload into its columns, each turn's (start, end)
    pairs, the string table's byte lengths and its bytes."""
    at = 12 * n

    def u32s(count: int) -> list[int]:
        nonlocal at
        values = list(struct.unpack_from(f"<{count}I", payload, at))
        at += 4 * count
        return values

    turns = [list(zip(*[iter(u32s(2 * u32s(1)[0]))] * 2)) for _ in range(u32s(1)[0])]
    lengths = u32s(u32s(1)[0])
    return payload[: 12 * n], turns, lengths, payload[at:]


def ranges_payload(columns: bytes, turns: list, lengths: list, table: bytes) -> bytes:
    words = [len(turns)]
    for ranges in turns:
        words += [len(ranges), *chain.from_iterable(ranges)]
    words += [len(lengths), *lengths]
    return columns + struct.pack(f"<{len(words)}I", *words) + table


class TestMalformedContainers:
    """Every malformed input raises IntegrityError, so the CLI exits 3."""

    def test_buffer_shorter_than_prefix(self):
        with pytest.raises(IntegrityError, match="truncated"):
            import_masks(MAGIC + b"\x01")

    def test_header_without_n(self):
        header, payload = container_parts(valid_container("dense_bitpack"))
        del header["n"]
        with pytest.raises(IntegrityError, match="header"):
            import_masks(forge(header, payload))

    @pytest.mark.parametrize("header_bytes", [b"[]", b'"n"', b"null", b"{}"])
    def test_header_not_an_object_of_the_four_fields(self, header_bytes):
        blob = MAGIC + struct.pack("<HI", FORMAT_VERSION, len(header_bytes)) + header_bytes
        with pytest.raises(IntegrityError, match="header"):
            import_masks(blob)

    @pytest.mark.parametrize("field, value", [("n", "12"), ("n", -1), ("n", True), ("format", 1)])
    def test_header_field_of_wrong_type_or_range(self, field, value):
        header, payload = container_parts(valid_container("dense_bitpack"))
        header[field] = value
        with pytest.raises(IntegrityError, match="header"):
            import_masks(forge(header, payload))

    def test_short_payload_rejected(self):
        header, payload = container_parts(valid_container("dense_bitpack"))
        with pytest.raises(IntegrityError, match="mask payload truncated"):
            import_masks(forge(header, payload[: 4 * header["n"] - 1]))

    def test_non_canonical_header_rejected(self):
        blob = valid_container("dense_bitpack")
        (header_len,) = struct.unpack_from("<I", blob, 10)
        spaced = blob[14 : 14 + header_len].replace(b": ", b":\t", 1)
        bad = blob[:10] + struct.pack("<I", len(spaced)) + spaced + blob[14 + header_len :]
        with pytest.raises(IntegrityError, match="canonical"):
            import_masks(bad)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_version_1_container_still_read(self, fmt):
        blob = valid_container(fmt)
        header, payload = container_parts(blob)
        st1, mask1, loss1, header1 = import_masks(forge(header, payload, version=1))
        st2, mask2, loss2, header2 = import_masks(blob)
        assert header1 == header2 | {"sha256": header1["sha256"]}
        assert np.array_equal(st1.tokens, st2.tokens)
        assert np.array_equal(mask1.words, mask2.words)
        assert np.array_equal(loss1.loss, loss2.loss)

    def test_counter_id_is_covered_by_the_hash(self):
        blob = valid_container("dense_bitpack")
        header, payload = container_parts(blob)
        header["counter_id"] = "other"
        resigned_payload_only = forge(header, payload, version=1)
        as_v2 = MAGIC + struct.pack("<H", FORMAT_VERSION) + resigned_payload_only[10:]
        with pytest.raises(IntegrityError, match="hash"):
            import_masks(as_v2)

    @given(fmt=hst.sampled_from(ALL_FORMATS), data=hst.data())
    def test_any_truncation_rejected(self, fmt, data):
        blob = valid_container(fmt)
        cut = data.draw(hst.integers(0, len(blob) - 1))
        with pytest.raises(IntegrityError):
            import_masks(blob[:cut])

    @given(fmt=hst.sampled_from(ALL_FORMATS), data=hst.data())
    def test_any_single_byte_flip_rejected(self, fmt, data):
        blob = valid_container(fmt)
        pos = data.draw(hst.integers(0, len(blob) - 1))
        flip = data.draw(hst.integers(1, 255))
        bad = blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1 :]
        with pytest.raises(IntegrityError):
            import_masks(bad)


    @given(fmt=hst.sampled_from(ALL_FORMATS), data=hst.data())
    def test_loss_is_one_bit_per_byte(self, fmt, data):
        # export writes 0 or 1 per loss byte; a re-signed container with any
        # other byte is refused rather than read as True.
        header, payload = container_parts(valid_container(fmt))
        n = header["n"]
        at = 8 * n + data.draw(hst.integers(0, n - 1))
        bad = bytearray(payload)
        bad[at] = data.draw(hst.integers(2, 255))
        version = RANGES_VERSION if fmt == "ranges" else FORMAT_VERSION
        with pytest.raises(IntegrityError, match="loss column"):
            import_masks(forge(header, bytes(bad), version))

    @pytest.mark.parametrize("fmt, size", [("i", 4), ("H", 2), ("I", 4)])
    def test_partial_item_is_an_integrity_error(self, fmt, size):
        for cut in range(1, size):
            with pytest.raises(IntegrityError, match="whole number"):
                _items(memoryview(bytes(2 * size + cut)), fmt)
        assert _items(memoryview(bytes(2 * size)), fmt).tolist() == [0, 0]


def forged_ranges(edit) -> bytes:
    """The ranges test container with edit(header, columns, turns, lengths,
    table) applied to its parts, re-signed."""
    header, payload = container_parts(valid_container("ranges"))
    columns, turns, lengths, table = ranges_parts(payload, header["n"])
    columns, table = bytearray(columns), bytearray(table)
    edit(header, columns, turns, lengths, table)
    return forge(header, ranges_payload(bytes(columns), turns, lengths, bytes(table)), RANGES_VERSION)


def _id_past_table(header, columns, turns, lengths, table):
    struct.pack_into("<i", columns, 0, len(lengths))


def _negative_id(header, columns, turns, lengths, table):
    struct.pack_into("<i", columns, 0, -1)


def _first_multi_range_turn(turns):
    return next(t for t, ranges in enumerate(turns) if len(ranges) >= 2)


def _swap_ranges(header, columns, turns, lengths, table):
    t = _first_multi_range_turn(turns)
    turns[t][0], turns[t][1] = turns[t][1], turns[t][0]


def _overlap_ranges(header, columns, turns, lengths, table):
    t = _first_multi_range_turn(turns)
    (s0, e0), (s1, e1) = turns[t][:2]
    turns[t][1] = (e0 - 1, e1)


def _reach_into_turn(header, columns, turns, lengths, table):
    # Turn 1 sees the head, which ends where turn 1 begins.
    (s, e), = turns[1]
    turns[1][0] = (s, e + 1)


def _head_sees_itself(header, columns, turns, lengths, table):
    turns[0].append((0, 1))


def _decreasing_turn_of(header, columns, turns, lengths, table):
    n = header["n"]
    struct.pack_into("<H", columns, 10 * n + 2 * (n - 1), 0)


def _turn_without_ranges(header, columns, turns, lengths, table):
    turns.pop()


def _table_overruns(header, columns, turns, lengths, table):
    lengths[-1] += 1


def _table_not_utf8(header, columns, turns, lengths, table):
    table[0] = 0xFF


class TestRangesContainer:
    def test_version_follows_the_format(self):
        versions = {fmt: struct.unpack_from("<H", valid_container(fmt), 8)[0] for fmt in ALL_FORMATS}
        assert versions == {"dense_bitpack": 2, "index_list": 2, "ranges": 3}

    def test_import_holds_ranges_and_string_table(self):
        st, counter, mask2d, mask1d = full_build(scripted_episode(random.Random(73), turns=4))
        st2, mask2, _, header = import_masks(export_masks(st, mask2d, mask1d, counter.name))
        assert header["format"] == "ranges"
        assert not mask2.dense
        assert st2.bases == st.bases and mask2.bases == st.bases
        assert st2.strings == tuple(counter.decode([i]) for i in range(counter.vocab_size()))
        assert all(
            np.array_equal(visible_tokens(mask2, k), visible_tokens(mask2d, k)) for k in range(st.n)
        )
        assert not mask2.dense and not mask2d.dense  # no row was built to answer that
        assert np.array_equal(mask2.words, mask2d.words)

    def test_size_formula(self):
        st, counter, mask2d, mask1d = full_build(scripted_episode(random.Random(74), turns=5))
        _, payload = container_parts(export_masks(st, mask2d, mask1d, counter.name, "ranges"))
        ranges = sum(len(base) for base in st.bases)
        table = sum(len(text.encode("utf-8")) for text in st.strings)
        expected = 12 * st.n + 4 + 4 * len(st.bases) + 8 * ranges + 4 + 4 * len(st.strings) + table
        assert len(payload) == expected

    def test_lone_surrogates_survive_the_string_table(self):
        task = composite_from_tasks([Task("q1", "Which \ud800 glyph?", ["x"])])
        policy = ScriptedPolicy(["<IS>odd \udfff</IS><query>glyph</query>", "<answer>x</answer>"])
        record = run_rollout(task, policy, ScriptedEnv(["a \ud83d b"]), RolloutConfig())
        st, counter, mask2d, mask1d = full_build(record)
        st2, mask2, _, _ = import_masks(export_masks(st, mask2d, mask1d, counter.name, "ranges"))
        assert {"\ud800", "\udfff", "\ud83d"} <= set(st2.strings)
        verify_masks(record, st2, mask2, counter)

    def test_dense_import_cannot_be_written_as_ranges(self):
        st2, mask2, loss2, _ = import_masks(valid_container("dense_bitpack"))
        with pytest.raises(ValueError, match="ranges"):
            export_masks(st2, mask2, loss2, "c", fmt="ranges")

    def test_index_list_round_trips_arbitrary_rows(self):
        # Rows held as words, with gaps, runs across word boundaries and
        # empty rows, written from the words and read back bit for bit.
        rng = np.random.default_rng(75)
        for n in (1, 63, 64, 65, 300, 700):
            bits = rng.random((n, n)) < rng.choice([0.02, 0.5, 0.97])
            bits[rng.random(n) < 0.1] = False
            words = np.packbits(
                np.pad(bits, ((0, 0), (0, -n % 64))), axis=1, bitorder="little"
            ).view("<u8")
            st = StitchedTrajectory(
                tokens=np.zeros(n, np.int32), segments=np.zeros(n, np.uint8),
                turn_of=np.zeros(n, np.uint16), generated=np.zeros(n, bool),
                positions=np.zeros(n, np.int32),
            )
            mask = Mask2D(n, words=words.copy())
            blob = export_masks(st, mask, Mask1D(loss=st.generated), "c", fmt="index_list")
            _, payload = container_parts(blob)
            assert len(payload) == 12 * n + 4 * n + 4 * int(bits.sum())
            assert np.array_equal(import_masks(blob)[1].words, words)

    @pytest.mark.parametrize("version", [1, FORMAT_VERSION])
    def test_ranges_only_in_version_3(self, version):
        header, payload = container_parts(valid_container("ranges"))
        with pytest.raises(IntegrityError, match="version"):
            import_masks(forge(header, payload, version))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_dense_formats_not_in_version_3(self, fmt):
        header, payload = container_parts(valid_container(fmt))
        with pytest.raises(IntegrityError, match="version"):
            import_masks(forge(header, payload, RANGES_VERSION))

    def test_forged_but_sound_container_is_read(self):
        blob = forged_ranges(lambda *parts: None)
        assert blob == valid_container("ranges")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_swap_ranges, "unsorted"),
            (_overlap_ranges, "overlap"),
            (_reach_into_turn, "first token"),
            (_head_sees_itself, "first token"),
            (_decreasing_turn_of, "turn_of decreases"),
            (_turn_without_ranges, "short of turns"),
            (_id_past_table, "string table"),
            (_negative_id, "string table"),
            (_table_overruns, "truncated"),
            (_table_not_utf8, "UTF-8"),
        ],
        ids=[
            "unsorted", "overlapping", "past-first-token", "head-sees-itself", "decreasing-turn_of",
            "turn-without-ranges", "id-past-table", "negative-id", "table-overruns", "table-not-utf8",
        ],
    )
    def test_signed_but_unsound_container_rejected(self, edit, message):
        with pytest.raises(IntegrityError, match=message):
            import_masks(forged_ranges(edit))


COLUMNS = {
    "tokens": np.int32, "segments": np.uint8, "turn_of": np.uint16,
    "generated": np.bool_, "positions": np.int32,
}

# n and the loss count of random_episode(Random(seed)), as the numpy columns
# gave them before the columns were held packed.
PINNED = {95: ("consolidate", 1550, 384), 96: ("full_append", 1376, 314)}


def column_sources(seed: int):
    """(source, sequence, loss mask, container or None): the stitched
    sequence, then the sequence imported from each format."""
    st, counter, mask2d, mask1d = full_build(random_episode(random.Random(seed)))
    yield "stitch", st, mask1d, None
    for fmt in ALL_FORMATS:
        blob = export_masks(st, mask2d, mask1d, counter.name, fmt=fmt)
        st2, _, loss2, _ = import_masks(blob)
        yield fmt, st2, loss2, blob


class TestPackedColumns:
    """The columns are held packed in the container's layout; read as
    attributes they are numpy arrays of the dtypes they always had."""

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_columns_are_cached_views_of_their_dtype(self, seed):
        for source, st, mask1d, blob in column_sources(seed):
            owners = [(st, name, dtype) for name, dtype in COLUMNS.items()] + [(mask1d, "loss", np.bool_)]
            for owner, name, dtype in owners:
                column = getattr(owner, name)
                assert type(column) is np.ndarray and column.dtype == dtype, (source, name)
                assert column.shape == (st.n,)
                assert getattr(owner, name) is column
                assert np.shares_memory(column, np.frombuffer(_packed(owner, name), np.uint8))
                if blob is not None:  # imported columns are read in place
                    assert np.shares_memory(column, np.frombuffer(blob, np.uint8))

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_counts_keep_their_values(self, seed):
        mode, n, generated = PINNED[seed]
        assert random_episode(random.Random(seed)).config.mode == mode
        for source, st, mask1d, blob in column_sources(seed):
            assert st.n == n
            assert int(mask1d.loss.sum()) == int(st.generated.sum()) == generated
            if blob is not None:  # what the benchmark's output check reads
                assert int(import_masks(blob)[2].loss.sum()) == generated

    def test_fields_take_numpy_arrays(self):
        names = list(StitchedTrajectory._fields)
        assert names == ["tokens", "segments", "turn_of", "generated", "positions", "bases", "strings"]
        # The five columns are required; bases and strings default to None.
        columns = [array("i"), array("B"), array("H"), array("B"), array("i")]
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'positions'"):
            StitchedTrajectory(*columns[:4])
        assert (StitchedTrajectory(*columns).bases, StitchedTrajectory(*columns).strings) == (None, None)
        st, _ = stitched(random_episode(random.Random(95)))
        # Another dtype or a strided view is converted to the column's dtype.
        wide = np.arange(2 * st.n, dtype=np.int64)[::2]
        other = replace(st, positions=wide, generated=st.generated.astype(np.uint8))
        assert other.positions.dtype == np.int32 and np.array_equal(other.positions, wide)
        assert other.generated.dtype == np.bool_ and np.array_equal(other.generated, st.generated)
        assert other.bases == st.bases and np.array_equal(other.tokens, st.tokens)
        assert np.shares_memory(other.tokens, st.tokens)  # a right-typed array is kept, not copied

    def test_pickle_and_deepcopy(self):
        for source, st, mask1d, _ in column_sources(96):
            for copied in (pickle.loads(pickle.dumps(st)), copy.deepcopy(st)):
                assert all(np.array_equal(getattr(copied, c), getattr(st, c)) for c in COLUMNS)
                assert (copied.bases, copied.strings) == (st.bases, st.strings)
            assert np.array_equal(pickle.loads(pickle.dumps(mask1d)).loss, mask1d.loss)

    def test_records_print_as_the_dataclasses_did(self):
        # The text the mutable dataclass versions printed; they are frozen
        # records now, unhashable by their array fields as before.
        st = StitchedTrajectory(array("i", [3, 1]), array("B", [0, 2]), array("H", [0, 1]), array("B", [0, 1]),
                                array("i", [0, 0]), ((), ((0, 1),)), ("a", "b", "", "d"))
        loss = Mask1D(loss=bytearray(b"\x00\x01"))
        assert repr(st) == (
            "StitchedTrajectory(tokens=array([3, 1], dtype=int32), segments=array([0, 2], dtype=uint8), "
            "turn_of=array([0, 1], dtype=uint16), generated=array([False,  True]), "
            "positions=array([0, 0], dtype=int32), bases=((), ((0, 1),)), strings=('a', 'b', '', 'd'))"
        )
        assert repr(loss) == "Mask1D(loss=array([False,  True]))"
        assert st.__eq__(loss) is NotImplemented and loss.__eq__(st) is NotImplemented
        for obj in (st, loss):
            with pytest.raises(TypeError):
                hash(obj)
            with pytest.raises(AttributeError):
                obj.bases = None

    def test_big_endian_host_swaps_the_packed_columns(self, monkeypatch):
        # Packed columns are native, so a big-endian host byteswaps them on
        # the way out and in; a little-endian host made to swap plays one.
        st, counter, mask2d, mask1d = full_build(random_episode(random.Random(95)))
        blob = export_masks(st, mask2d, mask1d, counter.name)
        monkeypatch.setattr(memroll.masks, "_SWAP", True)
        swapped = export_masks(st, mask2d, mask1d, counter.name)
        (_, payload), (_, big) = container_parts(blob), container_parts(swapped)
        n = st.n
        for at, width in ((0, 4 * n), (4 * n, 4 * n), (10 * n, 2 * n)):
            item = 2 if at == 10 * n else 4
            assert np.array_equal(
                np.frombuffer(big[at : at + width], f">u{item}"),
                np.frombuffer(payload[at : at + width], f"<u{item}"),
            )
        assert big[8 * n : 10 * n] == payload[8 * n : 10 * n]  # loss and segments are bytes
        st2, mask2, loss2, _ = import_masks(swapped)
        for name in COLUMNS:
            assert _packed(st2, name) == _packed(st, name), name
        assert _packed(loss2, "loss") == _packed(mask1d, "loss")
        assert (mask2.bases, st2.strings) == (mask2d.bases, st.strings)

    def test_default_path_leaves_numpy_unloaded(self):
        # stitch, n, build_masks, a ranges export, import and verify run on
        # the standard library; reading a column as an array loads numpy.
        code = (
            "import sys\n"
            "from memroll import RolloutConfig, ScriptedEnv, ScriptedPolicy, Task, WordTokenizer\n"
            "from memroll import build_masks, composite_from_tasks, export_masks, import_masks\n"
            "from memroll import run_rollout, stitch, verify_masks\n"
            "task = composite_from_tasks([Task('q1', 'Which glyph?', ['x'])])\n"
            "policy = ScriptedPolicy(['<IS>odd</IS><query>glyph</query>', '<answer>x</answer>'])\n"
            "record = run_rollout(task, policy, ScriptedEnv(['a b']), RolloutConfig())\n"
            "counter = WordTokenizer()\n"
            "st = stitch(record, counter)\n"
            "mask2d, mask1d = build_masks(st)\n"
            "st2, mask2, loss2, _ = import_masks(export_masks(st, mask2d, mask1d, counter.name))\n"
            "verify_masks(record, st2, mask2, counter)\n"
            "print(st.n > 0, st2.n == st.n, 'numpy' in sys.modules)\n"
            "print(int(loss2.loss.sum()) > 0, 'numpy' in sys.modules)\n"
        )
        src = str(Path(memroll.masks.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        assert out.splitlines() == ["True True False", "True True"]


class TestAttentionReplay:
    """What the mask is for: one attention layer over the stitched sequence,
    masked with an imported ranges container, gives every generated token the
    output it had over its own turn's rollout-time context."""

    DIM = 8

    def replay(self, rotary):
        """Per turn with generated tokens: (mode, whether the stitched
        positions of the tokens the turn sees differ from their rollout-time
        indices, stitched outputs, rollout outputs)."""
        rng = np.random.default_rng(90)
        wq, wk, wv = (rng.standard_normal((self.DIM, self.DIM)) for _ in range(3))
        embedding: dict[str, np.ndarray] = {}

        def embed(texts):
            for text in texts:
                if text not in embedding:
                    embedding[text] = rng.standard_normal(self.DIM)
            return np.array([embedding[text] for text in texts]).reshape(-1, self.DIM)

        def rotate(v, positions):
            # RoPE: each pair of dimensions turns by position * 10000^(-2i/DIM).
            angle = positions[:, None] * 10000.0 ** (-np.arange(0, self.DIM, 2) / self.DIM)
            cos, sin = np.cos(angle), np.sin(angle)
            out = np.empty_like(v)
            out[:, 0::2] = v[:, 0::2] * cos - v[:, 1::2] * sin
            out[:, 1::2] = v[:, 0::2] * sin + v[:, 1::2] * cos
            return out

        def attend(x, queries, allowed, positions):
            # Single head, float64; rotary positions when asked for, else none.
            q, k = x[queries] @ wq, x @ wk
            if rotary:
                q, k = rotate(q, positions[queries]), rotate(k, positions)
            scores = np.where(allowed, q @ k.T / np.sqrt(self.DIM), -np.inf)
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            return (weights / weights.sum(axis=1, keepdims=True)) @ (x @ wv)

        for seed in range(24):
            record = random_episode(random.Random(seed))
            st, counter, mask2d, mask1d = full_build(record)
            st2, mask2, _, _ = import_masks(export_masks(st, mask2d, mask1d, counter.name, "ranges"))
            pieces = [st2.strings[t] for t in st2.tokens]
            x = embed(pieces)
            allowed = np.unpackbits(
                mask2.words.view(np.uint8), axis=1, bitorder="little"
            )[:, : st2.n].astype(bool) | np.eye(st2.n, dtype=bool)
            positions = st2.positions.astype(np.float64)
            for t, turn in enumerate(record.turns, start=1):
                gen = np.flatnonzero((st2.turn_of == t) & st2.generated)
                if gen.size == 0:
                    continue
                stitched_out = attend(x, gen, allowed[gen], positions)
                # Rollout: the turn's own context and generation, tokenized afresh.
                fresh = WordTokenizer()
                ids = fresh.encode(turn.context_snapshot) + fresh.encode(turn.generation.text)
                texts = [fresh.decode([i]) for i in ids]
                assert texts[-gen.size :] == [pieces[k] for k in gen]
                m = len(texts)
                queries = np.arange(m - gen.size, m)
                causal = np.arange(m)[None, :] <= queries[:, None]
                rollout_out = attend(embed(texts), queries, causal, np.arange(m, dtype=np.float64))
                # The last generated token sees the whole turn, in rollout order.
                seen = np.flatnonzero(allowed[gen[-1]])
                drift = not np.array_equal(st2.positions[seen], np.arange(m))
                yield record.config.mode, drift, stitched_out, rollout_out

    def test_generated_outputs_match_rollout(self):
        modes, compared = [], 0
        for mode, _, stitched_out, rollout_out in self.replay(rotary=False):
            assert np.max(np.abs(stitched_out - rollout_out)) < 1e-9
            modes.append(mode)
            compared += len(stitched_out)
        assert len(modes) >= 20 and set(modes) == {"consolidate", "full_append"}
        assert compared > 1000

    def test_rotary_positions_pin_the_drift(self):
        # Each token keeps the position it had in the turn that emitted it.
        # full_append replays rollout exactly; consolidate moves retained runs
        # and info blocks, so a turn that sees them at new indices attends
        # differently under rotary positions. This pins that known drift.
        turns = {"consolidate": [0, 0], "full_append": [0, 0]}
        for mode, drift, stitched_out, rollout_out in self.replay(rotary=True):
            gap = np.max(np.abs(stitched_out - rollout_out))
            if drift:
                assert gap > 1e-6
            else:
                assert gap < 1e-9
            turns[mode][drift] += 1
        assert turns["full_append"][1] == 0 and turns["full_append"][0] > 0
        assert turns["consolidate"][1] > 0 and turns["consolidate"][0] > 0


class TestOracleProperty:
    """The module's core guarantee on randomized episodes."""

    def test_every_generated_token_sees_its_exact_context(self):
        rng = random.Random(80)
        for _ in range(6):
            record = random_episode(rng)
            st, counter, mask2d, _ = full_build(record)
            for t, turn in enumerate(record.turns, start=1):
                gen_idx = turn_indices(st, t, generated=True)
                first = int(gen_idx[0])
                assert (
                    decode(counter, st, visible_tokens(mask2d, first))
                    == turn.context_snapshot
                )
                for offset, k in enumerate(gen_idx[1:], start=1):
                    vis = visible_tokens(mask2d, int(k))
                    expected = turn.context_snapshot + decode(
                        counter, st, gen_idx[:offset]
                    )
                    assert decode(counter, st, vis) == expected


class TestExportBytes:
    """Export bytes are pinned: a change to the mask rule or the container
    layout shows up here even when every structural check still passes."""

    # sha256 over the concatenated containers of random_episode(Random(s)),
    # s = 0..11 (six per context mode), each stitched with a fresh counter.
    EXPECTED = {
        "dense_bitpack": "9f16160ca78df2bdb17cbb4084216fbbe2b9b4c46dcf06098f00dd85cf85361b",
        "index_list": "efa89d1a92b6d4303e16d192a04e72f2f19b53817bb75aae458bd360954350ea",
    }

    @pytest.mark.parametrize("fmt", sorted(EXPECTED))
    def test_containers_are_byte_stable(self, fmt):
        digest = hashlib.sha256()
        modes = []
        for seed in range(12):
            record = random_episode(random.Random(seed))
            modes.append(record.config.mode)
            st, counter, mask2d, mask1d = full_build(record)
            digest.update(export_masks(st, mask2d, mask1d, counter.name, fmt=fmt))
        assert sorted(set(modes)) == ["consolidate", "full_append"]
        assert digest.hexdigest() == self.EXPECTED[fmt]
