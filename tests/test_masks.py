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
import threading
from array import array
from itertools import accumulate, chain, groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from memroll import (
    DataError,
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
from memroll.archive import TrajectoryRecord
from memroll.cli import read_archive
from memroll.core import replace
from memroll.masks import FORMAT_VERSION, MAGIC, RANGES_VERSION, Mask2D, _items, _packed

from helpers import (
    WIDTH_FORMATS, container_parts, forge, random_episode, re_signed, scripted_episode, sign, state_of, stored_parts,
    v5_parts,
)

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
            context=state_of(record.turns[1].context_snapshot + "x", record.turns[1].context),
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

        # stitch's records check finds the first token whose text differs.
        record = scripted_episode(random.Random(16), turns=2)
        message = "token 0 (turn 0): other tokens decode to other text"
        with pytest.raises(IntegrityError, match=re.escape(message)):
            stitch(record, UpperIds())

    def test_empty_trajectory_rejected(self):
        rng = random.Random(15)
        record = scripted_episode(rng, turns=1)
        with pytest.raises(ValueError):
            stitch(replace(record, turns=()), WordTokenizer())

    def test_holds_as_many_turns_as_turn_of_numbers(self):
        # turn_of numbers turns in u16, the head being turn 0, so 65,535
        # turns stitch and one more is refused before anything is built. In
        # consolidate mode without hints, a turn that repeats the one before
        # it sees the same context, so one turn stands for all the later ones.
        limit = (1 << 16) - 1
        task = composite_from_tasks([Task("q1", "Which glyph?", ["x"])])
        config = RolloutConfig(mode="consolidate", max_turns=3, hint_enabled=False)
        record = run_rollout(task, ScriptedPolicy(["<query>b</query>"] * 3), ScriptedEnv(["c"]), config)
        record = replace(record, turns=record.turns[:2] + record.turns[2:] * (limit - 2))
        st = stitch(record, WordTokenizer())
        assert len(st.bases) == limit + 1 and int(st.turn_of[-1]) == limit
        over = replace(record, turns=record.turns + record.turns[-1:])
        message = f"trajectory {record.task.id!r}: {limit + 1} turns, more than the {limit} a sequence holds"
        with pytest.raises(DataError, match=re.escape(message)):
            stitch(over, WordTokenizer())


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

    def test_imported_sequences_rebuild_their_masks(self):
        # A sequence of any format is imported as its turns, dense ones with
        # their bases joined, so build_masks gives it the masks import did.
        rng = random.Random(30)
        st, counter, mask2d, mask1d = full_build(scripted_episode(rng, turns=2))
        for fmt in ALL_FORMATS:
            st2, mask2, loss2, _ = import_masks(export_masks(st, mask2d, mask1d, counter.name, fmt=fmt))
            rebuilt, loss = build_masks(st2)
            assert (rebuilt.n, rebuilt.bases, rebuilt.bounds) == (mask2.n, mask2.bases, mask2.bounds)
            assert rebuilt.same_rows(mask2d) and _packed(loss, "loss") == _packed(loss2, "loss")


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

    def test_table_must_be_the_counters_decode(self):
        # A ranges container carries its string table, so a trainer reads its
        # texts with no counter. Two entries of one length swapped, re-signed,
        # import, and the counter still decodes the ids to the records; the
        # table is refused at the first token that uses a swapped entry.
        record = scripted_episode(random.Random(51), turns=2)
        st, counter, mask2d, mask1d = full_build(record)
        a, b = st.strings.index("You"), st.strings.index("and")

        def swapped(parts):
            strings = list(st.strings)
            strings[a], strings[b] = strings[b], strings[a]
            parts["text"] = "".join(strings)

        blob = forged_v5(swapped, export_masks(st, mask2d, mask1d, counter.name))
        st2, mask2, _, _ = import_masks(blob)
        assert st2.strings[a] == "and" and st2.n == st.n
        k = next(k for k, i in enumerate(st.tokens.tolist()) if i in (a, b))
        message = f"token {k} (turn 0): table entry {a} is 'and', the counter decodes 'You'"
        with pytest.raises(IntegrityError, match=re.escape(message)):
            verify_masks(record, st2, mask2, counter)

    def test_detects_dropped_visibility(self):
        # A bit dropped from every row of a turn keeps each row the previous
        # row plus one token, but the turn's base is then a token shorter
        # than its stored positions say, so import refuses it. With the
        # positions moved down to match, it imports, and the turn's first
        # generated token then sees a different context.
        record = scripted_episode(random.Random(51), turns=2)
        st, counter, mask2d, mask1d = full_build(record)
        bits = dense_bits(mask2d)
        bits[st.turn_of == 1, 0] = False
        a = mask2d.bounds[1]
        positions = st.positions - (st.turn_of == 1)
        for fmt in ("dense_bitpack", "index_list"):
            with pytest.raises(IntegrityError, match=re.escape(f"token {a} (turn 1): position {a}, not {a - 1}")):
                import_masks(forged_rows(st, mask2d, mask1d, bits, fmt))
            st2, mask2, _, _ = import_masks(forged_rows(st, mask2d, mask1d, bits, fmt, positions))
            with pytest.raises(IntegrityError, match="different context"):
                verify_masks(record, st2, mask2, counter)

    def test_detects_extra_visibility(self):
        record = scripted_episode(random.Random(52), turns=2)
        st, counter, mask2d, mask1d = full_build(record)
        gen = turn_indices(st, 2, generated=True)
        assert gen.size >= 2
        second = int(gen[1])
        bits = dense_bits(mask2d)
        bits[second, st.n - 1] = True
        message = f"token {second} (turn 2): row is not the previous row plus one token"
        for fmt in ("dense_bitpack", "index_list"):
            with pytest.raises(IntegrityError, match=re.escape(message)):
                import_masks(forged_rows(st, mask2d, mask1d, bits, fmt))

    def test_names_the_first_offending_token(self):
        record = scripted_episode(random.Random(53), turns=3, ending="turn_limit")
        st, counter, mask2d, mask1d = full_build(record)
        gen = turn_indices(st, 2, generated=True)
        assert gen.size >= 5
        # Two bad rows in turn 2 and a bad first row in turn 3: the error
        # names turn 2's earlier row.
        bits = dense_bits(mask2d)
        for k in (gen[4], gen[2], turn_indices(st, 3, generated=True)[0]):
            bits[int(k), st.n - 1] ^= True
        message = f"token {int(gen[2])} (turn 2): row is not the previous row plus one token"
        for fmt in ("dense_bitpack", "index_list"):
            with pytest.raises(IntegrityError, match=re.escape(message)):
                import_masks(forged_rows(st, mask2d, mask1d, bits, fmt))

    @pytest.mark.parametrize("fmt", ["dense_bitpack", "index_list"])
    def test_rows_that_see_their_own_turn_are_refused(self, fmt):
        # Every row of turn 2 also sees the turn's first token: each row is
        # still the previous row plus one token, but the base read from the
        # first row reaches into the turn, as a ranges container may not.
        record = scripted_episode(random.Random(56), turns=2)
        st, counter, mask2d, mask1d = full_build(record)
        bits = dense_bits(mask2d)
        bits[st.turn_of == 2, mask2d.bounds[2]] = True
        with pytest.raises(IntegrityError, match="turn 2: base ranges .* past the turn's first token"):
            import_masks(forged_rows(st, mask2d, mask1d, bits, fmt))

    def test_index_list_rows_must_ascend(self):
        record = scripted_episode(random.Random(57), turns=2)
        st, counter, mask2d, mask1d = full_build(record)
        rows = [np.flatnonzero(row) for row in dense_bits(mask2d)]
        rows[mask2d.bounds[1]] = rows[mask2d.bounds[1]][::-1]
        stream = b"".join(np.r_[len(row), row].astype("<u4").tobytes() for row in rows)
        header, payload = container_parts(export_masks(st, mask2d, mask1d, "c", fmt="index_list"))
        with pytest.raises(IntegrityError, match="turn 1: base ranges are unsorted"):
            import_masks(forge(header, payload[: 12 * st.n] + stream))

    def test_ranges_mask_needs_each_turns_generation_unbroken(self, monkeypatch):
        # Row k of a turn is row k - 1 plus token k - 1, so a generated token
        # after a non-generated one in the same turn cannot see what the rule
        # says. A container that stores such a loss column is refused at
        # import, naming the token without building rows; export refuses
        # such a loss mask, which is not the sequence's own.
        record = scripted_episode(random.Random(55), turns=3, ending="turn_limit")
        st, counter, mask2d, mask1d = full_build(record)
        gen = turn_indices(st, 2, generated=True)
        assert gen.size >= 4
        monkeypatch.setattr(memroll.masks, "_dense_rows", no_dense_rows)

        def holey(payload, n):  # the loss column follows tokens and positions
            payload[8 * n + gen[1] : 8 * n + gen[3]] = bytes(2)

        message = f"token {int(gen[3])} (turn 2): row is not the previous row plus one token"
        for blob in (v3_ranges(st, mask2d, mask1d, counter.name), export_masks(st, mask2d, mask1d, "c", "index_list")):
            with pytest.raises(IntegrityError, match=re.escape(message)):
                import_masks(re_signed(blob, holey))
        generated = st.generated.copy()
        generated[gen[1:3]] = False
        with pytest.raises(IntegrityError, match="not the sequence's own"):
            export_masks(st, mask2d, Mask1D(loss=generated), counter.name)


FORMATS = ("ranges", "dense_bitpack", "index_list")
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("fmt", FORMATS)
class TestRecordsCheck:
    """verify_masks holds a container to the records it was stitched from. A
    container that changes what a token is, re-signed so it imports, or one
    with a turn too few or too many, is refused, naming the turn and the
    first token that disagrees."""

    @staticmethod
    def exported(record, fmt):
        st, counter, mask2d, mask1d = full_build(record)
        return st, counter, export_masks(st, mask2d, mask1d, counter.name, fmt=fmt)

    @staticmethod
    def refused(record, blob, counter, message):
        st, mask, _, _ = import_masks(blob)
        with pytest.raises(IntegrityError, match=re.escape(message)):
            verify_masks(record, st, mask, counter)

    def record(self):
        return scripted_episode(random.Random(58), turns=3, ending="answer")

    def test_changed_answer_token(self, fmt):
        # The answer is the last turn's, which no later context sees.
        record = self.record()
        st, counter, blob = self.exported(record, fmt)
        k = int(np.flatnonzero(st.segments == ANSWER)[-1])
        texts = {int(t): counter.decode([int(t)]) for t in st.tokens}
        other = next(t for t, text in texts.items() if text[:1] != texts[int(st.tokens[k])][:1])
        if fmt == "ranges":  # the ids are narrowed
            forged = forged_v5(lambda parts: parts["tokens"].__setitem__(k, other), blob)
        else:
            forged = re_signed(blob, lambda payload, n: struct.pack_into("<i", payload, 4 * k, other))
        self.refused(record, forged, counter, f"token {k} (turn 3): generated tokens decode to other text")

    def test_loss_on_an_info_token(self, fmt):
        record = self.record()
        st, counter, blob = self.exported(record, fmt)
        k = int(turn_indices(st, 1, generated=False)[0])

        def edit(payload, n):
            payload[8 * n + k] = 1

        def one_more_generated(parts):
            # A ranges container derives the loss from each turn's count of
            # leading generated tokens.
            parts["turns"][1][1] += 1

        message = f"token {k} (turn 1): generated tokens decode to other text"
        forged = forged_v5(one_more_generated, blob) if fmt == "ranges" else re_signed(blob, edit)
        self.refused(record, forged, counter, message)

    def test_shifted_position(self, fmt):
        # A ranges container derives the positions; a version 3 one, still
        # read, holds them as a column, as the dense formats do, and import
        # refuses a column other than the turns derive.
        record = self.record()
        st, counter, blob = self.exported(record, fmt)
        if fmt == "ranges":
            blob = v3_ranges(st, *build_masks(st), counter.name)
        k = int(turn_indices(st, 2, generated=True)[1])
        shifted = int(st.positions[k]) + 1
        forged = re_signed(blob, lambda payload, n: struct.pack_into("<i", payload, 4 * (n + k), shifted))
        with pytest.raises(IntegrityError, match=re.escape(f"token {k} (turn 2): position {shifted}, not {shifted - 1}")):
            import_masks(forged)

    def test_record_minus_its_last_turn(self, fmt):
        record = self.record()
        st, counter, blob = self.exported(replace(record, turns=record.turns[:-1]), fmt)
        self.refused(record, blob, counter, f"token {st.n} (turn 3): 2 turns in the mask, 3 in the record")

    def test_one_turn_more_than_its_record(self, fmt):
        record = self.record()
        st, counter, blob = self.exported(record, fmt)
        k = int(turn_indices(st, 3)[0])
        short = replace(record, turns=record.turns[:-1])
        self.refused(short, blob, counter, f"token {k} (turn 3): 3 turns in the mask, 2 in the record")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "archive", ["archive_with_derived_fields", "archive_with_whole_snapshots", "archive_version_2", "archive_version_3"]
)
def test_committed_archives_export_and_verify(archive, fmt):
    # The committed archives are version 1, but for archive_version_2 and
    # archive_version_3; each is also written again at the current version
    # and read back.
    records = read_archive(DATA / archive)
    again = [TrajectoryRecord.from_dict(record.to_dict()) for record in records]
    assert again == records
    for record in records + again:
        st, counter, mask2d, mask1d = full_build(record)
        st2, mask2, _, _ = import_masks(export_masks(st, mask2d, mask1d, counter.name, fmt=fmt))
        verify_masks(record, st2, mask2, counter)


def join_touching(ranges) -> tuple:
    joined = []
    for s, e in ranges:
        if joined and joined[-1][1] == s:
            joined[-1] = (joined[-1][0], e)
        else:
            joined.append((s, e))
    return tuple(joined)


def no_dense_rows(mask):
    raise AssertionError("dense rows built")


def dense_bits(mask2d) -> np.ndarray:
    """A mask's rows as an (n, n) bool matrix, a copy."""
    bits = np.unpackbits(mask2d.words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, : mask2d.n].astype(bool)


def forged_rows(st, mask2d, mask1d, bits, fmt, positions=None) -> bytes:
    """A re-signed fmt container of st whose rows are the bool matrix bits,
    and whose positions column is positions, if given."""
    n = st.n
    if fmt == "dense_bitpack":
        rows = np.packbits(np.pad(bits, ((0, 0), (0, -n % 64))), axis=1, bitorder="little").tobytes()
    else:
        rows = b"".join(np.r_[row.sum(), np.flatnonzero(row)].astype("<u4").tobytes() for row in bits)
    header, payload = container_parts(export_masks(st, mask2d, mask1d, "c", fmt=fmt))
    if positions is not None:
        payload = payload[: 4 * n] + np.asarray(positions, "<i4").tobytes() + payload[8 * n :]
    return forge(header, payload[: 12 * n] + rows)


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

    def test_imported_dense_sequence_holds_its_bases(self):
        # A dense container carries no string table, but its sequence holds
        # its turns, so it is written again as the same bytes.
        rng = random.Random(61)
        _, _, _, _, blob = self.exported(rng, "dense_bitpack")
        st2, mask2, loss2, header = import_masks(blob)
        assert st2.strings is None and (st2.bases, list(st2.bounds)) == (mask2.bases, mask2.bounds)
        assert export_masks(st2, *build_masks(st2), header["counter_id"], "dense_bitpack") == blob

    def test_imported_dense_rows_are_read_only(self):
        # words are built from the ranges and kept: writing to them would
        # change no row, so it fails, on a built mask and an imported one.
        rng = random.Random(63)
        _, mask2d, _, _, blob = self.exported(rng, "dense_bitpack")
        _, mask2, _, _ = import_masks(blob)
        assert np.array_equal(mask2.words, mask2d.words)
        for mask in (mask2, mask2d):
            with pytest.raises(ValueError):
                mask.words[0, 0] = 1

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
    if fmt == "ranges_v3":
        return v3_ranges(st, mask2d, mask1d, counter.name)
    if fmt == "ranges_v4":
        return v4_ranges(st, counter.name)
    if fmt == "ranges_v5":
        return v5_ranges(export_masks(st, mask2d, mask1d, counter.name))
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
    """A version 3 ranges payload: the five columns, then per turn its
    ranges, then the string table."""
    words = [len(turns)]
    for ranges in turns:
        words += [len(ranges), *chain.from_iterable(ranges)]
    words += [len(lengths), *lengths]
    return columns + struct.pack(f"<{len(words)}I", *words) + table


def v3_ranges(st, mask2d, mask1d, counter_id: str) -> bytes:
    """The version 3 ranges container of a sequence, as version 3 wrote it."""
    columns = b"".join(
        np.asarray(column).astype(dtype).tobytes()
        for column, dtype in (
            (st.tokens, "<i4"), (st.positions, "<i4"), (mask1d.loss, "u1"), (st.segments, "u1"), (st.turn_of, "<u2"),
        )
    )
    encoded = [text.encode("utf-8", "surrogatepass") for text in st.strings]
    header = {"n": st.n, "counter_id": counter_id, "format": "ranges"}
    payload = ranges_payload(columns, [list(base) for base in mask2d.bases], list(map(len, encoded)), b"".join(encoded))
    return forge(header, payload, 3)


def v4_parts(payload: bytes, n: int) -> tuple[bytes, bytes, list, list, bytes]:
    """Split a version 4 ranges payload into its tokens and segments, each
    turn's [token count, generated count, (start, end) pairs], the string
    table's byte lengths and its bytes."""
    at = 5 * n

    def u32s(count: int) -> list[int]:
        nonlocal at
        values = list(struct.unpack_from(f"<{count}I", payload, at))
        at += 4 * count
        return values

    turns = []
    for _ in range(u32s(1)[0]):
        count, gen, ranges = u32s(3)
        turns.append([count, gen, list(zip(*[iter(u32s(2 * ranges))] * 2))])
    lengths = u32s(u32s(1)[0])
    return payload[: 4 * n], payload[4 * n : 5 * n], turns, lengths, payload[at:]


def v4_payload(tokens: bytes, segments: bytes, turns: list, lengths: list, table: bytes) -> bytes:
    words = [len(turns)]
    for count, gen, ranges in turns:
        words += [count, gen, len(ranges), *chain.from_iterable(ranges)]
    words += [len(lengths), *lengths]
    return tokens + segments + struct.pack(f"<{len(words)}I", *words) + table


def v4_ranges(st, counter_id: str) -> bytes:
    """The version 4 ranges container of a sequence, as version 4 wrote it."""
    encoded = [text.encode("utf-8", "surrogatepass") for text in st.strings]
    turns = [[b - a, g, list(base)] for base, a, b, g in zip(st.bases, st.bounds, st.bounds[1:], st.gens)]
    payload = v4_payload(
        st.tokens.astype("<i4").tobytes(), st.segments.tobytes(), turns, list(map(len, encoded)), b"".join(encoded)
    )
    return forge({"n": st.n, "counter_id": counter_id, "format": "ranges"}, payload, 4)


def v5_payload(parts: dict, widths: dict | None = None) -> bytes:
    """A version 5 ranges payload of parts (as v5_parts gives them), each
    width-coded field (tokens, runs, lengths) at the narrowest width that
    holds it, or at the width widths gives it."""

    def coded(name: str) -> bytes:
        values = parts[name]
        width = (widths or {}).get(name) or next(w for w in (1, 2, 4) if max(values, default=0) < 1 << 8 * w)
        return bytes((width,)) + struct.pack(f"<{len(values)}{WIDTH_FORMATS[width]}", *values)

    words = [len(parts["turns"])]
    for count, gen, ranges in parts["turns"]:
        words += [count, gen, len(ranges), *chain.from_iterable(ranges)]
    return b"".join((
        coded("tokens"), struct.pack("<I", len(parts["codes"])), bytes(parts["codes"]), coded("runs"),
        struct.pack(f"<{len(words) + 1}I", *words, len(parts["lengths"])), coded("lengths"),
        parts["text"].encode("utf-8", "surrogatepass"),
    ))


def v5_ranges(blob: bytes) -> bytes:
    """A version 6 ranges container as version 5 wrote it: its payload,
    inflated, re-signed as version 5."""
    return forge(*container_parts(blob), 5)


def forged_v5(edit, blob: bytes | None = None, widths: dict | None = None) -> bytes:
    """blob, the ranges test container by default, with edit(parts) applied
    to the parts of its version 5 payload (see v5_parts), re-signed at the
    current version, which deflates it; bytes are appended to the payload if
    edit returns them."""
    header, payload = container_parts(blob or valid_container("ranges"))
    parts = v5_parts(payload, header["n"])
    extra = edit(parts) or b""
    return forge(header, v5_payload(parts, widths) + extra, RANGES_VERSION)


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


    @given(fmt=hst.sampled_from(FORMATS + ("ranges_v3",)), data=hst.data())
    def test_loss_is_one_bit_per_byte(self, fmt, data):
        # export wrote 0 or 1 per loss byte; a re-signed container with any
        # other byte is refused rather than read as True. A version 4 ranges
        # container holds no loss column.
        header, payload = container_parts(valid_container(fmt))
        n = header["n"]
        at = 8 * n + data.draw(hst.integers(0, n - 1))
        bad = bytearray(payload)
        bad[at] = data.draw(hst.integers(2, 255))
        version = 3 if fmt == "ranges_v3" else FORMAT_VERSION
        with pytest.raises(IntegrityError, match="loss column"):
            import_masks(forge(header, bytes(bad), version))

    @pytest.mark.parametrize("fmt, size", [("i", 4), ("H", 2), ("I", 4)])
    def test_partial_item_is_an_integrity_error(self, fmt, size):
        for cut in range(1, size):
            with pytest.raises(IntegrityError, match="whole number"):
                _items(memoryview(bytes(2 * size + cut)), fmt)
        assert _items(memoryview(bytes(2 * size)), fmt).tolist() == [0, 0]

    @pytest.mark.parametrize(
        "layout", ["ranges", "ranges_v5", "ranges_deflated", "ranges_v4", "ranges_v3", "dense_bitpack", "index_list"]
    )
    def test_resigned_random_edits_are_refused_or_sound(self, layout):
        # Anyone can re-sign a container, so import must hold up without
        # the hash: after a random edit to the payload, it either raises
        # IntegrityError or gives a sequence whose derived columns and masks
        # build. Edits: a byte, a u32 of a telling value (aligned to the
        # layout's u32 words), a cut, an insert; each in the tokens, the
        # words that give the turns and rows, or anywhere. ranges edits the
        # version 5 payload it deflates, ranges_v5 that payload stored as
        # version 5 wrote it, and ranges_deflated the deflated bytes as
        # stored, anywhere.
        deflated = layout == "ranges_deflated"
        blob = valid_container("ranges" if deflated else layout)
        header, payload = (stored_parts if deflated else container_parts)(blob)
        version, n = struct.unpack_from("<H", blob, 8)[0], header["n"]
        if layout in ("ranges", "ranges_v5"):  # the tokens are width-coded, the turns' words follow the segment runs
            at = v5_parts(payload, n)["at"]
            tokens, words, end = at["runs"], at["turns"], at["table"]
        else:
            tokens, words, end = 4 * n, 5 * n if layout == "ranges_v4" else 12 * n, len(payload)
        if layout in ("ranges_v4", "ranges_v3"):  # the words stop where the string table's count starts
            lengths, table = (v4_parts if layout == "ranges_v4" else ranges_parts)(payload, n)[-2:]
            end -= len(table) + 4 * (len(lengths) + 1)
        regions = [(0, len(payload))] if deflated else [(0, tokens), (words, end), (0, len(payload))]
        rng = random.Random(f"edits of {layout}")
        outcomes = {"refused": 0, "read": 0}
        for _ in range(600):
            data = bytearray(payload)
            kind, (lo, hi) = rng.choice(("byte", "u32", "cut", "insert")), rng.choice(regions)
            at = lo + 4 * rng.randrange((hi - lo) // 4)
            if kind == "byte":
                data[at + rng.randrange(4)] = rng.randrange(256)
            elif kind == "u32":
                struct.pack_into("<I", data, at, rng.choice((0, 1, 1 << 16, 1 << 31, (1 << 32) - 1)))
            elif kind == "cut":
                del data[at:]
            else:
                data[at:at] = rng.randbytes(rng.randrange(1, 9))
            try:
                st, mask2d, mask1d, _ = import_masks((sign if deflated else forge)(header, bytes(data), version))
            except IntegrityError:
                outcomes["refused"] += 1
                continue
            outcomes["read"] += 1
            for name in ("turn_of", "generated", "positions"):
                assert getattr(st, name).shape == (st.n,), (layout, kind, at)
            rebuilt, loss = build_masks(st)
            assert rebuilt.same_rows(mask2d) and np.array_equal(loss.loss, mask1d.loss)
            assert mask2d.words.shape == (st.n, (st.n + 63) // 64)
        assert outcomes["refused"] and outcomes["read"], outcomes


def forged_ranges(edit) -> bytes:
    """The version 3 ranges test container with edit(header, columns, turns,
    lengths, table) applied to its parts, re-signed."""
    header, payload = container_parts(valid_container("ranges_v3"))
    columns, turns, lengths, table = ranges_parts(payload, header["n"])
    columns, table = bytearray(columns), bytearray(table)
    edit(header, columns, turns, lengths, table)
    return forge(header, ranges_payload(bytes(columns), turns, lengths, bytes(table)), 3)


def forged_v4(edit) -> bytes:
    """The version 4 ranges test container with edit(tokens, turns, lengths,
    table) applied to its parts, re-signed, and bytes appended if edit
    returns them."""
    header, payload = container_parts(valid_container("ranges_v4"))
    tokens, segments, turns, lengths, table = v4_parts(payload, header["n"])
    tokens, table = bytearray(tokens), bytearray(table)
    extra = edit(tokens, turns, lengths, table) or b""
    return forge(header, v4_payload(bytes(tokens), segments, turns, lengths, bytes(table)) + extra, 4)


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


def _v4_counts_past_n(tokens, turns, lengths, table):
    turns[-1][0] += 1


def _v4_counts_short_of_n(tokens, turns, lengths, table):
    turns[-1][0] -= 1
    turns[-1][1] = min(turns[-1][1], turns[-1][0])


def _v4_generated_past_count(tokens, turns, lengths, table):
    turns[1][1] = turns[1][0] + 1


def _v4_unsorted(tokens, turns, lengths, table):
    ranges = turns[_first_multi_range_turn([ranges for _, _, ranges in turns])][2]
    ranges[0], ranges[1] = ranges[1], ranges[0]


def _v4_past_first_token(tokens, turns, lengths, table):
    (s, e), = turns[1][2]
    turns[1][2][0] = (s, e + 1)


def _v4_id_past_table(tokens, turns, lengths, table):
    struct.pack_into("<i", tokens, 0, len(lengths))


def _v4_table_not_utf8(tokens, turns, lengths, table):
    table[0] = 0xFF


def _v4_trailing_bytes(tokens, turns, lengths, table):
    return b"\x00"


def _v4_more_turns_than_turn_of_holds(tokens, turns, lengths, table):
    # Sound but for their number: turn_of holds turn numbers as u16.
    turns += [[0, 0, []] for _ in range((1 << 16) + 1 - len(turns))]


def _v5_runs_past_n(parts):
    parts["runs"][-1] += 1


def _v5_runs_short_of_n(parts):
    parts["runs"][0] -= 1


def _v5_lengths_past_text(parts):
    parts["lengths"][-1] += 1


def _v5_lengths_short_of_text(parts):
    parts["lengths"][1] -= 1


def _v5_id_past_table(parts):
    parts["tokens"][0] = len(parts["lengths"])


def _v5_counts_past_n(parts):
    parts["turns"][-1][0] += 1


def _v5_generated_past_count(parts):
    parts["turns"][1][1] = parts["turns"][1][0] + 1


def _v5_table_not_utf8(parts):
    return b"\xff"  # the text runs to the end of the payload


class TestRangesContainer:
    def test_version_follows_the_format(self):
        versions = {fmt: struct.unpack_from("<H", valid_container(fmt), 8)[0] for fmt in ALL_FORMATS}
        assert versions == {"dense_bitpack": 2, "index_list": 2, "ranges": 6}

    def test_import_holds_ranges_and_string_table(self, monkeypatch):
        st, counter, mask2d, mask1d = full_build(scripted_episode(random.Random(73), turns=4))
        with monkeypatch.context() as patched:
            patched.setattr(memroll.masks, "_dense_rows", no_dense_rows)  # no row is built
            st2, mask2, _, header = import_masks(export_masks(st, mask2d, mask1d, counter.name))
            assert header["format"] == "ranges"
            assert st2.bases == st.bases and mask2.bases == st.bases
            assert st2.strings == tuple(counter.decode([i]) for i in range(counter.vocab_size()))
            assert all(
                np.array_equal(visible_tokens(mask2, k), visible_tokens(mask2d, k)) for k in range(st.n)
            )
        assert np.array_equal(mask2.words, mask2d.words)

    def test_size_formula(self):
        st, counter, mask2d, mask1d = full_build(scripted_episode(random.Random(74), turns=5))
        _, payload = container_parts(export_masks(st, mask2d, mask1d, counter.name, "ranges"))

        def width(values) -> int:  # the narrowest of 1, 2 and 4 bytes that holds every value
            return next(w for w in (1, 2, 4) if max(values, default=0) < 1 << 8 * w)

        runs = [len(list(run)) for _, run in groupby(st.segments.tolist())]
        lengths = list(map(len, st.strings))
        ranges = sum(len(base) for base in st.bases)
        table = len("".join(st.strings).encode("utf-8"))
        expected = (
            1 + width(st.tokens.tolist()) * st.n
            + 4 + len(runs) + 1 + width(runs) * len(runs)
            + 4 + 12 * len(st.bases) + 8 * ranges
            + 4 + 1 + width(lengths) * len(lengths) + table
        )
        assert len(payload) == expected
        assert len(runs) < st.n / 10  # segments come in long runs

    def test_lone_surrogates_survive_the_string_table(self):
        task = composite_from_tasks([Task("q1", "Which \ud800 glyph?", ["x"])])
        policy = ScriptedPolicy(["<IS>odd \udfff</IS><query>glyph</query>", "<answer>x</answer>"])
        record = run_rollout(task, policy, ScriptedEnv(["a \ud83d b"]), RolloutConfig())
        st, counter, mask2d, mask1d = full_build(record)
        st2, mask2, _, _ = import_masks(export_masks(st, mask2d, mask1d, counter.name, "ranges"))
        assert {"\ud800", "\udfff", "\ud83d"} <= set(st2.strings)
        verify_masks(record, st2, mask2, counter)

    def test_dense_imports_hold_the_joined_bases(self):
        # Dense rows cannot tell touching ranges from joined ones, so a dense
        # import holds each turn's base joined: the same rows.
        touching = 0
        for seed in range(12):
            st, counter, mask2d, mask1d = full_build(random_episode(random.Random(seed)))
            joined = tuple(join_touching(base) for base in mask2d.bases)
            touching += sum(j != base for j, base in zip(joined, mask2d.bases))
            for fmt in FORMATS:
                st2, mask2, _, _ = import_masks(export_masks(st, mask2d, mask1d, counter.name, fmt))
                assert (mask2.bases, mask2.bounds) == (joined, mask2d.bounds)
                assert st2.bases == joined and mask2.same_rows(mask2d)
        assert touching > 0

    def test_dense_import_cannot_be_written_as_ranges(self):
        st2, mask2, loss2, _ = import_masks(valid_container("dense_bitpack"))
        with pytest.raises(ValueError, match="ranges"):
            export_masks(st2, mask2, loss2, "c", fmt="ranges")

    def test_index_list_round_trips_arbitrary_rows(self):
        # Well-formed masks, with runs across word boundaries and turns whose
        # base is empty, are written and read back bit for bit; arbitrary
        # rows, re-signed, are refused unless they happen to fit the rule.
        rng = np.random.default_rng(75)
        for n in (1, 63, 64, 65, 300, 700):
            bounds = [0, *sorted(rng.choice(np.arange(1, n), min(n - 1, 6), replace=False).tolist()), n]
            bases = []
            for a in bounds[:-1]:
                edges = sorted(set(rng.integers(0, a + 1, 2 * int(rng.integers(0, 4))).tolist()))
                edges = edges[: len(edges) // 2 * 2]
                bases.append(tuple(zip(edges[0::2], edges[1::2])))
            st = StitchedTrajectory(
                tokens=np.zeros(n, np.int32), segments=np.zeros(n, np.uint8),
                bounds=tuple(bounds), gens=(0,) * len(bases), bases=tuple(bases),
            )
            mask, loss = build_masks(st)
            for fmt in FORMATS:
                blob = export_masks(st, mask, loss, "c", fmt=fmt)
                _, mask2, loss2, _ = import_masks(blob)
                assert (mask2.bases, mask2.bounds) == (mask.bases, bounds)
                assert np.array_equal(mask2.words, mask.words)
                assert export_masks(st, mask2, loss2, "c", fmt=fmt) == blob
            _, payload = container_parts(blob)
            assert len(payload) == 12 * n + 4 * n + 4 * int(dense_bits(mask).sum())

            bits = rng.random((n, n)) < rng.choice([0.02, 0.5, 0.97])
            bits[rng.random(n) < 0.1] = False
            fits = np.array_equal(bits, dense_bits(mask))
            for fmt in FORMATS:
                forged = forged_rows(st, mask, loss, bits, fmt)
                if fits:
                    assert np.array_equal(import_masks(forged)[1].words, mask.words)
                else:
                    with pytest.raises(IntegrityError):
                        import_masks(forged)

    @pytest.mark.parametrize("version", [1, FORMAT_VERSION])
    def test_ranges_only_in_version_3(self, version):
        # Ranges containers are read from version 3 on.
        header, payload = container_parts(valid_container("ranges"))
        with pytest.raises(IntegrityError, match="version"):
            import_masks(forge(header, payload, version))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_dense_formats_not_in_version_3(self, fmt):
        header, payload = container_parts(valid_container(fmt))
        for version in (3, 5, RANGES_VERSION):
            with pytest.raises(IntegrityError, match="version"):
                import_masks(forge(header, payload, version))

    def test_forged_but_sound_container_is_read(self):
        # The test-side writers give export's bytes, and a re-signed
        # container read back as written is read.
        blob = forged_ranges(lambda *parts: None)
        assert blob == valid_container("ranges_v3")
        assert forged_v4(lambda *parts: None) == valid_container("ranges_v4")
        assert forged_v5(lambda parts: None) == valid_container("ranges")
        assert sign(*stored_parts(valid_container("ranges")), RANGES_VERSION) == valid_container("ranges")

    def test_version_3_reads_as_version_4(self):
        # A version 3 container, which holds every column, a version 4 one,
        # which derives three of them, a version 5 one, which also stores
        # each part narrowed, and the version 6 export of the same
        # trajectory, which deflates the version 5 payload, import to the
        # same sequence, mask and loss.
        for seed in range(12):
            st, counter, mask2d, mask1d = full_build(random_episode(random.Random(seed)))
            exported = export_masks(st, mask2d, mask1d, counter.name)
            blobs = (v3_ranges(st, mask2d, mask1d, counter.name), v4_ranges(st, counter.name), v5_ranges(exported), exported)
            for version, blob in zip((3, 4, 5, 6), blobs):
                assert struct.unpack_from("<H", blob, 8)[0] == version
                st2, mask2, loss2, _ = import_masks(blob)
                assert st2 == st and loss2 == mask1d, (seed, version)
                for name in COLUMNS:
                    assert _packed(st2, name) == _packed(st, name), (seed, version, name)
                assert (mask2.bases, mask2.bounds) == (mask2d.bases, mask2d.bounds)

    @pytest.mark.parametrize("column", ["positions", "turn_of", "generated", "loss"])
    def test_export_refuses_columns_it_would_not_give_back(self, column):
        # A sequence derives turn_of, generated (the loss) and positions from
        # its turns, so no export can be given other columns; a version 3
        # container, which stores them, is refused at import when they break
        # the rule, naming the first token that does. A loss mask other than
        # the sequence's own is refused by export, in every format.
        st, counter, mask2d, mask1d = full_build(scripted_episode(random.Random(78), turns=3, ending="answer"))
        info = int(turn_indices(st, 1, generated=False)[0])  # turn 1's first info token
        moved = st.generated.copy()
        moved[[info - 1, info]] = False, True  # a generated token after a non-generated one
        if column == "loss":
            for fmt in ALL_FORMATS:
                with pytest.raises(IntegrityError, match="not the sequence's own"):
                    export_masks(st, mask2d, Mask1D(loss=moved), counter.name, fmt=fmt)
            return
        n, first = st.n, mask2d.bounds[1]
        at, altered, message = {  # the column's offset in a version 3 payload
            "positions": (4 * n, st.positions[::-1].astype("<i4"), f"token 0 (turn 0): position {int(st.positions[-1])}, not 0"),
            "turn_of": (10 * n, np.zeros(n, "<u2"), f"token {first} (turn 0): row is not the previous row plus one token"),
            "generated": (8 * n, moved.astype("u1"), f"token {info} (turn 1): row is not the previous row plus one token"),
        }[column]

        def edit(payload, n):
            payload[at : at + altered.nbytes] = altered.tobytes()

        with pytest.raises(IntegrityError, match=re.escape(message)):
            import_masks(re_signed(v3_ranges(st, mask2d, mask1d, counter.name), edit))

    def test_export_refuses_a_mask_of_other_length(self):
        record = scripted_episode(random.Random(79), turns=3, ending="answer")
        st, counter, mask2d, mask1d = full_build(record)
        _, _, short, _ = full_build(replace(record, turns=record.turns[:-1]))
        with pytest.raises(IntegrityError, match="not the sequence's own"):
            export_masks(st, short, mask1d, counter.name)
        with pytest.raises(IntegrityError, match="not the sequence's own"):
            verify_masks(record, st, short, counter)

    def test_version_byte_is_covered_by_the_hash(self):
        # Versions 3 to 6 all hold ranges, so from version 4 the hash covers
        # the version: a flip between them is a hash mismatch.
        flips = (("ranges", 3), ("ranges", 4), ("ranges", 5), ("ranges_v5", 6), ("ranges_v4", 3), ("ranges_v4", 5))
        for layout, other in flips:
            blob = valid_container(layout)
            with pytest.raises(IntegrityError, match="hash"):
                import_masks(blob[:8] + struct.pack("<H", other) + blob[10:])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_v4_counts_past_n, "sum to"),
            (_v4_counts_short_of_n, "sum to"),
            (_v4_generated_past_count, "leading generated tokens of its"),
            (_v4_unsorted, "unsorted"),
            (_v4_past_first_token, "first token"),
            (_v4_id_past_table, "string table"),
            (_v4_table_not_utf8, "UTF-8"),
            (_v4_trailing_bytes, "trailing"),
            (_v4_more_turns_than_turn_of_holds, "short of turns: 65537 turns"),
        ],
        ids=[
            "counts-past-n", "counts-short-of-n", "generated-past-count", "unsorted", "past-first-token",
            "id-past-table", "table-not-utf8", "trailing-bytes", "more-turns-than-turn_of-holds",
        ],
    )
    def test_signed_but_unsound_v4_container_rejected(self, edit, message):
        with pytest.raises(IntegrityError, match=message):
            import_masks(forged_v4(edit))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_v5_runs_past_n, "segment runs sum to"),
            (_v5_runs_short_of_n, "segment runs sum to"),
            (_v5_lengths_past_text, "string table lengths sum to"),
            (_v5_lengths_short_of_text, "string table lengths sum to"),
            (_v5_id_past_table, "outside the string table"),
            (_v5_counts_past_n, "token counts sum to"),
            (_v5_generated_past_count, "leading generated tokens of its"),
            (_v5_table_not_utf8, "UTF-8"),
        ],
        ids=[
            "runs-past-n", "runs-short-of-n", "lengths-past-text", "lengths-short-of-text", "id-past-table",
            "counts-past-n", "generated-past-count", "table-not-utf8",
        ],
    )
    def test_signed_but_unsound_v5_container_rejected(self, edit, message):
        with pytest.raises(IntegrityError, match=message):
            import_masks(forged_v5(edit))

    @pytest.mark.parametrize("field", ["tokens", "runs", "lengths"])
    @pytest.mark.parametrize("code", [0, 3, 8, 255])
    def test_width_code_other_than_1_2_or_4_rejected(self, field, code):
        header, payload = container_parts(valid_container("ranges"))
        parts = v5_parts(payload, header["n"])
        at = {"tokens": 0, "runs": parts["at"]["runs"] + 4 + len(parts["codes"]), "lengths": parts["at"]["table"] + 4}
        payload = bytearray(payload)
        assert payload[at[field]] in (1, 2, 4)
        payload[at[field]] = code
        with pytest.raises(IntegrityError, match=f"width code {code}, not 1, 2 or 4"):
            import_masks(forge(header, bytes(payload), RANGES_VERSION))

    def test_truncated_deflate_stream_rejected(self):
        # A version 6 payload is one raw DEFLATE stream: cut anywhere and
        # re-signed, it does not end, which is an integrity error, never a
        # zlib.error.
        header, stored = stored_parts(valid_container("ranges"))
        for cut in range(len(stored)):
            with pytest.raises(IntegrityError, match="mask payload truncated: its deflate stream does not end"):
                import_masks(sign(header, stored[:cut], RANGES_VERSION))

    @pytest.mark.parametrize("extra", [b"\x00", b"\x03\x00", bytes(range(1, 9))], ids=["zero", "empty-stream", "eight"])
    def test_bytes_after_the_deflate_stream_rejected(self, extra):
        # Bytes after the stream's last block are refused, re-signed or not,
        # even when they are a deflate stream of their own.
        header, stored = stored_parts(valid_container("ranges"))
        with pytest.raises(IntegrityError, match="mask payload has trailing bytes after its deflate stream"):
            import_masks(sign(header, stored + extra, RANGES_VERSION))

    @pytest.mark.parametrize("version", [5, RANGES_VERSION])
    def test_payload_stored_at_the_other_version_rejected(self, version):
        # A version 5 payload signed as version 6 is read as a deflate
        # stream, and a deflated payload signed as version 5 as a version 5
        # payload; each is refused.
        blob = valid_container("ranges")
        header, payload = (stored_parts if version == 5 else container_parts)(blob)
        with pytest.raises(IntegrityError):
            import_masks(sign(header, payload, version))

    @pytest.mark.parametrize(
        "strings, ids, longest, widths",
        [
            (2, [0, 1, 1], 1, (1, 1, 1)),  # a tiny table
            (300, [299, 0, 5], 1, (2, 1, 1)),
            (2, [1, 0], 300, (1, 1, 2)),  # an entry of 300 code points
            (70_000, [0, 69_999, 65_536], 1, (4, 1, 1)),  # ids past u16
        ],
        ids=["width-1", "ids-width-2", "lengths-width-2", "ids-width-4"],
    )
    def test_widths_follow_the_data(self, strings, ids, longest, widths):
        # Each width-coded field takes the narrowest width that holds it:
        # 1 for a tiny table, 4 for ids past 65,535. Read back, the sequence
        # is the one written, and a container with every field wider than
        # it needs is read too.
        n = len(ids)
        table = ("x" * longest, *(chr(0x4E00 + i % 20_000) for i in range(1, strings)))
        st = StitchedTrajectory(
            tokens=array("i", ids), segments=array("B", [HEAD] * (n - 1) + [GLUE]),
            bounds=(0, n - 1, n), gens=(0, 1), bases=((), ((0, n - 1),)), strings=table,
        )
        blob = export_masks(st, *build_masks(st), "c")
        _, payload = container_parts(blob)
        at = v5_parts(payload, n)["at"]  # each width code: the ids', the runs' (after 2 codes), the lengths'
        assert (payload[0], payload[at["runs"] + 4 + 2], payload[at["table"] + 4]) == widths
        st2, mask2, loss2, _ = import_masks(blob)
        assert st2 == st and (mask2.bases, loss2) == (st.bases, build_masks(st)[1])
        wide = forged_v5(lambda parts: None, blob, widths={"tokens": 4, "runs": 4, "lengths": 4})
        assert len(container_parts(wide)[1]) > len(payload) and import_masks(wide)[0] == st

    @pytest.mark.parametrize("code", [len(SEGMENT_NAMES), 200])
    @pytest.mark.parametrize("layout", ["ranges", "ranges_v4", "ranges_v3", "dense_bitpack", "index_list"])
    def test_segment_code_that_names_no_segment_rejected(self, layout, code):
        # Segment codes index SEGMENT_NAMES; a re-signed container with a
        # code past it is refused in every layout, version 5 once per run.
        blob = valid_container(layout)
        if layout == "ranges":
            forged = forged_v5(lambda parts: parts["codes"].__setitem__(-1, code), blob)
        else:
            at = {"ranges_v4": 4}.get(layout, 9)  # the segments follow the tokens, or positions and loss

            def edit(payload, n):
                payload[at * n + n - 1] = code

            forged = re_signed(blob, edit)
        with pytest.raises(IntegrityError, match=f"segment code {code} names no segment"):
            import_masks(forged)

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


class TestRamp:
    def test_threads_derive_exact_columns(self, monkeypatch):
        # Positions are slices of one ramp that grows by rebinding. Sequences
        # of different lengths derived by more threads than cores, with the
        # ramp rebound under them all along and switches forced often, each
        # get exactly the columns the rule gives.
        rng = random.Random(77)
        jobs = []
        for _ in range(96):
            counts = [rng.randrange(0, 600) for _ in range(rng.randrange(1, 10))]
            bounds = list(accumulate(counts, initial=0))
            gens = [rng.randrange(0, count + 1) for count in counts]
            bases = [((0, rng.randrange(0, a + 1)),) if a else () for a in bounds[:-1]]
            jobs.append((bounds, gens, bases))

        def expected(bounds, gens, bases):
            turn_of, generated, positions = [], [], []
            for t, (base, a, b, g) in enumerate(zip(bases, bounds, bounds[1:], gens)):
                seen = sum(e - s for s, e in base)
                for k in range(a, b):
                    turn_of.append(t)
                    generated.append(int(k - a < g))
                    positions.append(seen + k - a)
            return [turn_of, generated, positions]

        monkeypatch.setattr(memroll.masks, "_RAMP", array("i"))
        done = threading.Event()
        wrong = []

        def derive(mine):
            for job in mine:
                try:
                    if [column.tolist() for column in memroll.masks._derive(*job)] != expected(*job):
                        wrong.append(job)
                except Exception as exc:  # a thread's exception would be lost
                    wrong.append(exc)

        def rebind():
            while not done.is_set():
                memroll.masks._RAMP = array("i", range(rng.randrange(0, 64)))

        workers = [threading.Thread(target=derive, args=(jobs[i::8],)) for i in range(8)]
        rebinder = threading.Thread(target=rebind)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rebinder.start()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            done.set()
            rebinder.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers + [rebinder])
        assert wrong == []


    def test_threads_read_one_sequences_derived_columns(self):
        # A sequence derives its columns on first access. Threads that read
        # them at once from one sequence, fresh each round, with switches
        # forced often, each get exactly the columns of the sequence.
        st, _ = stitched(random_episode(random.Random(95)))
        names = ("turn_of", "generated", "positions")
        want = [_packed(st, name).tobytes() for name in names]
        wrong = []

        def read(fresh, order):
            try:
                got = {name: _packed(fresh, name).tobytes() for name in order}
                if [got[name] for name in names] != want:
                    wrong.append(order)
            except Exception as exc:  # a thread's exception would be lost
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                fresh = replace(st)  # nothing derived yet
                threads = [threading.Thread(target=read, args=(fresh, names[i % 3 :] + names[: i % 3])) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


COLUMNS = {
    "tokens": np.int32, "segments": np.uint8, "turn_of": np.uint16,
    "generated": np.bool_, "positions": np.int32,
}

# The read-only columns every sequence derives from its turns (the loss mask
# build_masks gives is the generated column).
DERIVED = ("turn_of", "generated", "positions", "loss")

# n and the loss count of random_episode(Random(seed)), as the numpy columns
# gave them before the columns were held packed.
PINNED = {95: ("consolidate", 1550, 384), 96: ("full_append", 1376, 314)}


def column_sources(seed: int):
    """(source, sequence, loss mask, container or None): the stitched
    sequence, then the sequence imported from each format."""
    st, counter, mask2d, mask1d = full_build(random_episode(random.Random(seed)))
    yield "stitch", st, mask1d, None
    for fmt in ALL_FORMATS + ("ranges_v4",):
        blob = v4_ranges(st, counter.name) if fmt == "ranges_v4" else export_masks(st, mask2d, mask1d, counter.name, fmt=fmt)
        st2, _, loss2, _ = import_masks(blob)
        yield fmt, st2, loss2, blob


class TestPackedColumns:
    """The columns are held packed in the container's layout; read as
    attributes they are numpy arrays of the dtypes they always had."""

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_columns_are_cached_views_of_their_dtype(self, seed):
        for source, st, mask1d, blob in column_sources(seed):
            if source == "stitch":
                stitched_st = st
            owners = [(st, name, dtype) for name, dtype in COLUMNS.items()] + [(mask1d, "loss", np.bool_)]
            for owner, name, dtype in owners:
                column = getattr(owner, name)
                assert type(column) is np.ndarray and column.dtype == dtype, (source, name)
                assert column.shape == (st.n,)
                assert getattr(owner, name) is column
                assert np.shares_memory(column, np.frombuffer(_packed(owner, name), np.uint8))
                if name in DERIVED:  # never read from a container
                    assert not column.flags.writeable, (source, name)
                    assert blob is None or not np.shares_memory(column, np.frombuffer(blob, np.uint8))
                elif source == "ranges":  # stored narrowed: built from the container, read-only
                    assert not column.flags.writeable and np.array_equal(column, getattr(stitched_st, name))
                    assert not np.shares_memory(column, np.frombuffer(blob, np.uint8))
                elif blob is not None:  # imported columns are read in place
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
        assert names == ["tokens", "segments", "bounds", "gens", "bases", "strings"]
        # The columns and turns are required; strings defaults to None.
        fields = [array("i"), array("B"), (0,), (), ()]
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'bases'"):
            StitchedTrajectory(*fields[:4])
        assert StitchedTrajectory(*fields).strings is None and StitchedTrajectory(*fields).n == 0
        st, _ = stitched(random_episode(random.Random(95)))
        # Another dtype or a strided view is converted to the column's dtype.
        wide = np.repeat(st.tokens.astype(np.int64), 2)[::2]
        other = replace(st, tokens=wide, segments=st.segments.astype(np.int64))
        assert other.tokens.dtype == np.int32 and np.array_equal(other.tokens, st.tokens)
        assert other.segments.dtype == np.uint8 and np.array_equal(other.segments, st.segments)
        assert other.bases == st.bases and np.array_equal(other.positions, st.positions)
        same = replace(st, strings=None)
        assert np.shares_memory(same.tokens, st.tokens)  # a right-typed array is kept, not copied
        # The derived columns are no fields: they follow the turns.
        for name in ("turn_of", "generated", "positions"):
            with pytest.raises(TypeError):
                replace(st, **{name: getattr(st, name)})

    def test_pickle_and_deepcopy(self):
        for source, st, mask1d, _ in column_sources(96):
            for copied in (pickle.loads(pickle.dumps(st)), copy.deepcopy(st)):
                assert all(np.array_equal(getattr(copied, c), getattr(st, c)) for c in COLUMNS)
                assert (copied.bases, copied.strings) == (st.bases, st.strings)
            assert np.array_equal(pickle.loads(pickle.dumps(mask1d)).loss, mask1d.loss)

    def test_sequences_compare_by_value(self):
        # Sequences and loss masks are equal when their fields are, columns
        # compared item by item, whatever holds them.
        record = random_episode(random.Random(96))
        st = stitch(record, WordTokenizer())
        assert st == stitch(record, WordTokenizer())
        mask2d, mask1d = build_masks(st)
        st2, _, loss2, _ = import_masks(export_masks(st, mask2d, mask1d, "c"))
        assert st2 == st and loss2 == mask1d and not (st2 != st)
        assert pickle.loads(pickle.dumps(st)) == st and copy.deepcopy(mask1d) == mask1d
        tokens = st.tokens.copy()
        tokens[-1] += 1
        for other in (replace(st, tokens=tokens), replace(st, strings=st.strings[:-1]), replace(st, gens=st.gens[:-1])):
            assert st != other and other != st
        assert Mask1D(loss=np.zeros(st.n, bool)) != mask1d
        assert st != stitch(random_episode(random.Random(95)), WordTokenizer())

    def test_records_print_as_the_dataclasses_did(self):
        # Records print in the form the mutable dataclass versions did; they
        # are frozen, and unhashable on purpose: a column may be a writable
        # view.
        st = StitchedTrajectory(array("i", [3, 1]), array("B", [0, 2]), (0, 1, 2), (0, 1), ((), ((0, 1),)),
                                ("a", "b", "", "d"))
        loss = Mask1D(loss=bytearray(b"\x00\x01"))
        assert repr(st) == (
            "StitchedTrajectory(tokens=array([3, 1], dtype=int32), segments=array([0, 2], dtype=uint8), "
            "bounds=(0, 1, 2), gens=(0, 1), bases=((), ((0, 1),)), strings=('a', 'b', '', 'd'))"
        )
        assert repr(loss) == "Mask1D(loss=array([False,  True]))"
        assert [st.turn_of.tolist(), st.generated.tolist(), st.positions.tolist()] == [[0, 1], [False, True], [0, 1]]
        assert st.__eq__(loss) is NotImplemented and loss.__eq__(st) is NotImplemented
        for obj in (st, loss):
            with pytest.raises(TypeError):
                hash(obj)
            with pytest.raises(AttributeError):
                obj.bases = None
        with pytest.raises(AttributeError):
            st.positions = st.positions

    def test_big_endian_host_swaps_the_packed_columns(self, monkeypatch):
        # Packed columns are native, so a big-endian host byteswaps them on
        # the way out and in; a little-endian host made to swap plays one,
        # writing every item byteswapped and reading it back as it was.
        st, counter, mask2d, mask1d = full_build(random_episode(random.Random(95)))
        n = st.n
        for fmt in ("ranges", "index_list"):
            blob = export_masks(st, mask2d, mask1d, counter.name, fmt)
            with monkeypatch.context() as patched:
                patched.setattr(memroll.masks, "_SWAP", True)
                swapped = export_masks(st, mask2d, mask1d, counter.name, fmt)
                st2, mask2, loss2, _ = import_masks(swapped)
            (_, payload), (_, big) = container_parts(blob), container_parts(swapped)
            if fmt == "ranges":  # byteswapped, each id takes all 4 bytes
                assert big[0] == 4 and big[1 : 1 + 4 * n] == st.tokens.astype(">i4").tobytes()
                assert st2 == st and mask2.bases == mask2d.bases
            else:  # tokens and positions, loss and segments bytes, turn_of, then the u32 rows
                for at, end, dtype in ((0, 8 * n, "u4"), (10 * n, 12 * n, "u2"), (12 * n, len(payload), "u4")):
                    assert np.array_equal(
                        np.frombuffer(big[at:end], ">" + dtype), np.frombuffer(payload[at:end], "<" + dtype)
                    )
                assert big[8 * n : 10 * n] == payload[8 * n : 10 * n]
                assert mask2.same_rows(mask2d)
            for name in COLUMNS:
                assert _packed(st2, name) == _packed(st, name), (fmt, name)
            assert loss2 == mask1d

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
            "print(st.n > 0, st2 == st and loss2 == mask1d, 'numpy' in sys.modules)\n"
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
    # ranges_v4 is the test-side version 4 writer, pinned to the digest the
    # version 4 export gave. The deflated bytes of a ranges container depend
    # on the zlib build, so ranges is pinned over what they hold: each
    # container's version, its header fields but the sha256 (which covers
    # the deflated bytes), then its payload inflated. ranges_v5 is each
    # container re-signed as version 5, its payload inflated, pinned to the
    # digest the version 5 export gave: version 6 is version 5 deflated, and
    # version 5 still reads.
    EXPECTED = {
        "dense_bitpack": "9f16160ca78df2bdb17cbb4084216fbbe2b9b4c46dcf06098f00dd85cf85361b",
        "index_list": "efa89d1a92b6d4303e16d192a04e72f2f19b53817bb75aae458bd360954350ea",
        "ranges": "e5110eafd56d4a78c5d3a20cc47d4268b9e69810e58e735c12a9a20668863724",
        "ranges_v4": "f54b66db1b82a5ee93283efb87723fa0ab30381a0ddb8467fa319ea178a7e414",
        "ranges_v5": "c1e4138e2c05cc1f556a10a15c4a9ca25ad70a2ee0b9897385c8f3be21974a09",
    }

    @pytest.mark.parametrize("fmt", sorted(EXPECTED))
    def test_containers_are_byte_stable(self, fmt):
        digest = hashlib.sha256()
        modes = []
        for seed in range(12):
            record = random_episode(random.Random(seed))
            modes.append(record.config.mode)
            st, counter, mask2d, mask1d = full_build(record)
            if fmt == "ranges_v4":
                digest.update(v4_ranges(st, counter.name))
                continue
            blob = export_masks(st, mask2d, mask1d, counter.name, fmt=fmt.removesuffix("_v5"))
            if fmt == "ranges":
                header, payload = container_parts(blob)
                del header["sha256"]
                blob = blob[8:10] + json.dumps(header, sort_keys=True).encode("utf-8") + payload
            elif fmt == "ranges_v5":
                blob = v5_ranges(blob)
                assert import_masks(blob)[0] == st
            digest.update(blob)
        assert sorted(set(modes)) == ["consolidate", "full_append"]
        assert digest.hexdigest() == self.EXPECTED[fmt]
