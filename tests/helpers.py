"""Shared builders for the test suite: word soup, tasks, and scripted episodes.

The episode generator drives the whole mask/metrics test surface, so it
deliberately covers the awkward cases: omitted IS blocks, empty inner text,
turn-limit and invalid endings, both context modes, and both tag presets.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import zlib

from memroll import (
    CompositeTask,
    PAPER_BODY,
    RolloutConfig,
    ScriptedEnv,
    ScriptedPolicy,
    Task,
    TagPreset,
    TrajectoryRecord,
    run_rollout,
)
from memroll.compose import composite_from_tasks
from memroll.masks import FORMAT_VERSION, MAGIC

WORDS = (
    "amber basalt cedar delta ember fjord garnet harbor iris juniper "
    "kelp lotus marble nectar onyx prairie quartz reef saffron tundra "
    "umber violet willow xenon yarrow zephyr copper dune ewer flint"
).split()


def word_soup(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n_words))


def make_tasks(rng: random.Random, n: int, env_kind: str = "retrieval_qa") -> list[Task]:
    tasks = []
    for i in range(n):
        subject = word_soup(rng, rng.randint(2, 5))
        tasks.append(
            Task(
                id=f"t{i}-{rng.randrange(10**6)}",
                question=f"What pairs with {subject}?",
                gold_answers=[[rng.choice(WORDS)]],
                env_kind=env_kind,
            )
        )
    return tasks


def make_composite(rng: random.Random, n: int = 1, preset: TagPreset = PAPER_BODY) -> CompositeTask:
    return composite_from_tasks(make_tasks(rng, n), preset)


def query_turn(rng: random.Random, preset: TagPreset, *, omit_is: bool = False) -> str:
    is_block = "" if omit_is else (
        f"{preset.is_open}{word_soup(rng, rng.randint(0, 12))}{preset.is_close}"
    )
    return f"{is_block}{preset.query_open}{word_soup(rng, rng.randint(1, 6))}{preset.query_close}"


def answer_turn(rng: random.Random, preset: TagPreset, answer: str | None = None) -> str:
    text = answer if answer is not None else word_soup(rng, rng.randint(1, 4))
    return (
        f"{preset.is_open}{word_soup(rng, rng.randint(0, 10))}{preset.is_close}"
        f"{preset.answer_open}{text}{preset.answer_close}"
    )


def scripted_episode(
    rng: random.Random,
    *,
    mode: str = "consolidate",
    turns: int = 3,
    ending: str = "answer",  # answer | turn_limit | invalid
    preset_name: str = "paper_body",
    hint: bool = True,
    objective_count: int = 1,
) -> TrajectoryRecord:
    """Run one fully scripted episode and return its record.

    turns counts the turns that actually execute. For ending="answer" the last
    scripted turn answers; for "turn_limit" every turn queries and max_turns ==
    turns; for "invalid" the final turn is malformed.
    """
    config = RolloutConfig(
        max_turns=turns if ending == "turn_limit" else max(turns, rng.randint(turns, turns + 3)),
        mode=mode,
        tag_preset=preset_name,
        hint_enabled=hint,
    )
    preset = config.preset
    task = make_composite(rng, objective_count, preset)

    script = [query_turn(rng, preset, omit_is=rng.random() < 0.25) for _ in range(turns - 1)]
    if ending == "answer":
        script.append(answer_turn(rng, preset))
    elif ending == "turn_limit":
        script.append(query_turn(rng, preset))
    elif ending == "invalid":
        script.append(f"{preset.is_open}{word_soup(rng, 4)}{preset.is_close} stray text, no action")
    else:
        raise ValueError(f"unknown ending {ending!r}")

    env = ScriptedEnv([word_soup(rng, rng.randint(3, 20)) for _ in range(max(turns, 1))])
    record = run_rollout(task, ScriptedPolicy(script), env, config)
    assert len(record.turns) == turns, (ending, len(record.turns), turns)
    return record


def scrub_times(data):
    """Drop wall-clock measurements so runs can be compared for determinism."""
    if isinstance(data, dict):
        return {
            k: scrub_times(v)
            for k, v in data.items()
            if k not in ("wall_time_s", "latency_s")
        }
    if isinstance(data, list):
        return [scrub_times(v) for v in data]
    return data


def random_episode(rng: random.Random) -> TrajectoryRecord:
    """An episode with everything randomized; the acceptance workhorse."""
    ending = rng.choice(["answer", "answer", "answer", "turn_limit", "invalid"])
    return scripted_episode(
        rng,
        mode=rng.choice(["consolidate", "full_append"]),
        turns=rng.randint(1, 20),
        ending=ending,
        preset_name=rng.choice(["paper_body", "prompt_style"]),
        hint=rng.random() < 0.9,
        objective_count=rng.choice([1, 1, 2, 3]),
    )


def stored_parts(blob: bytes) -> tuple[dict, bytes]:
    """A mask container's header, as a dict, and its payload as stored."""
    (header_len,) = struct.unpack_from("<I", blob, 10)
    header = json.loads(blob[14 : 14 + header_len].decode("utf-8"))
    return header, blob[14 + header_len :]


def container_parts(blob: bytes) -> tuple[dict, bytes]:
    """A mask container's header, as a dict, and its payload, inflated from
    version 6, which stores it as one raw DEFLATE stream."""
    header, stored = stored_parts(blob)
    return header, zlib.decompress(stored, -15) if struct.unpack_from("<H", blob, 8)[0] >= 6 else stored


def sign(header: dict, stored: bytes, version: int) -> bytes:
    """A mask container of stored as its payload bytes, signed as the
    version signs them: version 1 hashes the payload alone; version 2 hashes
    the canonical JSON of the other header fields, then the payload; from
    version 4 the u16 version comes before them."""
    header = {k: v for k, v in header.items() if k != "sha256"}
    signed = stored if version == 1 else json.dumps(header, sort_keys=True).encode("utf-8") + stored
    if version >= 4:
        signed = struct.pack("<H", version) + signed
    header["sha256"] = hashlib.sha256(signed).hexdigest()
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<H", version) + struct.pack("<I", len(hb)) + hb + stored


def forge(header: dict, payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    """Re-sign a mask container so only the hash check itself stays honest:
    payload stored as the version stores it, deflated from version 6 (raw
    DEFLATE at level 1, as export writes it), and signed (see sign)."""
    if version >= 6:
        stream = zlib.compressobj(1, zlib.DEFLATED, -15)
        payload = stream.compress(payload) + stream.flush()
    return sign(header, payload, version)


def re_signed(blob: bytes, edit) -> bytes:
    """blob re-signed, at its own version, after edit(payload, n) changed
    its payload, a bytearray, in place."""
    header, payload = container_parts(blob)
    payload = bytearray(payload)
    edit(payload, header["n"])
    return forge(header, bytes(payload), struct.unpack_from("<H", blob, 8)[0])


WIDTH_FORMATS = {1: "B", 2: "H", 4: "I"}


def v5_parts(payload: bytes, n: int) -> dict:
    """Split a version 5 ranges payload into its parts: the token ids, the
    segment runs' codes and lengths, each turn's [token count, generated
    count, (start, end) pairs], the string table's code-point lengths and
    its text; and at, the offsets where the runs, the turns and the table
    start."""
    parts, at = {"at": {}}, 0

    def uints(count: int, width: int | None = None) -> list[int]:
        nonlocal at
        if width is None:  # a width-coded field
            width, at = payload[at], at + 1
        values = list(struct.unpack_from(f"<{count}{WIDTH_FORMATS[width]}", payload, at))
        at += width * count
        return values

    parts["tokens"] = uints(n)
    parts["at"]["runs"] = at
    runs = uints(1, 4)[0]
    parts["codes"], at = list(payload[at : at + runs]), at + runs
    parts["runs"] = uints(runs)
    parts["at"]["turns"] = at
    parts["turns"] = []
    for _ in range(uints(1, 4)[0]):
        count, gen, ranges = uints(3, 4)
        parts["turns"].append([count, gen, list(zip(*[iter(uints(2 * ranges, 4))] * 2))])
    parts["at"]["table"] = at
    parts["lengths"] = uints(uints(1, 4)[0])
    parts["text"] = payload[at:].decode("utf-8", "surrogatepass")
    return parts
