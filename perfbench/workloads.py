"""Deterministic input generators for the memroll benchmark.

Every input is a pure function of (workload, seed): the same seed writes the
same bytes. The program under test only ever sees the files written here
(task JSONL, corpus or catalog JSONL, scripted-policy JSON); the expected
outcomes stay in the returned ``Expected`` value, so the benchmark can check
the program's outputs against what was planted.

QA workloads plant one gold document per question. It carries two words that
occur nowhere else plus the answer word, so the scripted "key" query for a
question must retrieve the answer; exploratory queries mix frequent (head) and
rare (tail) words of a Zipf vocabulary so search also sees wide posting lists.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

# Sizes are fixed per workload and never depend on the seed, so runs with
# different seeds do the same amount of work.
QA_SHAPES = {
    "search_qa": dict(
        docs=10_000, doc_words=40, episodes=12, objectives=2, k=3,
        mode="consolidate", is_words=24,
    ),
    "long_consolidate": dict(
        docs=1_000, doc_words=24, episodes=8, objectives=16, k=2,
        mode="consolidate", is_words=56,
    ),
    "long_append": dict(
        docs=1_000, doc_words=24, episodes=8, objectives=16, k=2,
        mode="full_append", is_words=56,
    ),
}
SHOP_SHAPE = dict(products=2_000, episodes=40)
SHOP_PAGE_SIZE = 3  # ShopSim's default results page size
WORKLOADS = tuple(QA_SHAPES) + ("shop_sim",)

VOCAB_SIZE = 6_000
ZIPF_S = 1.07
HEAD_WORDS = 50  # the most frequent words; exploratory queries draw one of these

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _syllable_word(index: int, syllables: int) -> str:
    out = []
    for _ in range(syllables):
        index, c = divmod(index, len(_CONSONANTS))
        index, v = divmod(index, len(_VOWELS))
        out.append(_CONSONANTS[c] + _VOWELS[v])
    return "".join(out)


# Vocabulary words are three or four consonant-vowel syllables, so text length
# (and what the pipeline writes) varies a little with the seed. Planted key and
# answer words contain 'q'/'x', which no syllable uses, so they never collide.
VOCAB = tuple(_syllable_word(i, 3 + i % 2) for i in range(VOCAB_SIZE))


def _zipf_cum_weights(n: int, s: float) -> list[float]:
    total = 0.0
    out = []
    for rank in range(1, n + 1):
        total += 1.0 / rank**s
        out.append(total)
    return out


_CUM = _zipf_cum_weights(VOCAB_SIZE, ZIPF_S)


def _zipf(rng: random.Random, k: int) -> list[str]:
    return rng.choices(VOCAB, cum_weights=_CUM, k=k)


def _tail(rng: random.Random) -> str:
    """A rare word: drawn uniformly from the back half of the vocabulary."""
    return VOCAB[rng.randrange(VOCAB_SIZE // 2, VOCAB_SIZE)]


def _unique(prefix: str, i: int) -> str:
    return f"{prefix}{_syllable_word(i, 3)}x"


@dataclass
class Expected:
    """What a correct run of the workload must produce."""

    episodes: int
    composite_ids: list[str] = field(default_factory=list)
    # composite id -> planted answers, in question order
    answers: dict[str, list[str]] = field(default_factory=dict)
    # composite id -> [(turn index, answer word that turn's info must hold)]
    retrievals: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    turns: int = 0
    # shop: episode id -> reward the purchase must earn
    rewards: dict[str, float] = field(default_factory=dict)
    steps: int = 0


@dataclass(frozen=True)
class QAInputs:
    tasks: Path
    corpus: Path
    policy: Path
    compose_seed: int
    objectives: int
    k: int
    mode: str
    max_turns: int


@dataclass(frozen=True)
class ShopInputs:
    catalog: Path
    episodes: Path


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def composite_groups(task_ids: list[str], n: int, seed: int) -> list[list[str]]:
    """How `memroll compose --seed` groups tasks: a seeded stdlib shuffle,
    then consecutive runs of n with the remainder dropped."""
    pool = list(task_ids)
    random.Random(seed).shuffle(pool)
    return [pool[i : i + n] for i in range(0, len(pool) - n + 1, n)]


def generate_qa(name: str, seed: int, out: Path) -> tuple[QAInputs, Expected]:
    shape = QA_SHAPES[name]
    rng = random.Random(f"{name}:{seed}")
    n_obj = shape["objectives"]
    n_tasks = shape["episodes"] * n_obj

    # Questions: two unique key words name the record, a head word the topic.
    tasks = []
    for i in range(n_tasks):
        key1, key2 = _unique("q", 2 * i), _unique("q", 2 * i + 1)
        topic = VOCAB[rng.randrange(HEAD_WORDS)]
        tasks.append(
            {
                "id": f"t{i:04d}",
                "question": f"What is the {key1} {key2} record of {topic}?",
                "golden_answers": [_unique("xa", i)],
                "keys": (key1, key2, topic),
            }
        )

    # Corpus: Zipf filler documents plus one gold document per question, at
    # seeded positions so doc_id order does not reveal the gold documents.
    n_docs = shape["docs"]
    words = shape["doc_words"]
    gold_slots = rng.sample(range(n_docs), n_tasks)
    gold_at = {slot: task for slot, task in zip(gold_slots, tasks)}
    docs = []
    for d in range(n_docs):
        body = _zipf(rng, words)
        task = gold_at.get(d)
        if task is not None:
            key1, key2, topic = task["keys"]
            body[1:4] = [key1, key2, task["golden_answers"][0]]
            body[6] = topic
        docs.append(
            {"doc_id": f"d{d:06d}", "title": " ".join(_zipf(rng, 2)), "body": " ".join(body)}
        )

    compose_seed = seed
    by_id = {t["id"]: t for t in tasks}
    groups = composite_groups([t["id"] for t in tasks], n_obj, compose_seed)
    expected = Expected(episodes=len(groups))
    scripts = {}
    is_words = shape["is_words"]
    for group in groups:
        cid = "+".join(group)
        turns = []
        found: list[str] = []
        retrievals = []
        for q, tid in enumerate(group, start=1):
            key1, key2, topic = by_id[tid]["keys"]
            explore = " ".join([VOCAB[rng.randrange(HEAD_WORDS)], _tail(rng), _tail(rng)])
            for query in (explore, f"{key1} {key2} {topic}"):
                memory = " ".join(_zipf(rng, is_words))
                state = f"Found {' '.join(found) or 'nothing'}. Question {q}: {memory}"
                turns.append(f"<IS>{state}</IS><query>{query}</query>")
            retrievals.append((len(turns) - 1, by_id[tid]["golden_answers"][0]))
            found.append(by_id[tid]["golden_answers"][0])
        answers = [by_id[tid]["golden_answers"][0] for tid in group]
        turns.append(
            f"<IS>All {len(group)} found: {' '.join(found)}.</IS>"
            f"<answer>{'; '.join(answers)}</answer>"
        )
        scripts[cid] = turns
        expected.composite_ids.append(cid)
        expected.answers[cid] = answers
        expected.retrievals[cid] = retrievals
        expected.turns += len(turns)

    out.mkdir(parents=True, exist_ok=True)
    inputs = QAInputs(
        tasks=out / "tasks.jsonl",
        corpus=out / "corpus.jsonl",
        policy=out / "policy.json",
        compose_seed=compose_seed,
        objectives=n_obj,
        k=shape["k"],
        mode=shape["mode"],
        max_turns=2 * n_obj + 1,
    )
    _write_jsonl(
        inputs.tasks,
        ({k: v for k, v in t.items() if k != "keys"} for t in tasks),
    )
    _write_jsonl(inputs.corpus, docs)
    inputs.policy.write_text(
        json.dumps({"default": [], "by_task": scripts}, sort_keys=True), encoding="utf-8"
    )
    return inputs, expected


# Shop vocabulary: every attribute is one lowercase word, and no goal filler
# word ("i", "need", "a", "lower", "than") is an attribute.
_COLORS = "red blue green black white grey navy beige pink teal".split()
_MATERIALS = "cotton wool leather steel oak bamboo linen silk glass plastic".split()
_NOUNS = "lamp mouse pillow chair mug rug kettle blanket shelf clock".split()
_SIZES = "small medium large".split()
_STYLES = "modern rustic vintage minimal classic".split()
_BRANDS = [_syllable_word(i, 2) for i in range(40)]
_TERM = re.compile(r"\w+")


def _shop_terms(text: str) -> set[str]:
    return {t.lower() for t in _TERM.findall(text)}


def generate_shop(seed: int, out: Path) -> tuple[ShopInputs, Expected]:
    rng = random.Random(f"shop_sim:{seed}")
    products = []
    for i in range(SHOP_SHAPE["products"]):
        color, material, noun = rng.choice(_COLORS), rng.choice(_MATERIALS), rng.choice(_NOUNS)
        attrs = [color, material, noun, rng.choice(_SIZES), rng.choice(_STYLES)]
        products.append(
            {
                "id": f"P{i:05d}",
                "title": f"{rng.choice(_BRANDS).title()} {attrs[4]} {material} {noun}",
                "attributes": attrs,
                "price": round(rng.uniform(5, 200), 2),
            }
        )
    # Precomputed once: each product's searchable terms, for the ranking the
    # generator replays to know which results page holds its target.
    hay = [_shop_terms(f"{p['title']} {' '.join(p['attributes'])}") for p in products]

    expected = Expected(episodes=SHOP_SHAPE["episodes"])
    episodes = []
    for e in range(SHOP_SHAPE["episodes"]):
        color, material, noun = rng.choice(_COLORS), rng.choice(_MATERIALS), rng.choice(_NOUNS)
        cap = rng.choice([40, 80, 120, 160])
        goal = f"i need a {color} {material} {noun} lower than ${cap}"
        query = f"{color} {material} {noun}"
        q = _shop_terms(query)
        scored = sorted(
            ((-len(q & h), p["id"], p) for p, h in zip(products, hay) if q & h),
            key=lambda t: (t[0], t[1]),
        )
        ranked = [p for _, _, p in scored]
        # Target on results page 2 or 3, so the script clicks next > first.
        rank = rng.randrange(SHOP_PAGE_SIZE, 3 * SHOP_PAGE_SIZE)
        target = ranked[rank]
        actions = [f"search[{query}]"]
        actions += ["click[next >]"] * (rank // SHOP_PAGE_SIZE)
        actions += [f"click[{target['id']}]", "click[description]", "click[buy now]"]
        required = [color, material, noun]
        matched = sum(1 for a in required if a in target["attributes"])
        matched += 1 if target["price"] <= cap else 0
        eid = f"shop{e:03d}"
        expected.rewards[eid] = 100.0 * matched / (len(required) + 1)
        expected.steps += len(actions)
        episodes.append({"id": eid, "goal": goal, "actions": actions})

    out.mkdir(parents=True, exist_ok=True)
    inputs = ShopInputs(catalog=out / "catalog.jsonl", episodes=out / "episodes.jsonl")
    _write_jsonl(inputs.catalog, products)
    _write_jsonl(inputs.episodes, episodes)
    return inputs, expected

