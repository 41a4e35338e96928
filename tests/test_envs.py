from __future__ import annotations

import codecs
import json
import math
import os
import random
import re
import unicodedata
from array import array
from collections import Counter
from importlib.util import source_hash

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memroll import (
    Corpus,
    DataError,
    Doc,
    Environment,
    HttpSearchEnv,
    Observation,
    Product,
    RetrievalEnv,
    ScriptedEnv,
    ShopEnv,
    ShopGoal,
    ShopSim,
    Task,
    ValidationError,
    load_catalog,
    render_passages,
    retrieve,
)
from memroll import envs
from memroll.core import replace, segment_text
from memroll.envs import INDEX_SUFFIX, terms


class TestTerms:
    def test_lowercase_words_only(self):
        assert terms("The Seine, in Paris!") == ["the", "seine", "in", "paris"]

    def test_empty(self):
        assert terms("  ... ") == []

    def test_case_mapping_that_changes_length(self):
        # "İ".lower() is two code points, the second a combining mark that
        # is not a word character: tokens split before lowercasing.
        assert terms("İSTANBUL straße") == ["i̇stanbul", "straße"]

    @given(st.text())
    def test_matches_segmentation_definition(self, text):
        """terms() keeps the word segments of the tokenizer's segmentation."""
        old = [tok.lower() for tok in segment_text(text) if re.fullmatch(r"\w+", tok)]
        assert terms(text) == old

    @given(st.text(st.characters(max_codepoint=127)))
    def test_ascii_text_matches_per_token_lowercasing(self, text):
        assert terms(text) == [tok.lower() for tok in re.findall(r"\w+", text)]


CORPUS = Corpus(
    [
        Doc("d1", "Seine", "The Seine flows through Paris toward the sea."),
        Doc("d2", "Danube", "The Danube flows through Vienna and Budapest."),
        Doc("d3", "Cooking", "Braise the onions slowly in butter."),
        Doc("d4", "Paris", "Paris is the capital of France."),
        Doc("d5", "Alps", "The Alps separate France from Italy."),
    ]
)


def brute_force_rank(docs: list[Doc], query: str) -> list[tuple[str, float]]:
    """Independent TF-IDF cosine oracle, straight from the formula."""
    n = len(docs)
    doc_tf = [Counter(terms(f"{d.title} {d.body}")) for d in docs]
    df = Counter()
    for tf in doc_tf:
        df.update(tf.keys())
    idf = {t: math.log(n / c) for t, c in df.items()}
    q_tf = Counter(t for t in terms(query) if t in idf)
    q_w = {t: math.log(1 + c) * idf[t] for t, c in q_tf.items()}
    q_norm = math.sqrt(math.fsum(w * w for w in q_w.values()))
    out = []
    for d, tf in zip(docs, doc_tf):
        d_w = [math.log(1 + c) * idf[t] for t, c in tf.items()]
        d_norm = math.sqrt(math.fsum(w * w for w in d_w))
        dot = math.fsum(q_w[t] * math.log(1 + tf[t]) * idf[t] for t in sorted(q_w) if t in tf)
        score = dot / (q_norm * d_norm) if q_norm * d_norm > 0 and dot else 0.0
        out.append((d.doc_id, score))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out


class TestCorpus:
    def test_unique_term_match_ranks_first(self):
        results = CORPUS.search("braise onions in butter", k=3)
        assert results[0][0].doc_id == "d3"
        assert results[0][1] > 0

    def test_k_clamped_to_corpus_size(self):
        small = Corpus(CORPUS.docs[:2])
        assert len(small.search("anything", k=3)) == 2

    def test_empty_corpus_returns_nothing(self):
        assert Corpus([]).search("paris", k=3) == []

    def test_zero_score_docs_still_rank(self):
        # A query matching nothing returns min(k, N) docs ordered by doc_id.
        results = CORPUS.search("zzz qqq", k=3)
        assert [d.doc_id for d, _ in results] == ["d1", "d2", "d3"]
        assert all(score == 0.0 for _, score in results)

    def test_ties_broken_by_ascending_doc_id(self):
        twins = Corpus(
            [
                Doc("b", "Twin", "identical body text"),
                Doc("a", "Twin", "identical body text"),
                Doc("c", "Other", "nothing shared here at all"),
            ]
        )
        results = twins.search("identical body", k=3)
        assert [d.doc_id for d, _ in results] == ["a", "b", "c"]
        assert results[0][1] == results[1][1]

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(DataError):
            Corpus([Doc("x", "a", "b"), Doc("x", "c", "d")])

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError):
            CORPUS.search("paris", k=0)

    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "a", "title": "T", "body": "B"}\n'
            '{"doc_id": "b", "title": "U", "body": "C"}\n'
        )
        corpus = Corpus.from_jsonl(path)
        assert len(corpus) == 2

    def test_from_jsonl_missing_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "a", "title": "T"}\n')
        with pytest.raises(DataError):
            Corpus.from_jsonl(path)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        vocab = "river city mountain bread cheese wine train paris vienna rome".split()
        for trial in range(30):
            docs = [
                Doc(f"d{i:02d}", " ".join(rng.choices(vocab, k=2)), " ".join(rng.choices(vocab, k=8)))
                for i in range(rng.randint(1, 20))
            ]
            corpus = Corpus(docs)
            query = " ".join(rng.choices(vocab + ["zzz"], k=3))
            expected = brute_force_rank(docs, query)
            k = rng.randint(1, 25)
            got = [(d.doc_id, s) for d, s in corpus.search(query, k)]
            assert got == expected[: min(k, len(docs))]


def assert_matches_oracle(docs: list[Doc], queries: list[str], ks: list[int], folder) -> None:
    """Ranked ids and scores equal the brute-force oracle exactly, for a
    corpus built from docs and for one loaded from its index file in folder."""
    path = write_corpus(folder / "oracle.jsonl", docs)
    Corpus.from_jsonl(path)
    warm = Corpus.from_jsonl(path)
    assert warm._docs is None  # loaded from the index file
    corpora = (Corpus(docs), warm)
    for query in queries:
        expected = brute_force_rank(docs, query)
        for k in ks:
            for corpus in corpora:
                got = [(d.doc_id, s) for d, s in corpus.search(query, k)]
                assert got == expected[: min(k, len(docs))], (query, k)


class TestCorpusEdgeCases:
    """The posting-list index against brute_force_rank, compared with ==."""

    def test_term_in_every_doc(self, tmp_path):
        # idf 0: "common" alone has q_norm 0, so every score is 0.0 and the
        # ranking is doc_id order.
        docs = [Doc(f"d{i}", "common", f"common {w}") for i, w in enumerate("x y x z".split())]
        docs.reverse()
        assert_matches_oracle(docs, ["common", "common common", "common x", "z common"], [1, 2, 4], tmp_path)
        assert [d.doc_id for d, _ in Corpus(docs).search("common", 3)] == ["d0", "d1", "d2"]

    def test_repeated_query_words(self, tmp_path):
        docs = [Doc(f"d{i}", "t", body) for i, body in enumerate(
            ["paris rome", "paris paris", "rome rome rome", "vienna", "paris vienna rome"]
        )]
        assert_matches_oracle(docs, ["paris paris rome", "rome rome rome rome", "Paris PARIS"], [1, 3, 5], tmp_path)

    def test_docs_matching_three_or_more_terms(self, tmp_path):
        rng = random.Random(11)
        vocab = "a b c d e f g h".split()
        docs = [Doc(f"d{i:03d}", "", " ".join(rng.choices(vocab, k=12))) for i in range(60)]
        query = "a b c d e f"
        matching = [sum(t in terms(d.body) for t in query.split()) for d in docs]
        assert max(matching) >= 3
        assert_matches_oracle(docs, [query, "a b c", "a a b c d"], [1, 5, 60], tmp_path)

    def test_ties_at_the_kth_score(self, tmp_path):
        twins = [Doc(f"t{i}", "alpha", "beta gamma") for i in (4, 2, 9, 7)]
        others = [Doc("a", "alpha", "delta"), Doc("z", "gamma", "omega")]
        docs = twins + others
        corpus = Corpus(docs)
        for k in (1, 2, 3, 4, 5):
            scores = [s for _, s in corpus.search("alpha beta gamma", k)]
            assert len(scores) == k
        assert [d.doc_id for d, _ in corpus.search("alpha beta gamma", 3)] == ["t2", "t4", "t7"]
        assert_matches_oracle(docs, ["alpha beta gamma", "beta"], [1, 2, 3, 4, 5, 6], tmp_path)

    def test_k_above_corpus_size_and_empty_corpus(self, tmp_path):
        docs = [Doc("b", "x", "one two"), Doc("a", "y", "two three")]
        assert_matches_oracle(docs, ["two", "three", "four"], [3, 100], tmp_path)
        assert Corpus([]).search("anything", 5) == []

    def test_norms_square_by_multiplying(self, tmp_path):
        # Norms square with IEEE *, as query weights do. libm's pow (**)
        # rounds ln(3) * ln(28) squared differently (glibc): d00's score
        # then depends on which square its norm uses.
        docs = [Doc("d00", "", "t t u"), Doc("d01", "", "u")]
        docs += [Doc(f"d{i:02d}", "", f"filler{i}") for i in range(2, 28)]
        assert_matches_oracle(docs, ["t", "t u", "u"], [1, 3], tmp_path)

    def test_zipf_corpus_multi_term_queries(self, tmp_path):
        rng = random.Random(2024)
        vocab = [f"w{i}" for i in range(800)]
        weights = [1 / (rank + 1) ** 1.1 for rank in range(len(vocab))]
        docs = [
            Doc(f"d{i:05d}", " ".join(rng.choices(vocab, weights, k=2)),
                " ".join(rng.choices(vocab, weights, k=rng.randint(0, 30))))
            for i in rng.sample(range(100_000), 2_000)
        ]
        queries = [" ".join(rng.choices(vocab, weights, k=rng.randint(1, 7))) for _ in range(12)]
        queries += [" ".join(rng.choices(vocab, k=3)) for _ in range(4)]
        assert_matches_oracle(docs, queries, [1, 3, 10, 50], tmp_path)


def head_corpus(seed: int) -> tuple[list[Doc], list[str]]:
    """About 1,250 documents in which each of five head words is in at least
    90%, key word pairs found together in one document each, and exact
    duplicates under other ids, some of key documents; with key-shaped
    (two key words and a head word), exploratory and head-word queries."""
    rng = random.Random(seed)
    heads = [f"h{i}" for i in range(5)]
    filler = [f"w{i}" for i in range(400)]
    weights = [1 / (rank + 1) for rank in range(len(filler))]
    docs = []
    for i in range(1_200):
        words = [h for h in heads if rng.random() < 0.95 for _ in range(rng.choice((1, 1, 2)))]
        words += rng.choices(filler, weights, k=rng.randint(3, 20))
        rng.shuffle(words)
        docs.append(Doc(f"d{i:05d}", rng.choice(heads), " ".join(words)))
    queries = []
    for j, i in enumerate(rng.sample(range(len(docs)), 12)):
        docs[i] = replace(docs[i], body=f"{docs[i].body} k{j}a k{j}b")
        queries.append(f"k{j}a {rng.choice(heads)} k{j}b")
        for copy in range(j % 3):  # key documents that tie with one or two copies
            docs.append(replace(docs[i], doc_id=f"c{copy}{docs[i].doc_id}"))
    docs += [replace(docs[i], doc_id=f"x{docs[i].doc_id}") for i in rng.sample(range(1_200), 40)]
    rng.shuffle(docs)
    tail = filler[200:]
    queries += [f"{rng.choice(heads)} {rng.choice(tail)} {rng.choice(tail)}" for _ in range(6)]
    queries += [*heads[:3], "h0 h1", "h2 h3 h4", f"{heads[4]} {filler[0]}"]
    return docs, queries


def loop_blocks(monkeypatch, corpus: Corpus, query: str, k: int) -> dict[str, tuple[int, int]]:
    """How many blocks of each query term's list search takes before it
    completes candidates (which may read more), against how many it has."""
    read, completing = set(), []
    decode, complete = envs._decode, Corpus._complete

    def recording_decode(post_docs, lo, hi):
        if not completing:
            read.update(range(lo, hi, envs._BLOCK))
        return decode(post_docs, lo, hi)

    def recording_complete(self, *args):
        completing.append(1)
        return complete(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(envs, "_decode", recording_decode)
        patch.setattr(Corpus, "_complete", recording_complete)
        corpus.search(query, k)
    taken = {}
    for word in set(terms(query)):
        t = corpus._vocab[word]
        firsts = range(corpus._starts[t], corpus._starts[t + 1], envs._BLOCK)
        taken[word] = (len(read.intersection(firsts)), len(firsts))
    return taken


class TestBlockMaxSearch:
    """Pruned search against brute_force_rank, on lists of many blocks."""

    @pytest.mark.parametrize("block", [128, 16])
    def test_head_terms_keys_and_ties(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(envs, "_BLOCK", block)
        docs, queries = head_corpus(block)
        for head in ("h0", "h1", "h2", "h3", "h4"):
            assert sum(head in terms(f"{d.title} {d.body}") for d in docs) >= 0.9 * len(docs) >= 1_000
        assert_matches_oracle(docs, queries, list(range(1, 13)), tmp_path)

    # Blocks of 4 postings. "head" is in each of the 80 d documents, once or
    # twice among filler, so its bounds differ block to block; "keya keyb" is
    # in one of them; "rare1" and "rare2" in three each; and twelve copies of
    # one document hold "tie".
    @staticmethod
    def pruning_corpus() -> list[Doc]:
        rng = random.Random(4)
        docs = [
            Doc(f"d{i:03d}", "", " ".join(["head"] * rng.randint(1, 2) + rng.choices("abcdefgh", k=rng.randint(1, 9))))
            for i in range(80)
        ]
        docs[37] = replace(docs[37], body=f"{docs[37].body} keya keyb")
        for i, word in ((5, "rare1"), (6, "rare1"), (50, "rare1"), (6, "rare2"), (51, "rare2"), (70, "rare2")):
            docs[i] = replace(docs[i], body=f"{docs[i].body} {word}")
        docs += [Doc(f"t{i:02d}", "", "tie tie z") for i in range(12)]
        return docs

    @pytest.mark.parametrize(
        "query, k, word, skipped",
        [("rare1 head rare2", 2, "head", "whole list"), ("keya keyb head", 3, "head", "some blocks"),
         ("tie", 3, "tie", "nothing")],
    )
    def test_each_pruning_outcome(self, tmp_path, monkeypatch, query, k, word, skipped):
        monkeypatch.setattr(envs, "_BLOCK", 4)
        docs = self.pruning_corpus()
        taken, blocks = loop_blocks(monkeypatch, Corpus(docs), query, k)[word]
        assert blocks > 2
        assert {"whole list": taken == 0, "some blocks": 0 < taken < blocks, "nothing": taken == blocks}[skipped]
        assert_matches_oracle(docs, [query], list(range(1, 13)), tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(["h", "h", "h", "a", "b", "c", "d"]), max_size=6), max_size=40),
        st.lists(st.sampled_from(["h", "a", "b", "c", "d", "e"]), min_size=1, max_size=4),
        st.integers(1, 12),
    )
    def test_blocks_of_two_match_the_oracle(self, bodies, query, k):
        docs = [Doc(f"d{i:02d}", "", " ".join(body)) for i, body in enumerate(bodies)]
        query = " ".join(query)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(envs, "_BLOCK", 2)
            got = [(d.doc_id, s) for d, s in Corpus(docs).search(query, k)]
        assert got == brute_force_rank(docs, query)[: min(k, len(docs))]


# Words with case mappings that change length, letters outside the BMP,
# digits of other scripts, and underscores: all of them \w.
_WORDS = "river city bread wine Straße ΣΊΣΥΦΟΣ İstanbul ﬁre 𝔘nicode ٣٤ snake_case Ǆemal naïve".split()


def random_docs(rng: random.Random, n: int) -> list[Doc]:
    """n documents with shuffled ids; some hold no term at all."""
    ids = rng.sample(range(10 * n + 1), n)
    docs = []
    for i in ids:
        if rng.random() < 0.15:
            docs.append(Doc(f"d{i}", "", rng.choice(["", "!!! ...", " \t—"])))
        else:
            words = rng.choices(_WORDS, k=rng.randint(1, 12))
            docs.append(Doc(f"d{i}", rng.choice(_WORDS), ", ".join(words)))
    return docs


def write_corpus(path, docs: list[Doc], ensure_ascii: bool = True):
    lines = [json.dumps({"doc_id": d.doc_id, "title": d.title, "body": d.body}, ensure_ascii=ensure_ascii)
             for d in docs]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def index_of(corpus: Corpus) -> dict:
    """Every array search reads, bit for bit."""
    names = ("_starts", "_idf", "_norms", "_blocks", "_bounds", "_post_docs", "_post_tf")
    arrays = {name: getattr(corpus, name) for name in names}
    return {
        "vocab": list(corpus._vocab.items()),
        **{name: (a.typecode, a.tobytes()) for name, a in arrays.items()},
    }


def results_of(corpus: Corpus, queries: list[str]) -> list:
    return [[(d.doc_id, s.hex()) for d, s in corpus.search(q, k)] for q in queries for k in (1, 3, 50)]


@pytest.fixture
def builds(monkeypatch):
    """Counts the index builds from here on."""
    count = []
    build = envs._build_index
    monkeypatch.setattr(envs, "_build_index", lambda ordered: count.append(1) or build(ordered))
    return count


QUERIES = [*_WORDS, "river wine river", "strasse STRASSE", "σίσυφος", "nothing here", "", "ﬁre FIRE"]


class TestCorpusIndexFile:
    """Corpus.from_jsonl keeps its index in FILE.memroll-index: loaded when
    its key matches, built and rewritten otherwise, never a source of errors."""

    @pytest.mark.parametrize(
        "case", ["empty", "one_doc", "no_terms", "frequent_word", *[f"random{i}" for i in range(6)]]
    )
    def test_loaded_index_equals_a_fresh_build(self, tmp_path, builds, case):
        rng = random.Random(case)
        docs = {
            "empty": [],
            "one_doc": [Doc("only", "Straße", "İstanbul river")],
            "no_terms": [Doc("a", "", "!!!"), Doc("b", "...", "")],
            "frequent_word": [Doc("a", "wine", "river " * 300), Doc("b", "city", "bread river")],
        }.get(case) or random_docs(rng, rng.randint(2, 60))
        path = write_corpus(tmp_path / "corpus.jsonl", docs, ensure_ascii=rng.random() < 0.5)
        cold = Corpus.from_jsonl(path)
        assert builds == [1] and (tmp_path / f"corpus.jsonl{INDEX_SUFFIX}").is_file()
        warm = Corpus.from_jsonl(path)
        assert builds == [1]
        fresh = Corpus(docs)
        assert index_of(cold) == index_of(warm) == index_of(fresh)
        assert results_of(cold, QUERIES) == results_of(warm, QUERIES) == results_of(fresh, QUERIES)
        assert warm.docs == docs

    # Corpus files whose lines end, pad and spell their objects in every way
    # the first load accepts; each maps to the documents it holds, in order.
    LAYOUTS = {
        "crlf_cr_and_blank_lines": (
            b'\r\n{"doc_id": "c", "title": "wine", "body": "river"}\r\n\r\n'
            b'{"doc_id": "a", "title": "city", "body": "bread"}\r'
            b'{"doc_id": "b", "title": "wine", "body": "city"}\n\n\r\r\n',
            [Doc("c", "wine", "river"), Doc("a", "city", "bread"), Doc("b", "wine", "city")],
        ),
        "unicode_whitespace_around_objects": (
            '\x85{"doc_id": "b", "title": "wine", "body": "river"}\xa0\n'
            '\u2028\x1c {"doc_id": "a", "title": "city", "body": "wine"}\x1c\x85\n'
            '\xa0\t{"doc_id": "c", "title": "bread", "body": "river"}\u2028\n'.encode(),
            [Doc("b", "wine", "river"), Doc("a", "city", "wine"), Doc("c", "bread", "river")],
        ),
        "escaped_and_raw_non_ascii": (
            '{"doc_id": "\\u00e9t\\u00e9", "title": "Stra\\u00dfe \\ud800", "body": "\\ud83d\\ude00 river"}\n'
            '{"doc_id": "été2", "title": "Straße İstanbul", "body": "𝔘nicode ٣٤ river"}\n'
            '{"doc_id": "a\\u2028", "title": "\\u0085wine", "body": "\\u00a0"}\n'.encode(),
            [Doc("été", "Straße \ud800", "😀 river"), Doc("été2", "Straße İstanbul", "𝔘nicode ٣٤ river"),
             Doc("a\u2028", "\x85wine", "\xa0")],
        ),
        "odd_objects": (
            b'{"doc_id": 7, "title": "wine", "body": "river", "extra": [1, 2]}\n'
            b'{"body": "city", "doc_id": "10", "title": 1.5, "body": "bread"}\n'
            b'{"title": "a", "doc_id": "x", "title": "b", "body": null, "doc_id": "y"}\n',
            [Doc("7", "wine", "river"), Doc("10", "1.5", "bread"), Doc("y", "b", "None")],
        ),
        "no_final_newline": (
            b'{"doc_id": "b", "title": "wine", "body": "river"}\n'
            b'{"doc_id": "a", "title": "city", "body": "bread"}',
            [Doc("b", "wine", "river"), Doc("a", "city", "bread")],
        ),
    }

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_warm_docs_equal_cold_docs(self, tmp_path, builds, layout):
        data, docs = self.LAYOUTS[layout]
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        cold = Corpus.from_jsonl(path)
        warm = Corpus.from_jsonl(path)
        assert builds == [1]
        assert cold.docs == docs
        assert warm.docs == cold.docs
        queries = [*QUERIES, "bread city", "river", "Straße"]
        assert results_of(warm, queries) == results_of(cold, queries) == results_of(Corpus(docs), queries)

    @pytest.mark.parametrize("lines", [1, 3])
    def test_byte_order_mark(self, tmp_path, builds, lines):
        docs = [Doc("b", "wine", "river"), Doc("a", "city", "bread"), Doc("c", "Straße", "river")][:lines]
        path = write_corpus(tmp_path / "corpus.jsonl", docs, ensure_ascii=False)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        cold = Corpus.from_jsonl(path)
        warm = Corpus.from_jsonl(path)
        assert builds == [1]  # the mark does not stop the index file from fitting
        assert cold.docs == warm.docs == docs
        assert results_of(warm, QUERIES) == results_of(cold, QUERIES) == results_of(Corpus(docs), QUERIES)

    def test_warm_load_builds_documents_only_for_what_search_returns(self, tmp_path, monkeypatch):
        docs = random_docs(random.Random(8), 40)
        path = write_corpus(tmp_path / "corpus.jsonl", docs)
        calls = Counter()
        # envs reads JSONL only through jsonl_lines: the per-object reader
        # iter_jsonl went with load_catalog to shop.py.
        assert "iter_jsonl" not in vars(envs)
        for name in ("jsonl_lines", "_parse_doc"):
            def counted(*args, _name=name, _fn=getattr(envs, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(envs, name, counted)
        Corpus.from_jsonl(path)
        assert calls == {"jsonl_lines": 1, "_parse_doc": len(docs)}
        calls.clear()
        warm = Corpus.from_jsonl(path)
        assert len(warm) == len(docs)
        assert calls == {}
        returned = set()
        for query in QUERIES:
            returned.update(doc.doc_id for doc, _ in warm.search(query, 3))
            assert calls == {"_parse_doc": len(returned)}
        assert len(returned) < len(docs)
        assert warm.docs == docs
        assert calls == {"_parse_doc": len(docs)}

    def test_changed_byte_rebuilds(self, tmp_path, builds):
        docs = [Doc("a", "wine", "river bread"), Doc("b", "city", "river wine")]
        path = write_corpus(tmp_path / "corpus.jsonl", docs)
        Corpus.from_jsonl(path)
        sidecar = tmp_path / f"corpus.jsonl{INDEX_SUFFIX}"
        stale = sidecar.read_bytes()
        before = path.stat()
        data = path.read_bytes()
        path.write_bytes(data.replace(b"bread", b"brEad"))  # same size
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        changed = Corpus.from_jsonl(path)
        assert builds == [1, 1]
        fresh = Corpus([Doc("a", "wine", "river brEad"), Doc("b", "city", "river wine")])
        assert index_of(changed) == index_of(fresh)
        assert sidecar.read_bytes() != stale

    def test_corpus_errors_still_raise_with_an_index_present(self, tmp_path):
        path = write_corpus(tmp_path / "corpus.jsonl", [Doc("a", "wine", "river")])
        Corpus.from_jsonl(path)
        path.write_text(path.read_text() + '{"doc_id": "a", "title": "T", "body": "B"}\n')
        with pytest.raises(DataError, match="duplicate doc_id 'a'"):
            Corpus.from_jsonl(path)
        path.write_text('{"doc_id": "a", "title": "T"}\n')
        with pytest.raises(DataError, match="missing corpus field"):
            Corpus.from_jsonl(path)

    @staticmethod
    def damaged(good: bytes, case: str) -> list[bytes]:
        if case == "truncated":
            return [good[:cut] for cut in range(len(good))]
        if case == "bit_flipped":
            return [good[:i] + bytes([good[i] ^ 1 << i % 8]) + good[i + 1 :] for i in range(len(good))]
        return [good + b"\0", good + b" "]  # trailing bytes

    @pytest.mark.parametrize("case", ["truncated", "bit_flipped", "trailing_bytes"])
    def test_damaged_index_is_rebuilt_and_rewritten(self, tmp_path, builds, case):
        docs = random_docs(random.Random(case), 12)
        path = write_corpus(tmp_path / "corpus.jsonl", docs)
        expected = index_of(Corpus.from_jsonl(path))
        sidecar = tmp_path / f"corpus.jsonl{INDEX_SUFFIX}"
        good = sidecar.read_bytes()
        variants = self.damaged(good, case)
        for bad in variants:
            sidecar.write_bytes(bad)
            assert index_of(Corpus.from_jsonl(path)) == expected
            assert sidecar.read_bytes() == good
        assert len(builds) == 1 + len(variants)

    @staticmethod
    def resigned(good: bytes, case: str) -> bytes:
        """good with one array, the spans or the vocabulary made inconsistent,
        and its checksum recomputed, as only a deliberate edit would do.

        The cases edit the index of INCONSISTENT built with blocks of 2:
        terms ab, cd and ef; post_docs [0 | 1, 0 | 3 | 2, 0] (ab's block,
        cd's two blocks, ef's block: each block's first document, then gaps
        less one)."""
        prefix = envs._INDEX_PREFIX
        magic, header_len, _ = prefix.unpack_from(good)
        header = good[prefix.size : prefix.size + header_len]
        sizes = json.loads(header)
        at = prefix.size + header_len
        arrays = {}
        for name, dtype, count in [
            ("starts", "<i8", sizes["terms"] + 1), ("idf", "<f8", sizes["terms"]),
            ("norms", "<f8", sizes["docs"]), ("spans", "<i8", 2 * sizes["docs"]),
            ("bounds", "<f8", sizes["blocks"]),
            ("post_docs", "<u4", sizes["postings"]), ("post_tf", "<i4", sizes["postings"]),
        ]:
            arrays[name] = np.frombuffer(good, dtype, count, at).copy()
            at += arrays[name].nbytes
        vocab = good[at:]
        starts, docs, tf = arrays["starts"], arrays["post_docs"], arrays["post_tf"]
        spans, bounds = arrays["spans"].reshape(-1, 2), arrays["bounds"]
        if case == "doc_out_of_range":
            docs[0] = sizes["docs"]  # ab's only document
        elif case == "last_doc_out_of_range":  # ef's gap: its documents become 2 and docs
            docs[-1] = sizes["docs"] - 3
        elif case == "negative_doc":  # cd's gap: -1 as a u4
            docs.view("<i4")[2] = -1
        elif case == "negative_skip_entry":  # cd's second block
            docs.view("<i4")[3] = -1
        elif case == "unsorted_postings":  # cd's first block now ends at 3, its second's first
            docs[2] = 1
        elif case == "zero_tf":
            tf[0] = 0
        elif case == "huge_tf":
            tf[0] = 2**31 - 1
        elif case == "tf_longer_than_any_line":  # no line is 200 bytes long
            tf[0] = 200
        elif case == "term_without_postings":
            starts[1] = 0
        elif case == "duplicate_term":
            vocab = vocab.replace(b"cd\n", b"ab\n")
        elif case == "span_past_the_end":
            spans[-1, 1] = 2**40
        elif case == "empty_span":
            spans[0, 1] = spans[0, 0]
        elif case == "overlapping_spans":
            spans[1] = spans[0]
        elif case == "too_few_spans":  # the last document dropped whole
            header = header.replace(b'"docs": %d' % sizes["docs"], b'"docs": %d' % (sizes["docs"] - 1))
            arrays["norms"], arrays["spans"] = arrays["norms"][:-1], spans[:-1]
        elif case == "empty_span_after_the_last_line":  # c's span stretched over d's line
            spans[-2, 1] = spans[-1, 1]
            spans[-1] = spans[-1, 1] + len("\n")
        elif case == "split_line":  # lines one byte apart, but by a's "}", not a line break
            spans[0, 1] -= 1
            spans[1, 0] -= 1
        elif case == "span_with_a_leading_space":  # still the lines, but does not parse
            spans[0, 0] -= len("\xa0".encode())
        elif case == "block_count_mismatch":  # one bound more, and a header that counts it
            header = header.replace(b'"blocks": %d' % sizes["blocks"], b'"blocks": %d' % (sizes["blocks"] + 1))
            arrays["bounds"] = np.append(bounds, bounds[-1])
        elif case == "nan_bound":
            bounds[1] = np.nan
        elif case == "negative_bound":
            bounds[1] = -bounds[1]
        elif case == "idf_count_mismatch":
            arrays["idf"] = arrays["idf"][:-1]
        else:  # one term more than the header says
            vocab = vocab.replace(b"cd\n", b"c\n\n")
        body = header + b"".join(a.tobytes() for a in arrays.values()) + vocab
        return prefix.pack(magic, header_len, source_hash(body)) + body

    # b2 and c hold ef, so ef's block has a gap; d holds no term, so no
    # posting shows that it is missing.
    INCONSISTENT = [Doc("a", "", "ab"), Doc("b", "", "cd cd"), Doc("b2", "", "cd ef"), Doc("c", "", "cd ef"),
                    Doc("d", "", "!!!")]

    @pytest.mark.parametrize(
        "case",
        ["doc_out_of_range", "negative_doc", "unsorted_postings", "zero_tf", "huge_tf", "tf_longer_than_any_line",
         "term_without_postings", "duplicate_term", "extra_term",
         "span_past_the_end", "empty_span", "overlapping_spans", "too_few_spans",
         "empty_span_after_the_last_line", "split_line", "last_doc_out_of_range", "negative_skip_entry",
         "block_count_mismatch", "nan_bound", "negative_bound", "idf_count_mismatch"],
    )
    def test_inconsistent_index_is_rebuilt_and_rewritten(self, tmp_path, builds, monkeypatch, case):
        monkeypatch.setattr(envs, "_BLOCK", 2)
        docs = self.INCONSISTENT
        path = write_corpus(tmp_path / "corpus.jsonl", docs)
        expected = index_of(Corpus.from_jsonl(path))
        assert expected["_post_docs"] == ("I", array("I", [0, 1, 0, 3, 2, 0]).tobytes())
        sidecar = tmp_path / f"corpus.jsonl{INDEX_SUFFIX}"
        good = sidecar.read_bytes()
        sidecar.write_bytes(self.resigned(good, case))
        corpus = Corpus.from_jsonl(path)
        assert builds == [1, 1]
        assert index_of(corpus) == expected
        assert sidecar.read_bytes() == good
        assert corpus.docs == docs
        queries = ["ab", "cd ef", "ab cd ef"]
        assert results_of(corpus, queries) == results_of(Corpus(docs), queries)

    def test_span_that_does_not_parse_is_a_data_error(self, tmp_path, builds):
        docs = [Doc("a", "wine", "river"), Doc("b", "city", "bread")]
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"doc_id": d.doc_id, "title": d.title, "body": d.body}) for d in docs]
        path.write_text(f"{lines[1]}\n\xa0{lines[0]}\n", encoding="utf-8")
        cold = Corpus.from_jsonl(path)
        assert cold.docs == [docs[1], docs[0]]
        sidecar = tmp_path / f"corpus.jsonl{INDEX_SUFFIX}"
        sidecar.write_bytes(self.resigned(sidecar.read_bytes(), "span_with_a_leading_space"))
        warm = Corpus.from_jsonl(path)
        assert builds == [1]
        assert [doc for doc, _ in warm.search("bread", 1)] == [docs[1]]
        message = rf"{re.escape(str(sidecar))}: .* deleting it is safe"
        with pytest.raises(DataError, match=message):
            warm.search("wine", 1)
        with pytest.raises(DataError, match=message):
            warm.docs

    @staticmethod
    def edited_sources(tmp_path, which: int) -> tuple:
        """_INDEX_SOURCES with source number which edited by one comment line."""
        sources = list(envs._INDEX_SOURCES)
        edited = tmp_path / f"edited{which}.py"
        edited.write_bytes(sources[which].read_bytes() + b"# an edit\n")
        sources[which] = edited
        return tuple(sources)

    @pytest.mark.parametrize("case", ["build_code", "parse_code", "unicode_version", "libc"])
    def test_index_for_another_key_is_rebuilt_and_rewritten(self, tmp_path, builds, monkeypatch, case):
        docs = random_docs(random.Random(case), 12)
        path = write_corpus(tmp_path / "corpus.jsonl", docs)
        sidecar = tmp_path / f"corpus.jsonl{INDEX_SUFFIX}"
        expected = index_of(Corpus(docs))
        with monkeypatch.context() as patch:
            if case in ("build_code", "parse_code"):
                patch.setattr(envs, "_INDEX_SOURCES", self.edited_sources(tmp_path, case == "parse_code"))
            elif case == "unicode_version":
                patch.setattr(unicodedata, "unidata_version", "1.1.0")
            else:
                patch.setattr(os, "confstr", lambda name: "another libc 0.1")
            Corpus.from_jsonl(path)
        other = sidecar.read_bytes()
        assert index_of(Corpus.from_jsonl(path)) == expected
        assert builds == [1, 1, 1]
        assert sidecar.read_bytes() != other
        Corpus.from_jsonl(path)
        assert builds == [1, 1, 1]

    def test_unreadable_source_reads_and_writes_no_index(self, tmp_path, builds, monkeypatch):
        docs = random_docs(random.Random(5), 20)
        path = write_corpus(tmp_path / "corpus.jsonl", docs)
        sidecar = tmp_path / f"corpus.jsonl{INDEX_SUFFIX}"
        Corpus.from_jsonl(path)
        stored = sidecar.read_bytes()
        monkeypatch.setattr(envs, "_INDEX_SOURCES", (tmp_path / "gone.py",))
        loaded = [Corpus.from_jsonl(path) for _ in range(2)]
        assert builds == [1, 1, 1]
        assert sidecar.read_bytes() == stored
        sidecar.unlink()
        Corpus.from_jsonl(path)
        assert not sidecar.exists()
        fresh = Corpus(docs)
        for corpus in loaded:
            assert index_of(corpus) == index_of(fresh)
            assert results_of(corpus, QUERIES) == results_of(fresh, QUERIES)

    def test_read_only_directory(self, tmp_path, builds, monkeypatch):
        docs = random_docs(random.Random(3), 20)
        folder = tmp_path / "ro"
        folder.mkdir()
        path = write_corpus(folder / "corpus.jsonl", docs)
        # Root may write to a read-only directory, so the rename is refused too.
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        folder.chmod(0o555)
        try:
            loaded = [Corpus.from_jsonl(path) for _ in range(2)]
            assert sorted(p.name for p in folder.iterdir()) == ["corpus.jsonl"]
        finally:
            folder.chmod(0o755)
        assert builds == [1, 1]
        fresh = Corpus(docs)
        for corpus in loaded:
            assert index_of(corpus) == index_of(fresh)
            assert results_of(corpus, QUERIES) == results_of(fresh, QUERIES)

    def test_index_bytes_depend_only_on_the_corpus(self, tmp_path):
        docs = random_docs(random.Random(11), 30)
        sidecars = []
        for name in ("one", "two"):
            (tmp_path / name).mkdir()
            path = write_corpus(tmp_path / name / f"{name}.jsonl", docs)
            Corpus.from_jsonl(path)
            sidecars.append(tmp_path / name / f"{name}.jsonl{INDEX_SUFFIX}")
        first = sidecars[0].read_bytes()
        assert sidecars[1].read_bytes() == first
        sidecars[0].unlink()
        Corpus.from_jsonl(tmp_path / "one" / "one.jsonl")
        assert sidecars[0].read_bytes() == first


class TestRetrieve:
    def test_rendering_shape(self):
        passages = retrieve(CORPUS, "braise onions", k=2)
        assert len(passages) == 2
        assert passages[0] == "Doc 1 (Title: Cooking) Braise the onions slowly in butter."
        assert passages[1].startswith("Doc 2 (Title: ")

    def test_render_passages_rank_is_one_based(self):
        assert render_passages([Doc("x", "T", "B")]) == ["Doc 1 (Title: T) B"]


class TestRetrievalEnv:
    def test_respond_joins_passages(self):
        env = RetrievalEnv(CORPUS, k=2)
        obs = env.respond("braise onions")
        assert isinstance(obs, Observation)
        assert obs.text.count("Doc ") == 2
        assert "\n" in obs.text
        assert obs.reward is None and obs.done is False

    def test_protocol_and_bind(self):
        env = RetrievalEnv(CORPUS)
        assert isinstance(env, Environment)
        assert env.kind == "retrieval_qa"
        assert env.bind(Task("t", "q", ["a"])) is env

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            RetrievalEnv(CORPUS, k=0)


class TestScriptedEnv:
    def test_exhaustion_repeats_last(self):
        env = ScriptedEnv(["a", "b"])
        assert [env.respond("q").text for _ in range(3)] == ["a", "b", "b"]

    def test_empty_script_rejected(self):
        with pytest.raises(ValidationError):
            ScriptedEnv([])

    def test_mapping_entries(self):
        env = ScriptedEnv([{"text": "done", "reward": 1.5, "done": True}])
        obs = env.respond("q")
        assert obs == Observation("done", reward=1.5, done=True)

    @pytest.mark.parametrize("entry", [{"text": "t", "done": "no"}, {"text": "t", "done": 1},
                                       {"text": "t", "reward": "high"}, {"text": "t", "reward": True}],
                             ids=["done_a_string", "done_a_number", "reward_a_string", "reward_a_boolean"])
    def test_mapping_values_need_json_types(self, tmp_path, entry):
        # "no" would end the episode as bool("no"); "high" would be written,
        # then refused when the archive is read.
        message = "scripted observation needs a boolean done and a number or null reward"
        with pytest.raises(ValidationError, match=message):
            ScriptedEnv([entry])
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"default": ["one"], "by_task": {"t": [entry]}}))
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: {message}"):
            ScriptedEnv.from_file(path)

    @pytest.mark.parametrize("text", [None, 7, ["a"]], ids=["null", "a_number", "a_list"])
    def test_mapping_text_must_be_a_string(self, tmp_path, text):
        # str() would serve null as the info "None" and 7 as "7".
        message = f"scripted observation needs a string text, got {text!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            ScriptedEnv([{"text": text}])
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"text": text}]))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            ScriptedEnv.from_file(path)

    def test_mapping_values_may_be_null_or_absent(self):
        env = ScriptedEnv([{"text": "a", "reward": None}, {"text": "b", "reward": 2, "done": False}])
        assert [env.respond("q") for _ in range(2)] == [Observation("a"), Observation("b", reward=2)]

    def test_bind_resets_cursor(self):
        env = ScriptedEnv(["a", "b"])
        env.respond("q")
        bound = env.bind(Task("t", "q", ["a"]))
        assert bound.respond("q").text == "a"

    def test_bind_selects_by_task(self):
        env = ScriptedEnv(["default"], by_task={"t2": ["special"]})
        assert env.bind(Task("t1", "q", ["a"])).respond("q").text == "default"
        assert env.bind(Task("t2", "q", ["a"])).respond("q").text == "special"

    def test_from_file_list(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(["one", "two"]))
        assert ScriptedEnv.from_file(path).respond("q").text == "one"

    def test_from_file_mapping(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"default": ["one"], "by_task": {"t": ["two"]}}))
        env = ScriptedEnv.from_file(path)
        assert env.bind(Task("t", "q", ["a"])).respond("q").text == "two"

    def test_from_file_malformed(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text('{"wrong": 1}')
        with pytest.raises(DataError):
            ScriptedEnv.from_file(path)

    @pytest.mark.parametrize("script", [[5], []], ids=["entry_not_text", "empty"])
    def test_from_file_checks_every_task_script(self, tmp_path, script):
        # A task's script is refused on load, not when a task with that id
        # is bound in the middle of a batch.
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"default": ["one"], "by_task": {"t": script}}))
        with pytest.raises(DataError):
            ScriptedEnv.from_file(path)


class _StubResponse:
    def __init__(self, payload):
        self._payload = payload

    def raise_for_status(self):
        pass

    def json(self):
        return self._payload


class _StubSession:
    def __init__(self, payload):
        self.payload = payload
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        return _StubResponse(self.payload)


class TestHttpSearchEnv:
    def test_renders_titles_snippets_urls(self):
        session = _StubSession(
            {
                "organic": [
                    {"title": "A", "snippet": "sa", "link": "http://a"},
                    {"title": "B", "snippet": "sb", "link": "http://b"},
                ]
            }
        )
        env = HttpSearchEnv("http://search/api", api_key="k", session=session)
        obs = env.respond("paris")
        assert obs.text == "1. A\nsa\nhttp://a\n\n2. B\nsb\nhttp://b"
        call = session.calls[0]
        assert call["json"] == {"q": "paris", "num": 10}
        assert call["headers"] == {"X-API-KEY": "k"}

    def test_top_n_limits_results(self):
        session = _StubSession(
            {"organic": [{"title": f"t{i}", "snippet": "s", "link": "u"} for i in range(5)]}
        )
        env = HttpSearchEnv("http://x", top_n=2, session=session)
        text = env.respond("q").text
        assert "2. t1" in text and "3. t2" not in text

    def test_missing_results_path(self):
        env = HttpSearchEnv("http://x", session=_StubSession({"wrong": []}))
        with pytest.raises(DataError):
            env.respond("q")

    def test_kind_and_bind(self):
        env = HttpSearchEnv("http://x", session=_StubSession({"organic": []}))
        assert env.kind == "web_search_qa"
        assert env.bind(Task("t", "q", ["a"], env_kind="web_search_qa")) is env


CATALOG = [
    Product("p1", "Red Wireless Mouse", ("red", "wireless", "mouse"), 25.0),
    Product("p2", "Blue Wired Mouse", ("blue", "wired", "mouse"), 15.0),
    Product("p3", "Red Keyboard", ("red", "keyboard"), 45.0),
    Product("p4", "Green Wireless Mouse", ("green", "wireless", "mouse"), 35.0),
]


class TestLoadCatalog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        rows = [
            {"id": p.id, "title": p.title, "attributes": list(p.attributes), "price": p.price}
            for p in CATALOG
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert load_catalog(path) == CATALOG

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        row = '{"id": "p1", "title": "T", "attributes": [], "price": 1}'
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(DataError):
            load_catalog(path)

    def test_empty_catalog_rejected(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            load_catalog(path)


class TestShopGoal:
    def test_from_text_whole_word_attributes(self):
        goal = ShopGoal.from_text("i need a red wireless mouse", CATALOG)
        assert set(goal.attributes) == {"red", "wireless", "mouse"}
        assert goal.price_cap is None

    def test_substring_does_not_match(self):
        # "bored" must not trigger the "red" attribute.
        goal = ShopGoal.from_text("i am bored of keyboards", CATALOG)
        assert "red" not in goal.attributes

    def test_price_cap_parsed(self):
        goal = ShopGoal.from_text("a blue mouse lower than $30.00 please", CATALOG)
        assert goal.price_cap == 30.0
        assert goal.total_requirements == len(goal.attributes) + 1

    @pytest.mark.parametrize("phrase", ["under $20", "less than 20", "cheaper than $ 20"])
    def test_cap_phrasings(self, phrase):
        assert ShopGoal.from_text(phrase, CATALOG).price_cap == 20.0


def sim_for(goal_text: str, **kwargs) -> ShopSim:
    return ShopSim(CATALOG, ShopGoal.from_text(goal_text, CATALOG), **kwargs)


class TestShopSim:
    def test_buy_unique_match_scores_100(self):
        sim = sim_for("a red wireless mouse lower than $30")
        state = sim.initial_state()
        state, _ = sim.step(state, "search[red wireless mouse]")
        state, _ = sim.step(state, "click[p1]")
        state, obs = sim.step(state, "click[buy now]")
        assert obs.done and obs.reward == 100.0
        assert obs.text == "You bought Red Wireless Mouse."
        assert state.done

    def test_partial_match_scores_half(self):
        sim = ShopSim(CATALOG, ShopGoal(text="", attributes=("red", "wired")))
        state = sim.initial_state()
        state, _ = sim.step(state, "search[red keyboard]")
        state, _ = sim.step(state, "click[p3]")
        state, obs = sim.step(state, "click[buy now]")
        assert obs.reward == 50.0

    def test_vacuous_goal_scores_100(self):
        sim = ShopSim(CATALOG, ShopGoal(text="anything"))
        assert sim.reward(CATALOG[0]) == 100.0

    def test_price_cap_counts_as_requirement(self):
        sim = ShopSim(CATALOG, ShopGoal(text="", attributes=("mouse",), price_cap=20.0))
        assert sim.reward(CATALOG[1]) == 100.0  # $15, has "mouse"
        assert sim.reward(CATALOG[0]) == 50.0  # $25 misses the cap

    def test_back_to_search_from_product_page(self):
        sim = sim_for("mouse")
        state = sim.initial_state()
        state, _ = sim.step(state, "search[mouse]")
        state, _ = sim.step(state, "click[p1]")
        state, obs = sim.step(state, "click[back to search]")
        assert state.page == "search"
        assert "Search page" in obs.text

    def test_invalid_action_leaves_state_unchanged(self):
        sim = sim_for("mouse")
        state = sim.initial_state()
        for bad in ["open[p1]", "click[p1]", "search[]", "click[next >]", "nonsense"]:
            new, obs = sim.step(state, bad)
            assert new == state
            assert obs.text == "invalid action"
            assert new.budget == sim.action_budget  # invalid actions cost nothing

    def test_click_by_title_case_insensitive(self):
        sim = sim_for("mouse")
        state = sim.initial_state()
        state, _ = sim.step(state, "search[wireless mouse]")
        state, _ = sim.step(state, "click[red wireless mouse]")
        assert state.page == "product" and state.product_id == "p1"

    def test_pagination(self):
        sim = sim_for("mouse", page_size=2)
        state = sim.initial_state()
        state, obs = sim.step(state, "search[mouse]")
        assert "click[next >]" in obs.text
        state, obs = sim.step(state, "click[next >]")
        assert state.page_no == 2
        # 3 products match "mouse"; page 2 is the last one.
        new, obs = sim.step(state, "click[next >]")
        assert new == state and obs.text == "invalid action"

    def test_product_panels(self):
        sim = sim_for("mouse")
        state = sim.initial_state()
        state, _ = sim.step(state, "search[red wireless mouse]")
        state, _ = sim.step(state, "click[p1]")
        state, obs = sim.step(state, "click[features]")
        assert "- red" in obs.text
        state, obs = sim.step(state, "click[description]")
        assert "Attributes: red, wireless, mouse" in obs.text
        # Panels filter attributes by name; p1 has no "color: ..." attribute.
        state, obs = sim.step(state, "click[color]")
        assert "No color information." in obs.text

    def test_color_panel_filters_matching_attributes(self):
        catalog = [Product("c1", "Lamp", ("color: red", "metal"), 12.0)]
        sim = ShopSim(catalog, ShopGoal(text="lamp"))
        state = sim.initial_state()
        state, _ = sim.step(state, "search[lamp]")
        state, _ = sim.step(state, "click[c1]")
        state, obs = sim.step(state, "click[color]")
        assert "- color: red" in obs.text

    def test_budget_exhaustion_terminates_with_zero(self):
        sim = sim_for("mouse", action_budget=2)
        state = sim.initial_state()
        state, obs = sim.step(state, "search[mouse]")
        assert not state.done
        state, obs = sim.step(state, "click[back to search]")
        assert state.done and state.reward == 0.0
        assert obs == Observation("Action budget exhausted.", reward=0.0, done=True)

    def test_step_after_done_rejected(self):
        sim = sim_for("mouse", action_budget=1)
        state, _ = sim.step(sim.initial_state(), "search[mouse]")
        with pytest.raises(ValueError):
            sim.step(state, "search[again]")

    def test_deterministic(self):
        sim = sim_for("red mouse")
        a = sim.step(sim.initial_state(), "search[red mouse]")
        b = sim.step(sim.initial_state(), "search[red mouse]")
        assert a == b

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40), st.integers(0, 2**31))
    def test_every_action_sequence_stays_in_bounds(self, choices, seed):
        actions = [
            "search[mouse]", "search[red keyboard]", "click[p1]", "click[p3]",
            "click[next >]", "click[back to search]", "click[buy now]", "click[features]",
        ]
        sim = sim_for("a red mouse under $30", action_budget=10)
        state = sim.initial_state()
        for c in choices:
            if state.done:
                break
            state, obs = sim.step(state, actions[c])
            assert state.budget >= 0
            if obs.reward is not None:
                assert 0.0 <= obs.reward <= 100.0
        # Budget strictly bounds the number of valid actions.
        assert state.budget >= 0


class TestShopEnv:
    def test_unbound_respond_rejected(self):
        env = ShopEnv(CATALOG)
        with pytest.raises(ValidationError):
            env.respond("search[mouse]")

    def test_bound_episode(self):
        env = ShopEnv(CATALOG).bind(
            Task("t", "find a red wireless mouse lower than $30", ["any"], env_kind="shop")
        )
        assert env.kind == "shop"
        env.respond("search[red wireless mouse]")
        env.respond("click[p1]")
        obs = env.respond("click[buy now]")
        assert obs.done and obs.reward == 100.0
        # The session stays over afterwards.
        assert env.respond("search[more]") == Observation("Session over.", done=True)
