from __future__ import annotations

import json
import math
import random
import re
from collections import Counter

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
from memroll.core import segment_text
from memroll.envs import terms


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
        d_norm = math.sqrt(math.fsum((math.log(1 + c) * idf[t]) ** 2 for t, c in tf.items()))
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


def assert_matches_oracle(docs: list[Doc], queries: list[str], ks: list[int]) -> None:
    """Ranked ids and scores equal the brute-force oracle exactly."""
    corpus = Corpus(docs)
    for query in queries:
        expected = brute_force_rank(docs, query)
        for k in ks:
            got = [(d.doc_id, s) for d, s in corpus.search(query, k)]
            assert got == expected[: min(k, len(docs))], (query, k)


class TestCorpusEdgeCases:
    """The posting-list index against brute_force_rank, compared with ==."""

    def test_term_in_every_doc(self):
        # idf 0: "common" alone has q_norm 0, so every score is 0.0 and the
        # ranking is doc_id order.
        docs = [Doc(f"d{i}", "common", f"common {w}") for i, w in enumerate("x y x z".split())]
        docs.reverse()
        assert_matches_oracle(docs, ["common", "common common", "common x", "z common"], [1, 2, 4])
        assert [d.doc_id for d, _ in Corpus(docs).search("common", 3)] == ["d0", "d1", "d2"]

    def test_repeated_query_words(self):
        docs = [Doc(f"d{i}", "t", body) for i, body in enumerate(
            ["paris rome", "paris paris", "rome rome rome", "vienna", "paris vienna rome"]
        )]
        assert_matches_oracle(docs, ["paris paris rome", "rome rome rome rome", "Paris PARIS"], [1, 3, 5])

    def test_docs_matching_three_or_more_terms(self):
        rng = random.Random(11)
        vocab = "a b c d e f g h".split()
        docs = [Doc(f"d{i:03d}", "", " ".join(rng.choices(vocab, k=12))) for i in range(60)]
        query = "a b c d e f"
        matching = [sum(t in terms(d.body) for t in query.split()) for d in docs]
        assert max(matching) >= 3
        assert_matches_oracle(docs, [query, "a b c", "a a b c d"], [1, 5, 60])

    def test_ties_at_the_kth_score(self):
        twins = [Doc(f"t{i}", "alpha", "beta gamma") for i in (4, 2, 9, 7)]
        others = [Doc("a", "alpha", "delta"), Doc("z", "gamma", "omega")]
        docs = twins + others
        corpus = Corpus(docs)
        for k in (1, 2, 3, 4, 5):
            scores = [s for _, s in corpus.search("alpha beta gamma", k)]
            assert len(scores) == k
        assert [d.doc_id for d, _ in corpus.search("alpha beta gamma", 3)] == ["t2", "t4", "t7"]
        assert_matches_oracle(docs, ["alpha beta gamma", "beta"], [1, 2, 3, 4, 5, 6])

    def test_k_above_corpus_size_and_empty_corpus(self):
        docs = [Doc("b", "x", "one two"), Doc("a", "y", "two three")]
        assert_matches_oracle(docs, ["two", "three", "four"], [3, 100])
        assert Corpus([]).search("anything", 5) == []

    def test_norms_square_with_pow(self):
        # The formula squares with **, i.e. libm's pow, which rounds
        # ln(3) * ln(28) differently from its product with itself (glibc):
        # d00's score then depends on which square its norm uses.
        docs = [Doc("d00", "", "t t u"), Doc("d01", "", "u")]
        docs += [Doc(f"d{i:02d}", "", f"filler{i}") for i in range(2, 28)]
        assert_matches_oracle(docs, ["t", "t u", "u"], [1, 3])

    def test_zipf_corpus_multi_term_queries(self):
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
        assert_matches_oracle(docs, queries, [1, 3, 10, 50])


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
