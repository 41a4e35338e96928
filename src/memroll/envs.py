"""Environments a rollout can query: corpus retrieval, live web search, a toy
shop, and a scripted stand-in for tests.

Every environment answers text queries with an Observation. Implementations
declare whether concurrent respond() calls are safe and can specialize
themselves per task via bind(); stateless environments return self.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence, runtime_checkable

from .core import DataError, ValidationError, iter_jsonl

if TYPE_CHECKING:
    import requests

__all__ = [
    "Observation",
    "Environment",
    "terms",
    "Doc",
    "Corpus",
    "retrieve",
    "render_passages",
    "RetrievalEnv",
    "ScriptedEnv",
    "HttpSearchEnv",
    "Product",
    "load_catalog",
    "ShopGoal",
    "ShopState",
    "ShopSim",
    "ShopEnv",
]


@dataclass(frozen=True)
class Observation:
    """Environment feedback for one query. reward is only set by
    reward-bearing environments; done marks a terminal transition."""

    text: str
    reward: float | None = None
    done: bool = False


@runtime_checkable
class Environment(Protocol):
    kind: str | None
    concurrent: bool

    def respond(self, query: str) -> Observation: ...

    def bind(self, task) -> "Environment": ...


_WORD = re.compile(r"\w+", re.UNICODE)
# Document norms square with pow(w, 2), as the formula's w ** 2 does: libm's
# pow rounds differently from w * w for about one weight in a thousand.
_SQUARE = itertools.repeat(2)


def terms(text: str) -> list[str]:
    """Lowercased word tokens; whitespace and punctuation are dropped.

    Each token is lowercased on its own: lowercasing the whole text first
    could change where words split, since Unicode case mapping can change
    lengths.
    """
    return list(map(str.lower, _WORD.findall(text)))


@dataclass(frozen=True)
class Doc:
    doc_id: str
    title: str
    body: str


class Corpus:
    """A document collection with a TF-IDF cosine index.

    Term weights are ln(1+tf) * ln(N/df); ranking sorts by cosine descending
    with ties broken by ascending doc_id. Zero-score documents still rank, so
    a query never returns fewer than min(k, N) results. Query terms absent
    from the corpus carry no weight and do not enter the query norm.

    The index is CSR postings over documents numbered in doc_id order: term
    id t owns entries _starts[t]:_starts[t + 1] of _post_docs (int32 document
    numbers, ascending) and _post_w (float64 ln(1+tf)). A query costs time
    proportional to the lengths of its terms' postings plus k: only documents
    in those postings are scored, the k-th best score is found with
    np.partition, and a shortfall is filled with zero-score documents in
    doc_id order.

    Scores do not depend on accumulation order. A matching term contributes
    (q_w * ln(1+tf)) * idf; a document's dot product is that contribution
    alone for one matching term, the IEEE sum for two (which is already
    correctly rounded) and math.fsum for three or more. Query and document
    norms use math.fsum.
    """

    def __init__(self, docs: Sequence[Doc]) -> None:
        import numpy as np  # here, so that the other environments never load it

        # An empty corpus is legal: searches simply return nothing.
        seen = set()
        for doc in docs:
            if doc.doc_id in seen:
                raise DataError(f"duplicate doc_id {doc.doc_id!r} in corpus")
            seen.add(doc.doc_id)
        self.docs = list(docs)
        self._ordered = sorted(self.docs, key=lambda d: d.doc_id)
        n = len(self._ordered)
        vocab: defaultdict[str, int] = defaultdict(itertools.count().__next__)
        term_ids, counts, lengths = array("i"), array("i"), array("i")
        for doc in self._ordered:
            tf = Counter(terms(f"{doc.title} {doc.body}"))
            term_ids.extend(map(vocab.__getitem__, tf))
            counts.extend(tf.values())
            lengths.append(len(tf))
        self._vocab = dict(vocab)
        term_arr = np.frombuffer(term_ids, dtype=np.intc)
        tf_arr = np.frombuffer(counts, dtype=np.intc)
        df = np.bincount(term_arr, minlength=len(self._vocab))
        self._idf = [math.log(n / c) for c in df.tolist()]
        max_tf = int(tf_arr.max()) if tf_arr.size else 0
        log_tf = np.array([math.log(1 + c) for c in range(max_tf + 1)])[tf_arr]
        # Document-major here, so each document's weights are one slice.
        weights = log_tf * np.array(self._idf)[term_arr]
        ends = np.cumsum(lengths).tolist()
        self._norms = np.array(
            [
                math.sqrt(math.fsum(map(pow, weights[start:end].tolist(), _SQUARE)))
                for start, end in zip([0, *ends[:-1]], ends)
            ],
            dtype=np.float64,
        )
        by_term = np.argsort(term_arr, kind="stable")
        self._post_docs = np.repeat(np.arange(n, dtype=np.int32), lengths)[by_term]
        self._post_w = log_tf[by_term]
        self._starts = np.concatenate(([0], np.cumsum(df))).tolist()

    def __len__(self) -> int:
        return len(self.docs)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Corpus":
        docs = []
        for lineno, obj in iter_jsonl(path):
            try:
                docs.append(Doc(str(obj["doc_id"]), str(obj["title"]), str(obj["body"])))
            except KeyError as exc:
                raise DataError(f"{path} line {lineno}: missing corpus field {exc}") from None
        return cls(docs)

    def search(self, query: str, k: int) -> list[tuple[Doc, float]]:
        """Top-k (doc, cosine) pairs; all docs when the corpus is smaller than k."""
        if k < 1:
            raise ValidationError("k must be >= 1")
        import numpy as np

        q_tf = Counter(self._vocab[t] for t in terms(query) if t in self._vocab)
        q_weights = {t: math.log(1 + c) * self._idf[t] for t, c in q_tf.items()}
        q_norm = math.sqrt(math.fsum(w * w for w in q_weights.values()))
        top: list[int] = []
        top_scores: list[float] = []
        # A zero weight (a term in every document) adds nothing to any dot
        # product, so its postings are skipped.
        postings = [
            (slice(self._starts[t], self._starts[t + 1]), w, self._idf[t])
            for t, w in q_weights.items()
            if w > 0
        ]
        if postings:
            cand = np.concatenate([self._post_docs[span] for span, _, _ in postings])
            contrib = np.concatenate([(w * self._post_w[span]) * idf for span, w, idf in postings])
            if len(postings) > 1:
                order = np.argsort(cand, kind="stable")
                cand, contrib = cand[order], contrib[order]
                first = np.flatnonzero(np.concatenate(([True], cand[1:] != cand[:-1])))
                ends = np.append(first[1:], cand.size)
                cand, dots = cand[first], np.add.reduceat(contrib, first)
                for i in np.flatnonzero(ends - first >= 3).tolist():
                    dots[i] = math.fsum(contrib[first[i] : ends[i]].tolist())
            else:
                dots = contrib
            # Every candidate shares a term of positive weight with the query,
            # so its dot product and both norms are positive.
            scores = dots / (q_norm * self._norms[cand])
            if cand.size > k:
                kth = np.partition(scores, cand.size - k)[cand.size - k]
                at_least = scores >= kth
                cand, scores = cand[at_least], scores[at_least]
            # cand is ascending, i.e. in doc_id order, so a stable sort on the
            # score alone breaks ties by doc_id.
            order = np.argsort(-scores, kind="stable")[:k]
            top, top_scores = cand[order].tolist(), scores[order].tolist()
        results = [(self._ordered[i], s) for i, s in zip(top, top_scores)]
        taken = set(top)
        for i in range(len(self._ordered)):
            if len(results) >= k:
                break
            if i not in taken:
                results.append((self._ordered[i], 0.0))
        return results


def render_passages(docs: Sequence[Doc]) -> list[str]:
    """Render documents as 'Doc i (Title: ...) body' blocks, i being the rank."""
    return [f"Doc {i} (Title: {d.title}) {d.body}" for i, d in enumerate(docs, start=1)]


def retrieve(corpus: Corpus, query: str, k: int) -> list[str]:
    """Top-k passages for a query, rendered for in-context injection."""
    return render_passages([doc for doc, _ in corpus.search(query, k)])


class RetrievalEnv:
    """QA environment backed by a local corpus."""

    kind = "retrieval_qa"
    concurrent = True

    def __init__(self, corpus: Corpus, k: int = 3) -> None:
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.corpus = corpus
        self.k = k

    def respond(self, query: str) -> Observation:
        return Observation("\n".join(retrieve(self.corpus, query, self.k)))

    def bind(self, task) -> "RetrievalEnv":
        return self


class ScriptedEnv:
    """Deterministic test environment that replays canned observations.

    Entries are strings or {"text", "reward", "done"} mappings. Past the end
    of the script the last observation repeats. by_task selects a dedicated
    script per task id when the env is bound.
    """

    kind = None
    concurrent = False

    def __init__(
        self,
        script: Sequence[str | Mapping],
        by_task: Mapping[str, Sequence[str | Mapping]] | None = None,
    ) -> None:
        if not script:
            raise ValidationError("scripted env requires a non-empty script")
        self._script = [self._to_observation(entry) for entry in script]
        self._by_task = dict(by_task or {})
        self._cursor = 0

    @staticmethod
    def _to_observation(entry: str | Mapping | Observation) -> Observation:
        if isinstance(entry, Observation):
            return entry
        if isinstance(entry, str):
            return Observation(entry)
        return Observation(
            str(entry["text"]),
            reward=entry.get("reward"),
            done=bool(entry.get("done", False)),
        )

    def respond(self, query: str) -> Observation:
        obs = self._script[min(self._cursor, len(self._script) - 1)]
        self._cursor += 1
        return obs

    def bind(self, task) -> "ScriptedEnv":
        script = self._by_task.get(task.id, self._script)
        return ScriptedEnv(script)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedEnv":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(data, list):
            return cls(data)
        try:
            return cls(data["default"], by_task=data.get("by_task"))
        except (KeyError, TypeError):
            raise DataError(f"{path}: expected a list or {{'default': [...], 'by_task': {{...}}}}") from None


class HttpSearchEnv:
    """Web search over an HTTP JSON API, rendered as titles, snippets, URLs.

    The default request/response mapping matches a Serper-style endpoint
    (POST {"q": ..., "num": ...} returning {"organic": [{"title", "snippet",
    "link"}]}); override the keys for other providers.
    """

    kind = "web_search_qa"
    concurrent = True

    def __init__(
        self,
        url: str,
        *,
        api_key: str | None = None,
        auth_header: str = "X-API-KEY",
        top_n: int = 10,
        timeout: float = 10.0,
        results_path: str = "organic",
        title_key: str = "title",
        snippet_key: str = "snippet",
        url_key: str = "link",
        session: requests.Session | None = None,
    ) -> None:
        self.url = url
        self.api_key = api_key
        self.auth_header = auth_header
        self.top_n = top_n
        self.timeout = timeout
        self.results_path = results_path
        self.title_key = title_key
        self.snippet_key = snippet_key
        self.url_key = url_key
        if session is None:
            import requests  # only HTTP backends pay for this import

            session = requests.Session()
        self._session = session

    def respond(self, query: str) -> Observation:
        headers = {self.auth_header: self.api_key} if self.api_key else {}
        resp = self._session.post(
            self.url, json={"q": query, "num": self.top_n}, headers=headers, timeout=self.timeout
        )
        resp.raise_for_status()
        data = resp.json()
        results = data
        for part in self.results_path.split("."):
            if not isinstance(results, dict) or part not in results:
                raise DataError(f"search response missing {self.results_path!r}")
            results = results[part]
        blocks = []
        for i, item in enumerate(results[: self.top_n], start=1):
            title = item.get(self.title_key, "")
            snippet = item.get(self.snippet_key, "")
            link = item.get(self.url_key, "")
            blocks.append(f"{i}. {title}\n{snippet}\n{link}")
        return Observation("\n\n".join(blocks))

    def bind(self, task) -> "HttpSearchEnv":
        return self


@dataclass(frozen=True)
class Product:
    id: str
    title: str
    attributes: tuple[str, ...]
    price: float


def load_catalog(path: str | Path) -> list[Product]:
    products = []
    seen = set()
    for lineno, obj in iter_jsonl(path):
        try:
            product = Product(
                str(obj["id"]),
                str(obj["title"]),
                tuple(str(a) for a in obj["attributes"]),
                float(obj["price"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} line {lineno}: bad catalog record ({exc})") from None
        if product.id in seen:
            raise DataError(f"{path} line {lineno}: duplicate product id {product.id!r}")
        seen.add(product.id)
        products.append(product)
    if not products:
        raise DataError(f"{path}: catalog is empty")
    return products


_PRICE_CAP = re.compile(r"(?:lower than|less than|under|below|cheaper than)\s*\$?\s*([0-9]+(?:\.[0-9]+)?)", re.IGNORECASE)


@dataclass(frozen=True)
class ShopGoal:
    """What a purchase is scored against: required attribute strings plus an
    optional price cap that counts as one more requirement."""

    text: str
    attributes: tuple[str, ...] = ()
    price_cap: float | None = None

    @property
    def total_requirements(self) -> int:
        return len(self.attributes) + (1 if self.price_cap is not None else 0)

    @classmethod
    def from_text(cls, text: str, catalog: Sequence[Product]) -> "ShopGoal":
        """Derive requirements from goal text: catalog attributes mentioned in
        the text (whole words) become required, and a 'lower than $X' phrase
        sets the cap."""
        lowered = text.lower()
        vocab = sorted({attr for p in catalog for attr in p.attributes})
        required = tuple(
            a for a in vocab if re.search(rf"\b{re.escape(a.lower())}\b", lowered)
        )
        match = _PRICE_CAP.search(text)
        cap = float(match.group(1)) if match else None
        return cls(text=text, attributes=required, price_cap=cap)


@dataclass(frozen=True)
class ShopState:
    """Immutable snapshot of the shop session."""

    page: str  # search | results | product
    query: str = ""
    page_no: int = 1
    product_id: str | None = None
    panel: str | None = None
    budget: int = 0
    done: bool = False
    reward: float | None = None


_ACTION = re.compile(r"^\s*(search|click)\[(.*)\]\s*$", re.DOTALL)

_PANELS = ("description", "features", "color", "size")


class ShopSim:
    """A deterministic toy web shop honoring the search[]/click[] grammar.

    Buying scores 100 * matched requirements / total requirements. Valid
    actions consume budget; running out ends the episode with reward 0.
    Malformed or out-of-place actions leave the state unchanged and return an
    in-band "invalid action" observation.
    """

    def __init__(
        self,
        catalog: Sequence[Product],
        goal: ShopGoal,
        *,
        page_size: int = 3,
        action_budget: int = 30,
    ) -> None:
        if not catalog:
            raise DataError("shop catalog must be non-empty")
        if page_size < 1 or action_budget < 1:
            raise ValidationError("page_size and action_budget must be >= 1")
        self.catalog = list(catalog)
        self.by_id = {p.id: p for p in self.catalog}
        self.goal = goal
        self.page_size = page_size
        self.action_budget = action_budget
        # Each product's searchable terms, built once: _rank runs on every
        # results page, "next >" and product click.
        self._terms = [
            tuple(set(terms(f"{p.title} {' '.join(p.attributes)}"))) for p in self.catalog
        ]

    def initial_state(self) -> ShopState:
        return ShopState(page="search", budget=self.action_budget)

    def reward(self, product: Product) -> float:
        goal = self.goal
        if goal.total_requirements == 0:
            return 100.0
        have = {a.lower() for a in product.attributes}
        matched = sum(1 for a in goal.attributes if a.lower() in have)
        if goal.price_cap is not None and product.price <= goal.price_cap:
            matched += 1
        return 100.0 * matched / goal.total_requirements

    def _rank(self, query: str) -> list[Product]:
        q = set(terms(query))
        scored = []
        for p, hay in zip(self.catalog, self._terms):
            overlap = len(q.intersection(hay))
            if overlap:
                scored.append((overlap, p))
        scored.sort(key=lambda pair: (-pair[0], pair[1].id))
        return [p for _, p in scored]

    def observe(self, state: ShopState) -> str:
        if state.done:
            return "Session over."
        if state.page == "search":
            return "Search page. Actions: search[<keywords>]"
        if state.page == "results":
            ranked = self._rank(state.query)
            start = (state.page_no - 1) * self.page_size
            page = ranked[start : start + self.page_size]
            lines = [f"Results for '{state.query}' (page {state.page_no}):"]
            lines += [f"[{p.id}] {p.title} (${p.price:.2f})" for p in page]
            if not page:
                lines.append("(no results)")
            actions = "click[<item id>], click[back to search]"
            if start + self.page_size < len(ranked):
                actions += ", click[next >]"
            lines.append(f"Actions: {actions}")
            return "\n".join(lines)
        product = self.by_id[state.product_id]
        lines = [f"{product.title} (${product.price:.2f})"]
        if state.panel is not None:
            lines.append(self._panel_text(product, state.panel))
        lines.append(
            "Actions: click[description], click[features], click[color], click[size], "
            "click[buy now], click[back to search]"
        )
        return "\n".join(lines)

    def _panel_text(self, product: Product, panel: str) -> str:
        if panel == "description":
            attrs = ", ".join(product.attributes)
            return f"{product.title}. Attributes: {attrs}. Price: ${product.price:.2f}"
        if panel == "features":
            return "\n".join(f"- {a}" for a in product.attributes) or "- none"
        matching = [a for a in product.attributes if panel in a.lower()]
        if not matching:
            return f"No {panel} information."
        return "\n".join(f"- {a}" for a in matching)

    def step(self, state: ShopState, action: str) -> tuple[ShopState, Observation]:
        """Apply one action. Invalid actions leave the state unchanged."""
        if state.done:
            raise ValueError("no action is possible after the episode is done")
        match = _ACTION.match(action)
        if not match:
            return state, Observation("invalid action")
        verb, arg = match.group(1), match.group(2).strip()
        new = self._apply(state, verb, arg)
        if new is None:
            return state, Observation("invalid action")
        if not new.done and new.budget == 0:
            new = replace(new, done=True, reward=0.0)
            return new, Observation("Action budget exhausted.", reward=0.0, done=True)
        if new.done:
            return new, Observation(
                f"You bought {self.by_id[new.product_id].title}.",
                reward=new.reward,
                done=True,
            )
        return new, Observation(self.observe(new))

    def _apply(self, state: ShopState, verb: str, arg: str) -> ShopState | None:
        budget = state.budget - 1
        if verb == "search":
            if state.page != "search" or not arg:
                return None
            return ShopState(page="results", query=arg, page_no=1, budget=budget)
        lowered = arg.lower()
        if lowered == "back to search":
            return ShopState(page="search", budget=budget)
        if state.page == "results":
            if lowered == "next >":
                ranked = self._rank(state.query)
                if state.page_no * self.page_size >= len(ranked):
                    return None
                return replace(state, page_no=state.page_no + 1, budget=budget)
            target = self._match_product(state, lowered)
            if target is None:
                return None
            return replace(state, page="product", product_id=target.id, budget=budget)
        if state.page == "product":
            if lowered == "buy now":
                product = self.by_id[state.product_id]
                return replace(state, budget=budget, done=True, reward=self.reward(product))
            if lowered in _PANELS:
                return replace(state, panel=lowered, budget=budget)
            return None
        return None

    def _match_product(self, state: ShopState, lowered_arg: str) -> Product | None:
        ranked = self._rank(state.query)
        start = (state.page_no - 1) * self.page_size
        for p in ranked[start : start + self.page_size]:
            if p.id.lower() == lowered_arg or p.title.lower() == lowered_arg:
                return p
        return None


class ShopEnv:
    """Environment adapter over ShopSim: queries are shop actions.

    bind() starts a fresh session whose goal is derived from the task's
    question text.
    """

    kind = "shop"
    concurrent = False

    def __init__(self, catalog: Sequence[Product], goal: ShopGoal | None = None, **sim_kwargs) -> None:
        self._catalog = list(catalog)
        self._sim_kwargs = sim_kwargs
        self._sim = ShopSim(catalog, goal, **sim_kwargs) if goal is not None else None
        self._state = self._sim.initial_state() if self._sim else None

    def respond(self, query: str) -> Observation:
        if self._sim is None:
            raise ValidationError("shop env must be bound to a task (or given a goal) first")
        if self._state.done:
            return Observation("Session over.", done=True)
        self._state, obs = self._sim.step(self._state, query)
        return obs

    def bind(self, task) -> "ShopEnv":
        goal = ShopGoal.from_text(task.question, self._catalog)
        return ShopEnv(self._catalog, goal, **self._sim_kwargs)
