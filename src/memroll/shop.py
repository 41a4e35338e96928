"""A toy web shop, the paper's WebShop-style domain: a product catalog, the
search[]/click[] action grammar, purchase scoring, and the environment
adapter that rollouts query.

Only `memroll rollout --env shop:FILE` imports this module; envs.py still
answers `from memroll.envs import ShopEnv` and the other names here.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence

from .core import DataError, ValidationError, iter_jsonl, record, replace
from .envs import Observation, terms

__all__ = [
    "Product",
    "load_catalog",
    "ShopGoal",
    "ShopState",
    "ShopSim",
    "ShopEnv",
]


@record
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


@record
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


@record
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
