"""Build multi-objective composite tasks from single-objective datasets.

A composite bundles n tasks into one prompt: questions are shuffled with a
seeded RNG, grouped in consecutive runs of n (remainder dropped), and rendered
into the task-family prompt template bound to a tag preset. Composites
round-trip through a JSONL exchange format; the per-question text is recovered
from the prompt itself, so the wire format stays minimal.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    DataError,
    PAPER_BODY,
    PRESETS,
    TagPreset,
    Task,
    ValidationError,
    _freeze_gold,
    _typed,
    iter_jsonl,
    record,
)

__all__ = [
    "MULTI_QA_TEMPLATE",
    "SINGLE_QA_TEMPLATE",
    "SHOP_TEMPLATE",
    "CompositeTask",
    "bind_template",
    "prompt_prefix",
    "render_questions",
    "load_dataset",
    "compose",
    "composite_from_dict",
    "composite_from_tasks",
    "gold_of",
    "write_composites",
    "load_composites",
]

MULTI_QA_TEMPLATE = """You will answer multiple complex questions using iterative reasoning, summarization, and web search.

At each step, you will see the questions, a cumulative summary of relevant information, the current search query, and search results (except in the first step, where only the questions are provided). Your task is to:

1. Perform reasoning and update a cumulative, concise summary within {is_open} ... {is_close}. This acts as persistent memory and must include all essential information from previous {is_open} and {info_open} tags.

2. Then choose one of the following actions:
- If any question remains unanswered, issue a single query for one question inside {query_open} ... {query_close}. The query should consist of keywords or a short phrase. Only search one question at a time.
- If all questions are answered, provide the final answers—separated by semicolons—within {answer_open} answer1; answer2; ... {answer_close}. The answers must be concise, contain only essential words, and avoid any explanations.

Important:
- Always follow this structure after {info_open} or the initial questions: {is_open} ... {is_close}{query_open} ... {query_close} or {is_open} ... {is_close}{answer_open} ... {answer_close}.
- Do not search multiple queries or questions simultaneously.

Answer the following questions:[QUESTIONS]"""

SINGLE_QA_TEMPLATE = """You will answer a complex question through iterative reasoning, summarization, and web searches.

At each step, you can see the question, previous summary in {is_open} ... {is_close}, search query in {query_open} ... {query_close}, and the returned information in {info_open} ... {info_close} (except the first step where you will be given only the question). Then, you should:

1. Conduct reasoning, and then update a concise, cumulative summary with essential information inside {is_open} {is_close}. This is your persistent memory and should include all important information from previous {is_open} {is_close} and {info_open} {info_close} (i.e. information and answers already found for questions).

2. Then choose one:
- Issue a query (i.e., key words / phrases for search) inside {query_open} {query_close} (you may search repeatedly until the answer is clear). This query will be used to conduct search and return the results in {info_open} results {info_close}
- Provide the final concise answer (no explanations) if no additional information is needed inside {answer_open} {answer_close}. The answer should be concise and only contain the words necessary to answer the question.

After {info_open} {info_close} (or question at the beginning), you should always follow the order: {is_open} ... {is_close}{query_open} ... {query_close} or {is_open} ... {is_close}{answer_open} ... {answer_close}.

Question: [QUESTION]"""

SHOP_TEMPLATE = """You are browsing an online shop. Your goal is to find a product that matches the given description. You will interact with the site step-by-step. Each step gives you a <state>...</state> representing the current webpage. You must decide what action to take next until you identify the correct product.

Available actions (shown in the <state> tag) depend on the page:
- On the search page: search[<keywords>]
- On search result pages: click[<item url>] to view a product, or click[next >] to go to the next results page
- On product pages: click[description], click[features], click[color], click[size], click[buy now]
- To return to search: click[back to search]

Example goal: "Find a gingko light and 20x20 pillow cover that is hand painted."
Example first action: {answer_open}search[gingko light 20x20 pillow cover hand painted]{answer_close}
Only respond with valid actions formatted as: search[...], click[...], etc.

After you navigate and find the product that best fits the user goal, you should click[buy now] to buy the product at the product page when the buy now button is available.

Product Description: [PRODUCT DESCRIPTION]"""

_PLACEHOLDERS = {
    "multi": "[QUESTIONS]",
    "single": "[QUESTION]",
    "shop": "[PRODUCT DESCRIPTION]",
}

_TEMPLATES = {
    "multi": MULTI_QA_TEMPLATE,
    "single": SINGLE_QA_TEMPLATE,
    "shop": SHOP_TEMPLATE,
}


def _family(objective_count: int, env_kind: str) -> str:
    if env_kind == "shop":
        return "shop"
    return "single" if objective_count == 1 else "multi"


def bind_template(family: str, preset: TagPreset) -> str:
    """Fill a template's tag slots with the preset vocabulary."""
    return _TEMPLATES[family].format_map({name: getattr(preset, name) for name in preset._fields})


def prompt_prefix(objective_count: int, env_kind: str, preset: TagPreset) -> str:
    """The instruction text preceding the question block.

    Token-denominated metrics subtract this portion; the rendered questions
    themselves always count.
    """
    family = _family(objective_count, env_kind)
    bound = bind_template(family, preset)
    placeholder = _PLACEHOLDERS[family]
    assert bound.endswith(placeholder)
    return bound[: -len(placeholder)]


def render_questions(questions: Sequence[str]) -> str:
    """The text substituted for the placeholder: the bare question for a
    single objective, numbered lines otherwise."""
    if len(questions) == 1:
        return questions[0]
    return "".join(f"\n{i}. {q}" for i, q in enumerate(questions, start=1))


@record
class CompositeTask:
    """n tasks bundled into one prompt.

    prompt_prefix is the template-only portion of rendered_prompt, kept so
    metrics can exclude the fixed instructions.
    """

    id: str
    sub_tasks: tuple[Task, ...]
    rendered_prompt: str
    objective_count: int
    env_kind: str
    prompt_prefix: str

    def __post_init__(self) -> None:
        if self.objective_count != len(self.sub_tasks) or not self.sub_tasks:
            raise ValidationError(f"composite {self.id!r}: objective_count must match sub_tasks")

    @property
    def question_block(self) -> str:
        return self.rendered_prompt[len(self.prompt_prefix):]

    def to_dict(self, prompt: bool = True) -> dict:
        """The wire dict, without the rendered prompt when prompt is false
        (an archived task, whose turn 0 holds it)."""
        data = {
            "id": self.id,
            "objective_count": self.objective_count,
            "sub_ids": [t.id for t in self.sub_tasks],
            "gold": gold_of(self),
        }
        if prompt:
            data["prompt"] = self.rendered_prompt
        return data


def gold_of(composite: CompositeTask) -> list[list[str]]:
    """Positional gold for the composite: sub-task golds concatenated in order."""
    out: list[list[str]] = []
    for task in composite.sub_tasks:
        out.extend(list(v) for v in task.gold_answers)
    return out


def load_dataset(path: str | Path) -> list[Task]:
    """Load single-objective tasks from JSONL.

    Required fields: id, question, golden_answers (strings are promoted to
    single-variant lists); env_kind is optional and defaults to retrieval_qa.
    Question whitespace is collapsed to single spaces so questions stay
    single-line inside composite prompts.
    """
    tasks = []
    seen = set()
    for lineno, obj in iter_jsonl(path):
        try:
            task_id = str(obj["id"])
            question = " ".join(str(obj["question"]).split())
            gold = _freeze_gold(obj["golden_answers"])
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path} line {lineno}: bad task record ({exc})") from None
        if task_id in seen:
            raise DataError(f"{path} line {lineno}: duplicate task id {task_id!r}")
        seen.add(task_id)
        try:
            tasks.append(Task(task_id, question, gold, env_kind=obj.get("env_kind", "retrieval_qa")))
        except ValidationError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from None
    return tasks


def composite_from_tasks(tasks: Sequence[Task], preset: TagPreset = PAPER_BODY) -> CompositeTask:
    """Bundle an ordered group of tasks into one composite."""
    if not tasks:
        raise ValidationError("a composite needs at least one task")
    env_kinds = {t.env_kind for t in tasks}
    if len(env_kinds) > 1:
        raise ValidationError(f"cannot mix env kinds in one composite: {sorted(env_kinds)}")
    env_kind = tasks[0].env_kind
    n = len(tasks)
    if env_kind == "shop" and n != 1:
        raise ValidationError("shop tasks compose one goal at a time")
    prefix = prompt_prefix(n, env_kind, preset)
    questions = [t.question for t in tasks]
    prompt = prefix + render_questions(questions)
    for q in questions:
        occurrences = prompt.count(q)
        if occurrences != 1:
            raise ValidationError(
                f"question {q!r} appears {occurrences} times in the rendered prompt"
            )
    return CompositeTask(
        id="+".join(t.id for t in tasks),
        sub_tasks=tuple(tasks),
        rendered_prompt=prompt,
        objective_count=n,
        env_kind=env_kind,
        prompt_prefix=prefix,
    )


def compose(
    tasks: Sequence[Task],
    n: int,
    preset: TagPreset = PAPER_BODY,
    seed: int = 0,
) -> list[CompositeTask]:
    """Shuffle tasks with the seeded RNG, group consecutive runs of n, and
    render each group. A trailing group smaller than n is dropped."""
    if n < 1:
        raise ValidationError("objective count must be >= 1")
    if n > len(tasks):
        raise ValidationError(
            f"cannot build {n}-objective composites from {len(tasks)} tasks"
        )
    pool = list(tasks)
    random.Random(seed).shuffle(pool)
    composites = []
    for start in range(0, len(pool) - n + 1, n):
        composites.append(composite_from_tasks(pool[start : start + n], preset))
    return composites


def write_composites(path: str | Path, composites: Iterable[CompositeTask]) -> int:
    """Write composites as JSONL; returns the number written."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for composite in composites:
            handle.write(json.dumps(composite.to_dict(), ensure_ascii=False) + "\n")
            count += 1
    return count


_NUMBERED = re.compile(r"^(\d+)\. (.*)$")


def _parse_questions(prompt: str, objective_count: int) -> tuple[str, list[str], str]:
    """Recover (env_kind, questions, prefix) by matching the known templates."""
    families = ["shop", "single"] if objective_count == 1 else ["multi"]
    for family in families:
        for preset in PRESETS.values():
            prefix = prompt_prefix(1 if family != "multi" else objective_count,
                                   "shop" if family == "shop" else "retrieval_qa", preset)
            if not prompt.startswith(prefix):
                continue
            rest = prompt[len(prefix):]
            env_kind = "shop" if family == "shop" else "retrieval_qa"
            if family != "multi":
                return env_kind, [rest], prefix
            lines = rest.split("\n")
            if lines and lines[0] == "":
                lines = lines[1:]
            questions = []
            for expected, line in enumerate(lines, start=1):
                match = _NUMBERED.match(line)
                if not match or int(match.group(1)) != expected:
                    break
                questions.append(match.group(2))
            if len(questions) == objective_count and len(lines) == objective_count:
                return env_kind, questions, prefix
    raise DataError("composite prompt does not match any known template")


def load_composites(path: str | Path) -> list[CompositeTask]:
    """Read the composite JSONL exchange format back into CompositeTask values."""
    composites = []
    seen = set()
    for lineno, obj in iter_jsonl(path):
        try:
            composite = composite_from_dict(obj)
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path} line {lineno}: bad composite record ({exc})") from None
        except DataError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from None
        if composite.id in seen:
            raise DataError(f"{path} line {lineno}: duplicate composite id {composite.id!r}")
        seen.add(composite.id)
        composites.append(composite)
    if not composites:
        raise DataError(f"{path}: no composites found")
    return composites


def composite_from_dict(obj: dict, prompt: str | None = None) -> CompositeTask:
    """Rebuild a CompositeTask from its wire dict, whose rendered prompt is
    prompt when given and the dict's own otherwise. A field that holds a
    value of another JSON type is a DataError naming it: id and prompt are
    strings, objective_count an integer, sub_ids a list of strings and gold
    a list."""
    _typed(obj, {"id": str, "objective_count": int, "prompt": str, "sub_ids": list, "gold": list})
    composite_id, objective_count, sub_ids = obj["id"], obj["objective_count"], obj["sub_ids"]
    if prompt is None:
        prompt = obj["prompt"]
    for sub_id in sub_ids:
        if not isinstance(sub_id, str):
            raise DataError(f"composite {composite_id!r}: sub_ids holds {type(sub_id).__name__}")
    gold = [_freeze_gold([entry])[0] for entry in obj["gold"]]
    if len(sub_ids) != objective_count:
        raise DataError(f"composite {composite_id!r}: sub_ids do not match objective_count")
    if len(gold) < objective_count:
        raise DataError(f"composite {composite_id!r}: gold shorter than objective_count")
    env_kind, questions, prefix = _parse_questions(prompt, objective_count)
    # Distribute gold entries back to sub-tasks. Composites built from
    # single-gold tasks map one entry per task; any extras (multi-part golds)
    # are only valid when they came from a single task.
    if len(gold) == objective_count:
        per_task = [[g] for g in gold]
    elif objective_count == 1:
        per_task = [gold]
    else:
        raise DataError(f"composite {composite_id!r}: cannot split gold across sub-tasks")
    sub_tasks = tuple(
        Task(sub_id, question, tuple(tuple(v) for v in task_gold), env_kind=env_kind)
        for sub_id, question, task_gold in zip(sub_ids, questions, per_task)
    )
    return CompositeTask(
        id=composite_id,
        sub_tasks=sub_tasks,
        rendered_prompt=prompt,
        objective_count=objective_count,
        env_kind=env_kind,
        prompt_prefix=prefix,
    )
