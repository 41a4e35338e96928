from __future__ import annotations

import json
import random

import pytest

from memroll import (
    DataError,
    PAPER_BODY,
    PROMPT_STYLE,
    Task,
    TrajectoryRecord,
    ValidationError,
    compose,
    composite_from_dict,
    composite_from_tasks,
    gold_of,
    load_composites,
    load_dataset,
    write_composites,
)
from memroll.compose import (
    MULTI_QA_TEMPLATE,
    SHOP_TEMPLATE,
    SINGLE_QA_TEMPLATE,
    bind_template,
    prompt_prefix,
    render_questions,
)

from helpers import scripted_episode


def qa_task(i: int, variants=None) -> Task:
    return Task(f"q{i}", f"What is fact number {i}?", variants or [f"answer {i}"])


class TestLoadDataset:
    def test_string_promotion(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id": "q1", "question": "Capital of France?", "golden_answers": ["Paris"]}\n')
        tasks = load_dataset(path)
        assert tasks[0].gold_answers == (("Paris",),)

    def test_flat_strings_are_variants_of_one_answer(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id": "q1", "question": "How many?", "golden_answers": ["four", "4"]}\n')
        assert load_dataset(path)[0].gold_answers == (("four", "4"),)

    def test_list_of_lists(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id": "q1", "question": "Q?", "golden_answers": [["a"], ["b", "c"]]}\n')
        assert load_dataset(path)[0].gold_answers == (("a",), ("b", "c"))

    def test_malformed_line_named(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            '{"id": "q1", "question": "A?", "golden_answers": ["a"]}\n'
            '{"id": "q2", "question": "B?", "golden_answers": ["b"]}\n'
            '{"id": "q3", "question": "C?"}\n'
        )
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path)

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        row = '{"id": "q1", "question": "A?", "golden_answers": ["a"]}'
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(path)

    def test_question_whitespace_collapsed(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id": "q1", "question": "Line one\\n  line two?", "golden_answers": ["a"]}\n')
        assert load_dataset(path)[0].question == "Line one line two?"

    def test_env_kind_default_and_override(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            '{"id": "q1", "question": "A?", "golden_answers": ["a"]}\n'
            '{"id": "q2", "question": "B?", "golden_answers": ["b"], "env_kind": "shop"}\n'
        )
        tasks = load_dataset(path)
        assert tasks[0].env_kind == "retrieval_qa"
        assert tasks[1].env_kind == "shop"


class TestTemplates:
    def test_multi_template_header(self):
        bound = bind_template("multi", PAPER_BODY)
        assert bound.endswith("Answer the following questions:[QUESTIONS]")
        assert "<IS>" in bound and "</query>" in bound

    def test_single_template_header(self):
        bound = bind_template("single", PAPER_BODY)
        assert bound.endswith("Question: [QUESTION]")

    def test_shop_template_header(self):
        bound = bind_template("shop", PAPER_BODY)
        assert bound.endswith("Product Description: [PRODUCT DESCRIPTION]")
        assert "click[buy now]" in bound

    def test_prompt_style_binding(self):
        bound = bind_template("multi", PROMPT_STYLE)
        assert "<think>" in bound and "<information>" in bound
        assert "<IS>" not in bound

    def test_templates_have_exactly_one_placeholder(self):
        assert MULTI_QA_TEMPLATE.count("[QUESTIONS]") == 1
        assert SINGLE_QA_TEMPLATE.count("[QUESTION]") == 1
        assert SHOP_TEMPLATE.count("[PRODUCT DESCRIPTION]") == 1

    def test_prompt_prefix_strips_placeholder(self):
        prefix = prompt_prefix(2, "retrieval_qa", PAPER_BODY)
        assert prefix.endswith("Answer the following questions:")

    def test_render_questions_single_is_bare(self):
        assert render_questions(["Who?"]) == "Who?"

    def test_render_questions_multi_numbered(self):
        assert render_questions(["A?", "B?"]) == "\n1. A?\n2. B?"


class TestCompositeFromTasks:
    def test_single_objective(self):
        composite = composite_from_tasks([qa_task(1)])
        assert composite.objective_count == 1
        assert composite.rendered_prompt.endswith("Question: What is fact number 1?")
        assert composite.question_block == "What is fact number 1?"

    def test_multi_objective(self):
        composite = composite_from_tasks([qa_task(1), qa_task(2)])
        assert composite.id == "q1+q2"
        assert composite.rendered_prompt.endswith(
            "Answer the following questions:\n1. What is fact number 1?\n2. What is fact number 2?"
        )

    def test_every_question_exactly_once(self):
        composite = composite_from_tasks([qa_task(i) for i in range(1, 5)])
        for task in composite.sub_tasks:
            assert composite.rendered_prompt.count(task.question) == 1

    def test_duplicate_question_rejected(self):
        tasks = [Task("a", "Same question?", ["x"]), Task("b", "Same question?", ["y"])]
        with pytest.raises(ValidationError):
            composite_from_tasks(tasks)

    def test_mixed_env_kinds_rejected(self):
        tasks = [qa_task(1), Task("s", "buy a mouse", ["any"], env_kind="shop")]
        with pytest.raises(ValidationError):
            composite_from_tasks(tasks)

    def test_shop_composes_alone(self):
        shop = Task("s", "find a red mouse", ["any"], env_kind="shop")
        composite = composite_from_tasks([shop])
        assert composite.env_kind == "shop"
        assert composite.rendered_prompt.endswith("Product Description: find a red mouse")
        with pytest.raises(ValidationError):
            composite_from_tasks([shop, Task("s2", "find a lamp", ["any"], env_kind="shop")])

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            composite_from_tasks([])


class TestCompose:
    def test_four_tasks_pair_up(self):
        composites = compose([qa_task(i) for i in range(4)], n=2, seed=7)
        assert len(composites) == 2
        for composite in composites:
            assert composite.objective_count == 2
            for task in composite.sub_tasks:
                assert task.question in composite.rendered_prompt

    def test_remainder_dropped(self):
        composites = compose([qa_task(i) for i in range(5)], n=2, seed=7)
        assert len(composites) == 2
        used = {t.id for c in composites for t in c.sub_tasks}
        assert len(used) == 4

    def test_seeded_determinism(self):
        tasks = [qa_task(i) for i in range(10)]
        a = compose(tasks, n=2, seed=42)
        b = compose(tasks, n=2, seed=42)
        assert [c.id for c in a] == [c.id for c in b]

    def test_partition_no_task_reused(self):
        tasks = [qa_task(i) for i in range(12)]
        composites = compose(tasks, n=3, seed=1)
        ids = [t.id for c in composites for t in c.sub_tasks]
        assert len(ids) == len(set(ids)) == 12

    def test_n_below_one_rejected(self):
        with pytest.raises(ValidationError):
            compose([qa_task(1)], n=0)

    def test_n_above_pool_rejected(self):
        with pytest.raises(ValidationError):
            compose([qa_task(1)], n=2)

    def test_sixteen_objective(self):
        composites = compose([qa_task(i) for i in range(16)], n=16, seed=3)
        assert len(composites) == 1
        assert composites[0].objective_count == 16


class TestGoldOf:
    def test_concatenation(self):
        composite = composite_from_tasks([Task("a", "A?", ["Paris"]), Task("b", "B?", ["1969"])])
        assert gold_of(composite) == [["Paris"], ["1969"]]

    def test_single(self):
        composite = composite_from_tasks([Task("a", "A?", ["four", "4"])])
        assert gold_of(composite) == [["four", "4"]]

    def test_sixteen_objective_arity(self):
        composite = composite_from_tasks([qa_task(i) for i in range(16)])
        assert len(gold_of(composite)) == 16


class TestWireFormat:
    @pytest.mark.parametrize("preset", [PAPER_BODY, PROMPT_STYLE])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, tmp_path, preset, n):
        tasks = [qa_task(i, variants=["x", f"alias {i}"]) for i in range(n)]
        original = composite_from_tasks(tasks, preset)
        path = tmp_path / "composites.jsonl"
        assert write_composites(path, [original]) == 1
        loaded = load_composites(path)
        assert loaded == [original]

    def test_round_trip_shop(self, tmp_path):
        original = composite_from_tasks([Task("s", "find a red mouse", ["any"], env_kind="shop")])
        path = tmp_path / "composites.jsonl"
        write_composites(path, [original])
        assert load_composites(path) == [original]

    def test_wire_dict_shape(self):
        composite = composite_from_tasks([qa_task(1), qa_task(2)])
        data = composite.to_dict()
        assert set(data) == {"id", "objective_count", "prompt", "sub_ids", "gold"}
        assert data["sub_ids"] == ["q1", "q2"]
        assert data["gold"] == [["answer 1"], ["answer 2"]]

    def test_multi_part_gold_on_single_task(self, tmp_path):
        # One task whose answer has two scored parts survives the wire format.
        original = composite_from_tasks([Task("a", "Two parts?", [["x"], ["y"]])])
        path = tmp_path / "composites.jsonl"
        write_composites(path, [original])
        assert load_composites(path) == [original]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "composites.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            load_composites(path)

    def test_duplicate_id_rejected(self, tmp_path):
        composite = composite_from_tasks([qa_task(1)])
        path = tmp_path / "composites.jsonl"
        write_composites(path, [composite, composite])
        with pytest.raises(DataError, match="duplicate"):
            load_composites(path)

    def test_unknown_prompt_rejected(self):
        with pytest.raises(DataError):
            composite_from_dict(
                {"id": "x", "objective_count": 1, "prompt": "freeform text",
                 "sub_ids": ["a"], "gold": [["v"]]}
            )

    def test_gold_shorter_than_objectives_rejected(self):
        composite = composite_from_tasks([qa_task(1), qa_task(2)])
        data = composite.to_dict()
        data["gold"] = [["only one"]]
        with pytest.raises(DataError):
            composite_from_dict(data)

    def test_gold_surplus_on_multi_rejected(self):
        composite = composite_from_tasks([qa_task(1), qa_task(2)])
        data = composite.to_dict()
        data["gold"] = [["a"], ["b"], ["c"]]
        with pytest.raises(DataError):
            composite_from_dict(data)

    def test_sub_id_count_mismatch_rejected(self):
        composite = composite_from_tasks([qa_task(1), qa_task(2)])
        data = composite.to_dict()
        data["sub_ids"] = ["q1"]
        with pytest.raises(DataError):
            composite_from_dict(data)

    def test_archived_form_leaves_out_the_prompt(self):
        composite = composite_from_tasks([qa_task(1), qa_task(2)])
        data = composite.to_dict(prompt=False)
        assert set(data) == {"id", "objective_count", "sub_ids", "gold"}
        assert composite_from_dict(data, composite.rendered_prompt) == composite


# Each sets one field of a two-objective composite's wire record to a value
# of another JSON type: case -> (field, value).
WRONG_TYPES = {
    "objective_count_a_float": ("objective_count", 2.9),
    "objective_count_a_string": ("objective_count", "2"),
    "objective_count_true": ("objective_count", True),
    "id_a_number": ("id", 7),
    "sub_ids_numbers": ("sub_ids", [1, 2]),
}


class TestWireTypes:
    """The composite reader refuses a field of another JSON type, naming it,
    where it used to coerce: in composites.jsonl and in an archived task."""

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_composites_file(self, tmp_path, case):
        field, value = WRONG_TYPES[case]
        data = {**composite_from_tasks([qa_task(1), qa_task(2)]).to_dict(), field: value}
        path = tmp_path / "composites.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path} line 1: .*{field} holds"):
            load_composites(path)

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_archived_task(self, case):
        field, value = WRONG_TYPES[case]
        data = scripted_episode(random.Random(2), objective_count=2).to_dict()
        data["task"][field] = value
        with pytest.raises(DataError, match=f"{field} holds"):
            TrajectoryRecord.from_dict(json.loads(json.dumps(data)))
