"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the repository's default test collection; name
it on the command line to run it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.QA_SHAPES))
def test_qa_inputs_are_a_function_of_the_seed(tmp_path, name):
    _, first = workloads.generate_qa(name, 3, tmp_path / "a")
    _, again = workloads.generate_qa(name, 3, tmp_path / "b")
    _, other = workloads.generate_qa(name, 4, tmp_path / "c")
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert _read_all(tmp_path / "a") != _read_all(tmp_path / "c")
    assert first == again
    # Work per run does not depend on the seed.
    assert (first.episodes, first.turns) == (other.episodes, other.turns)


def test_shop_inputs_are_a_function_of_the_seed(tmp_path):
    _, first = workloads.generate_shop(3, tmp_path / "a")
    workloads.generate_shop(3, tmp_path / "b")
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert first.steps > first.episodes


def test_composite_groups_match_memroll_compose(tmp_path):
    from memroll.compose import compose, load_dataset

    inputs, expected = workloads.generate_qa("search_qa", 5, tmp_path)
    composites = compose(load_dataset(inputs.tasks), inputs.objectives, seed=inputs.compose_seed)
    assert [c.id for c in composites] == expected.composite_ids


def test_self_time_subtracts_children_and_counted_calls():
    spans = [
        ["outer", 0.0, 10.0, -1, 1.5],
        ["inner", 1.0, 4.0, 0, 0.0],
        ["inner", 5.0, 6.0, 0, 0.5],
        ["leaf", 2.0, 3.0, 1, 0.0],
    ]
    kids = tracer.children(spans)
    assert tracer.self_seconds(spans, kids, 0) == pytest.approx(10.0 - 3.0 - 1.0 - 1.5)
    assert tracer.self_seconds(spans, kids, 1) == pytest.approx(3.0 - 1.0)
    assert tracer.self_seconds(spans, kids, 2) == pytest.approx(1.0 - 0.5)


def test_tracer_records_nesting_and_generator_steps():
    t = tracer.Tracer()
    leaf = t.counted("count", lambda: None)
    inner = t.span("inner", lambda: leaf())
    outer = t.span("outer", lambda: [inner() for _ in range(2)])
    steps = t.span_steps("step", lambda: iter("ab"))
    outer()
    assert list(steps()) == ["a", "b"]
    names = [(s[0], s[3]) for s in t.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0), ("step", -1), ("step", -1), ("step", -1)]
    assert t.counters["count"][0] == 2


def test_normalized_scales_times_and_rates_but_not_sizes():
    units = {"t": "s", "l": "us", "r": "turns/s", "m": "MB", "n": "count"}
    values = {"t": 2.0, "l": 4.0, "r": 10.0, "m": 5.0, "n": 7}
    assert run.normalized(values, units, 0.5) == {"t": 1.0, "l": 2.0, "r": 20.0, "m": 5.0, "n": 7}


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_a_source_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "search_qa", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
    assert not (tmp_path / ".perfbench-work").exists()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: ShopEnv.bind reads task.question, which CompositeTask lacks, "
    "so `memroll rollout --env shop:FILE` dies with an AttributeError traceback "
    "outside the 0/1/2/3 exit-code contract. When this passes, move shop_sim onto "
    "the CLI pipeline as its own benchmark change.",
)
def test_shop_episodes_run_through_memroll_rollout(tmp_path):
    inputs, expected = workloads.generate_shop(1, tmp_path)
    episode = json.loads(inputs.episodes.read_text(encoding="utf-8").splitlines()[0])
    tasks = tmp_path / "shop_tasks.jsonl"
    tasks.write_text(
        json.dumps({"id": episode["id"], "question": episode["goal"],
                    "golden_answers": ["buy"], "env_kind": "shop"}) + "\n",
        encoding="utf-8",
    )
    policy = tmp_path / "shop_policy.json"
    policy.write_text(json.dumps([f"<query>{a}</query>" for a in episode["actions"]]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    memroll = [sys.executable, *run.MEMROLL]
    composed = tmp_path / "composites.jsonl"
    subprocess.run(
        [*memroll, "compose", "--in", str(tasks), "--n", "1", "--out", str(composed)],
        env=env, check=True, capture_output=True,
    )
    proc = subprocess.run(
        [*memroll, "rollout", "--in", str(composed), "--policy", f"scripted:{policy}",
         "--env", f"shop:{inputs.catalog}", "--out", str(tmp_path / "archive"), "--turns", "10"],
        env=env, capture_output=True, text=True,
    )
    assert "Traceback" not in proc.stderr, proc.stderr[-400:]
    assert proc.returncode == 0
    manifest = json.loads((tmp_path / "archive" / "manifest.json").read_text(encoding="utf-8"))
    trajectory = json.loads((tmp_path / "archive" / manifest["trajectories"][0]["file"]).read_text())
    assert trajectory["turns"][-1]["env_reward"] == expected.rewards[episode["id"]]
