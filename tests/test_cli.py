"""End-to-end exercises of the command line: compose, rollout, score, export-masks."""

from __future__ import annotations

import atexit
import fnmatch
import gc
import json
import operator
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import threading
import warnings
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import memroll
import memroll.cli
import memroll.masks
from memroll import SEGMENT_CODES, RolloutConfig, ScriptedEnv, export_masks, import_masks, load_composites
from memroll.archive import ARCHIVE_VERSION, TrajectoryRecord, to_json
from memroll.cli import EXIT_DATA, EXIT_INTEGRITY, EXIT_OK, EXIT_USAGE, main, read_archive
from memroll.core import config_from_mapping
from memroll.rollout import RolloutError, dump_turns, load_turns, replay_contexts

from helpers import re_signed, scrub_times, v5_parts, version_3_form

QUERY = "Let me look this up. <IS>narrowing it down</IS><query>lookup the fact</query>"
ANSWER = "<IS>confident now</IS><answer>answer 0</answer>"


def write_dataset(path: Path, n: int) -> Path:
    lines = [
        json.dumps(
            {
                "id": f"q{i}",
                "question": f"What is fact number {i}?",
                "golden_answers": [f"answer {i}"],
            }
        )
        for i in range(n)
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def compose_file(tmp_path: Path, n_tasks: int, objectives: int, name: str = "composites.jsonl") -> Path:
    dataset = write_dataset(tmp_path / f"qa{n_tasks}.jsonl", n_tasks)
    out = tmp_path / name
    code = main(
        ["compose", "--in", str(dataset), "--n", str(objectives), "--out", str(out)]
    )
    assert code == EXIT_OK
    return out


def rollout_args(tasks: Path, script: Path, env: Path, out: Path, *extra: str) -> list[str]:
    return [
        "rollout",
        "--in", str(tasks),
        "--policy", f"scripted:{script}",
        "--env", f"scripted:{env}",
        "--out", str(out),
        "--turns", "4",
        *extra,
    ]


@pytest.fixture
def smoke(tmp_path):
    """Three 1-objective tasks, a two-turn script, and a scripted env."""
    tasks = compose_file(tmp_path, 3, 1)
    script = write_json(tmp_path / "script.json", [QUERY, ANSWER])
    env = write_json(tmp_path / "env.json", ["first fact sheet", "second fact sheet"])
    return tmp_path, tasks, script, env


def archive_dicts(path: Path) -> list[dict]:
    return [scrub_times(r.to_dict()) for r in read_archive(path)]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert main(["compose", "--in", "x", "--n", "1", "--out", "y", "--wat"]) == EXIT_USAGE

    def test_compose_zero_objectives(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "qa.jsonl", 2)
        code = main(["compose", "--in", str(dataset), "--n", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "--n" in capsys.readouterr().err

    def test_compose_missing_input(self, tmp_path):
        code = main(
            ["compose", "--in", str(tmp_path / "nope.jsonl"), "--n", "1", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_DATA

    def test_rollout_unknown_policy_spec(self, smoke):
        tmp_path, tasks, _, env = smoke
        code = main(
            ["rollout", "--in", str(tasks), "--policy", "carrier-pigeon",
             "--env", f"scripted:{env}", "--out", str(tmp_path / "a")]
        )
        assert code == EXIT_USAGE

    def test_rollout_policy_url_without_slashes(self, smoke, capsys):
        # An http(s) policy is a whole URL; http:HOST/PATH is refused up front
        # rather than failing every episode.
        tmp_path, tasks, _, env = smoke
        code = main(
            ["rollout", "--in", str(tasks), "--policy", "http:localhost:8000/v1/completions",
             "--env", f"scripted:{env}", "--out", str(tmp_path / "a")]
        )
        assert code == EXIT_USAGE
        assert "unknown policy spec 'http:localhost:8000/v1/completions'" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_rollout_missing_env_file(self, smoke, capsys):
        tmp_path, tasks, script, _ = smoke
        code = main(
            ["rollout", "--in", str(tasks), "--policy", f"scripted:{script}",
             "--env", f"corpus:{tmp_path / 'missing.jsonl'}", "--out", str(tmp_path / "a")]
        )
        assert code == EXIT_DATA
        assert "missing.jsonl" in capsys.readouterr().err

    def test_rollout_turns_not_a_number(self, smoke, capsys):
        tmp_path, tasks, script, env = smoke
        assert main(rollout_args(tasks, script, env, tmp_path / "a", "--turns", "abc")) == EXIT_USAGE
        assert "--turns must be an integer or 'auto', got 'abc'" in capsys.readouterr().err

    def test_rollout_zero_concurrency(self, smoke, capsys):
        tmp_path, tasks, script, env = smoke
        code = main(rollout_args(tasks, script, env, tmp_path / "a", "--concurrency", "0"))
        assert code == EXIT_USAGE
        assert "--concurrency must be >= 1" in capsys.readouterr().err

    def test_rollout_config_not_utf8(self, smoke, capsys):
        tmp_path, tasks, script, env = smoke
        config = tmp_path / "run.cfg"
        config.write_bytes(b"max_turns=\xff\n")
        code = main(rollout_args(tasks, script, env, tmp_path / "a", "--config", str(config)))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and "run.cfg" in err

    def test_score_missing_archive(self, tmp_path):
        code = main(["score", "--archive", str(tmp_path / "nowhere"), "--out", str(tmp_path / "r")])
        assert code == EXIT_DATA

    def test_export_masks_missing_archive(self, tmp_path):
        code = main(
            ["export-masks", "--archive", str(tmp_path / "nowhere"), "--out", str(tmp_path / "m")]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "case", ["entry_without_file", "manifest_is_a_list", "input_not_utf8", "input_is_a_directory"]
    )
    def test_bad_input_is_data_error(self, tmp_path, capsys, case):
        archive = tmp_path / "archive"
        archive.mkdir()
        score = ["score", "--archive", str(archive), "--out", str(tmp_path / "r")]
        compose = ["compose", "--n", "1", "--out", str(tmp_path / "o"), "--in"]
        if case == "entry_without_file":
            write_json(archive / "manifest.json", {"trajectories": [{"id": "q0"}]})
            argv = score
        elif case == "manifest_is_a_list":
            write_json(archive / "manifest.json", [{"id": "q0", "file": "q0.json"}])
            argv = score
        elif case == "input_not_utf8":
            bad = tmp_path / "qa.jsonl"
            bad.write_bytes(b'{"id": "q\xff", "question": "?", "golden_answers": ["a"]}\n')
            argv = [*compose, str(bad)]
        else:
            argv = [*compose, str(archive)]
        assert main(argv) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--policy", "--env"])
    @pytest.mark.parametrize(
        "body",
        [b'"x"', b"7", b"{bad", b'{"default": ["a"], "by_task": ["x"]}', b'["\xff"]'],
        ids=["string", "number", "not_json", "by_task_a_list", "not_utf8"],
    )
    def test_malformed_script_file_is_data_error(self, smoke, capsys, flag, body):
        tmp_path, tasks, script, env = smoke
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        if flag == "--policy":
            script = bad
        else:
            env = bad
        assert main(rollout_args(tasks, script, env, tmp_path / "a")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "bad.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["compose", "rollout", "export-masks", "score-plot-data", "score-out"])
    def test_unwritable_output_path_is_data_error(self, smoke, command):
        # An output path under a regular file fails in the operating system
        # (NotADirectoryError, FileExistsError): exit 2 with a data error
        # line, not a traceback, in a fresh interpreter as a user runs it.
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        under_file = tmp_path / "plain.txt"
        under_file.write_text("not a directory\n", encoding="utf-8")
        argv = {
            "compose": ["compose", "--in", str(tmp_path / "qa3.jsonl"), "--n", "1",
                        "--out", str(under_file / "x.jsonl")],
            "rollout": rollout_args(tasks, script, env, under_file / "a"),
            "export-masks": ["export-masks", "--archive", str(archive), "--out", str(under_file / "m")],
            "score-plot-data": ["score", "--archive", str(archive), "--out", str(tmp_path / "rep"),
                                "--plot-data", str(under_file / "p.csv")],
            "score-out": ["score", "--archive", str(archive), "--out", str(under_file / "rep")],
        }[command]
        src = str(Path(memroll.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from memroll.cli import main; sys.exit(main())", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_DATA, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("data error: ") and "plain.txt" in result.stderr


    def test_unwritable_output_runs_no_episode(self, smoke, monkeypatch):
        # The output directory is made before the batch runs, so a path that
        # cannot be one fails with exit 2 before any episode's work is done.
        tmp_path, tasks, script, env = smoke
        under_file = tmp_path / "plain.txt"
        under_file.write_text("not a directory\n", encoding="utf-8")

        def no_episodes(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(memroll.cli, "run_batch", no_episodes)
        assert main(rollout_args(tasks, script, env, under_file / "a")) == EXIT_DATA


class TestStartup:
    def test_cli_import_leaves_requests_unloaded(self):
        # Only the HTTP backends need requests; every command pays for
        # anything imported at module level.
        src = str(Path(memroll.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, memroll.cli; print('requests' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "False"

    LIST_MODULES = (
        "import json, sys\n"
        "import memroll\n"
        "if len(sys.argv) > 1:\n"
        "    from memroll.cli import main\n"
        "    assert main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )

    # What each command must load, so that a row of unloaded modules that
    # no longer names what the command runs cannot pass by accident.
    REQUIRED = {
        "compose": ("memroll.compose",),
        "rollout": ("memroll.rollout",),
        "score": ("memroll.metrics", "memroll.archive", "memroll.context", "statistics"),
        "export-masks": ("memroll.masks", "memroll.archive"),
        "export-masks-dense": ("memroll.masks", "numpy"),
        "export-masks-index": ("memroll.masks",),
    }

    @pytest.mark.parametrize(
        "command, unloaded",
        [
            ("import", ("numpy", "requests", "dataclasses", "inspect", "memroll.*")),
            ("compose", ("numpy", "requests", "statistics", "dataclasses", "inspect", "memroll.masks")),
            ("rollout", ("numpy", "requests", "statistics", "dataclasses", "inspect", "memroll.masks",
                         "memroll.shop")),
            ("score", ("numpy", "requests", "concurrent.futures", "dataclasses", "inspect", "string", "memroll.envs",
                       "memroll.rollout")),
            ("export-masks", ("numpy", "requests", "statistics", "concurrent.futures", "memroll.envs",
                              "memroll.rollout", "dataclasses", "inspect", "multiprocessing")),
            ("export-masks-dense", ("requests", "memroll.envs")),
            ("export-masks-index", ("numpy", "requests", "memroll.envs", "memroll.rollout", "multiprocessing")),
        ],
    )
    def test_loads_only_what_it_runs(self, smoke, command, unloaded):
        # Each command, run in a fresh interpreter, imports only the modules
        # it uses; `import memroll` alone imports none of its submodules. The
        # default export-masks --verify runs on the standard library, and so
        # does index_list; dense_bitpack is what loads numpy. memroll's value types, the mask types
        # included, are records, not dataclasses, so no command loads
        # dataclasses or, through it, inspect. score and export-masks read
        # the archive through memroll.archive, without the policies and the
        # turn loop; a scripted rollout loads no shop.
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        argv = {
            "import": [],
            "compose": ["compose", "--in", str(tmp_path / "qa3.jsonl"), "--n", "1",
                        "--out", str(tmp_path / "again.jsonl")],
            "rollout": rollout_args(tasks, script, env, tmp_path / "again"),
            "score": ["score", "--archive", str(archive), "--out", str(tmp_path / "report")],
            "export-masks": ["export-masks", "--archive", str(archive), "--out",
                             str(tmp_path / "masks"), "--verify"],
            "export-masks-dense": ["export-masks", "--archive", str(archive), "--out",
                                   str(tmp_path / "masks"), "--verify", "--format", "dense_bitpack"],
            "export-masks-index": ["export-masks", "--archive", str(archive), "--out",
                                   str(tmp_path / "masks"), "--verify", "--format", "index_list"],
        }[command]
        out = _run_python(self.LIST_MODULES, *([json.dumps(argv)] if argv else []))
        loaded = json.loads(out.splitlines()[-1])
        assert "memroll" in loaded
        found = [
            name for name in loaded for pattern in unloaded
            if fnmatch.fnmatchcase(name, pattern) or name.startswith(pattern + ".")
        ]
        assert found == []
        assert set(self.REQUIRED.get(command, ())) <= set(loaded)

    def test_corpus_rollout_leaves_hashlib_unloaded(self, smoke):
        # The corpus index file is keyed with importlib.util.source_hash:
        # importing hashlib maps OpenSSL, 3.5 MB of a rollout child's peak RSS.
        tmp_path, tasks, script, _ = smoke
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"doc_id": "d1", "title": "Facts", "body": "lookup the fact here"}) + "\n",
            encoding="utf-8",
        )
        for attempt in ("builds the index", "loads it"):
            argv = ["rollout", "--in", str(tasks), "--policy", f"scripted:{script}",
                    "--env", f"corpus:{corpus}", "--out", str(tmp_path / attempt), "--turns", "4"]
            loaded = json.loads(_run_python(self.LIST_MODULES, json.dumps(argv)).splitlines()[-1])
            assert "memroll.envs" in loaded
            assert not {"hashlib", "_hashlib"} & set(loaded)
            assert (tmp_path / "corpus.jsonl.memroll-index").is_file()

    def test_corpus_rollout_and_search_leave_numpy_unloaded(self, smoke):
        # The corpus index is built, stored, read and searched on the
        # standard library: importing numpy would cost a corpus rollout child
        # more time and memory than its warm load. Doc and the other value
        # types are records, so neither loads dataclasses or inspect, and
        # the shop lives in a module of its own that a corpus rollout skips.
        tmp_path, tasks, script, _ = smoke
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                json.dumps({"doc_id": f"d{i}", "title": "Facts", "body": f"lookup the fact {i} here"}) + "\n"
                for i in range(20)
            ),
            encoding="utf-8",
        )
        for attempt in ("builds the index", "loads it"):
            argv = ["rollout", "--in", str(tasks), "--policy", f"scripted:{script}",
                    "--env", f"corpus:{corpus}", "--out", str(tmp_path / attempt), "--turns", "4"]
            loaded = json.loads(_run_python(self.LIST_MODULES, json.dumps(argv)).splitlines()[-1])
            assert "memroll.envs" in loaded
            assert not {"numpy", "dataclasses", "inspect", "memroll.shop"} & set(loaded)
        search = (
            "import sys, memroll\n"
            "corpus = memroll.Corpus.from_jsonl(sys.argv[1])\n"
            "warm = corpus._docs is None\n"
            "hits = corpus.search('lookup the fact 7', 3)\n"
            "print(warm, hits[0][0].doc_id, len(corpus.docs),\n"
            "      *(name in sys.modules for name in ('numpy', 'dataclasses', 'inspect')))\n"
        )
        assert _run_python(search, str(corpus)).split() == ["True", "d7", "20", "False", "False", "False"]


class TestCompose:
    def test_floor_division_arity(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "qa.jsonl", 7)
        out = tmp_path / "pairs.jsonl"
        assert main(["compose", "--in", str(dataset), "--n", "2", "--seed", "7", "--out", str(out)]) == EXIT_OK
        composites = load_composites(out)
        assert len(composites) == 3
        assert all(c.objective_count == 2 for c in composites)
        assert "3 composite tasks" in capsys.readouterr().out

    def test_sixteen_objectives(self, tmp_path):
        dataset = write_dataset(tmp_path / "qa.jsonl", 32)
        out = tmp_path / "c16.jsonl"
        assert main(["compose", "--in", str(dataset), "--n", "16", "--out", str(out)]) == EXIT_OK
        composites = load_composites(out)
        assert [c.objective_count for c in composites] == [16, 16]

    def test_same_seed_same_bytes(self, tmp_path):
        dataset = write_dataset(tmp_path / "qa.jsonl", 10)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            assert main(
                ["compose", "--in", str(dataset), "--n", "2", "--seed", "3", "--out", str(out)]
            ) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_flag(self, tmp_path):
        dataset = write_dataset(tmp_path / "qa.jsonl", 2)
        out = tmp_path / "c.jsonl"
        code = main(
            ["compose", "--in", str(dataset), "--n", "1", "--preset", "prompt_style", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "<search>" in load_composites(out)[0].rendered_prompt

    def test_pool_smaller_than_n(self, tmp_path):
        dataset = write_dataset(tmp_path / "qa.jsonl", 3)
        code = main(["compose", "--in", str(dataset), "--n", "4", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE


class TestRollout:
    def test_smoke_archive(self, smoke, capsys):
        tmp_path, tasks, script, env = smoke
        out = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, out)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 3
        assert manifest["errors"] == []
        records = read_archive(out)
        assert [r.terminated for r in records] == ["answered"] * 3
        assert all(len(r.turns) == 2 for r in records)
        assert "wrote 3 trajectories" in capsys.readouterr().out

    def test_repeat_runs_identical(self, smoke):
        tmp_path, tasks, script, env = smoke
        first, second = tmp_path / "r1", tmp_path / "r2"
        assert main(rollout_args(tasks, script, env, first)) == EXIT_OK
        assert main(rollout_args(tasks, script, env, second)) == EXIT_OK
        assert archive_dicts(first) == archive_dicts(second)

    def test_concurrency_does_not_change_results(self, smoke):
        tmp_path, tasks, script, env = smoke
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(rollout_args(tasks, script, env, serial)) == EXIT_OK
        assert main(rollout_args(tasks, script, env, parallel, "--concurrency", "4")) == EXIT_OK
        assert archive_dicts(serial) == archive_dicts(parallel)

    def test_full_append_differs_only_in_snapshots(self, smoke):
        tmp_path, tasks, script, env = smoke
        cons, full = tmp_path / "cons", tmp_path / "full"
        assert main(rollout_args(tasks, script, env, cons, "--mode", "consolidate")) == EXIT_OK
        assert main(rollout_args(tasks, script, env, full, "--mode", "full-append")) == EXIT_OK
        for a, b in zip(read_archive(cons), read_archive(full)):
            assert b.config.mode == "full_append"
            assert a.terminated == b.terminated and a.final_answer == b.final_answer
            for ta, tb in zip(a.turns, b.turns):
                assert ta.generation.text == tb.generation.text
                assert ta.info == tb.info
            assert a.turns[0].context_snapshot == b.turns[0].context_snapshot
            assert a.turns[1].context_snapshot != b.turns[1].context_snapshot

    def test_auto_turn_budget(self, tmp_path):
        ones = compose_file(tmp_path, 2, 1, "ones.jsonl")
        eights = compose_file(tmp_path, 8, 8, "eights.jsonl")
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(ones.read_text() + eights.read_text(), encoding="utf-8")
        script = write_json(tmp_path / "script.json", [ANSWER])
        env = write_json(tmp_path / "env.json", ["unused"])
        out = tmp_path / "archive"
        code = main(
            ["rollout", "--in", str(mixed), "--policy", f"scripted:{script}",
             "--env", f"scripted:{env}", "--out", str(out), "--turns", "auto"]
        )
        assert code == EXIT_OK
        records = read_archive(out)
        budgets = [r.config.max_turns for r in records]
        counts = [r.task.objective_count for r in records]
        assert counts == [1, 1, 8]
        assert budgets == [6, 6, 20]

    def test_manifest_preserves_input_order(self, smoke):
        tmp_path, tasks, script, env = smoke
        out = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, out)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        listed = [e["id"] for e in manifest["trajectories"]]
        assert listed == [c.id for c in load_composites(tasks)]

    def test_no_hint_flag(self, smoke):
        tmp_path, tasks, script, env = smoke
        out = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, out, "--no-hint")) == EXIT_OK
        for record in read_archive(out):
            assert "[HINT" not in (record.turns[0].info or "")

    def test_each_flag_reaches_the_config(self, smoke):
        tmp_path, tasks, script, env = smoke
        out = tmp_path / "archive"
        flags = ["--preset", "prompt_style", "--seed", "7", "--k", "2", "--max-tokens", "50",
                 "--no-hint", "--mode", "full-append", "--turns", "3"]
        assert main(rollout_args(tasks, script, env, out, *flags)) == EXIT_OK
        for record in read_archive(out):
            assert record.config == RolloutConfig(
                max_turns=3, tag_preset="prompt_style", retrieval_k=2, mode="full_append",
                hint_enabled=False, max_tokens_per_generation=50, seed=7,
            )

    def test_config_file_with_flag_override(self, smoke):
        tmp_path, tasks, script, env = smoke
        config = tmp_path / "run.cfg"
        config.write_text("mode=consolidate\nmax_turns=4\nseed=9\n", encoding="utf-8")
        out = tmp_path / "archive"
        code = main(
            rollout_args(tasks, script, env, out, "--config", str(config), "--mode", "full-append")
        )
        assert code == EXIT_OK
        record = read_archive(out)[0]
        assert record.config.mode == "full_append"
        assert record.config.seed == 9

    def test_corpus_env_end_to_end(self, tmp_path):
        tasks = compose_file(tmp_path, 2, 1)
        script = write_json(tmp_path / "script.json", [QUERY, ANSWER])
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"doc_id": "d1", "title": "Facts", "body": "lookup the fact here"})
            + "\n"
            + json.dumps({"doc_id": "d2", "title": "Other", "body": "unrelated prose"})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "archive"
        code = main(
            ["rollout", "--in", str(tasks), "--policy", f"scripted:{script}",
             "--env", f"corpus:{corpus}", "--out", str(out), "--turns", "4", "--k", "1"]
        )
        assert code == EXIT_OK
        record = read_archive(out)[0]
        assert "Doc 1 (Title: Facts)" in record.turns[0].info
        assert "(Title: Other)" not in record.turns[0].info

    def test_k_reaches_web_search(self):
        memroll.cli._bind("envs")  # as _cmd_rollout binds them before building the env
        env = memroll.cli._make_env("search:http://x", RolloutConfig(retrieval_k=2))
        assert env.top_n == 2

    def test_all_failures_exit_data(self, smoke, capsys):
        tmp_path, tasks, _, env = smoke
        out = tmp_path / "archive"
        code = main(
            ["rollout", "--in", str(tasks), "--policy", "http://127.0.0.1:9/v1/completions",
             "--env", f"scripted:{env}", "--out", str(out), "--turns", "2"]
        )
        assert code == EXIT_DATA
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 0
        assert len(manifest["errors"]) == 3
        assert "error" in capsys.readouterr().err

    def test_failed_episode_keeps_its_partial_turns(self, smoke, monkeypatch):
        tmp_path, tasks, script, env = smoke
        assert main(rollout_args(tasks, script, env, tmp_path / "done")) == EXIT_OK
        record = read_archive(tmp_path / "done")[0]
        assert len(record.turns) == 2

        def failing(tasks, policy, env, config, concurrency):
            return [RolloutError(task.id, RuntimeError("backend down"), record.turns) for task in tasks]

        monkeypatch.setattr(memroll.cli, "run_batch", failing)
        out = tmp_path / "failed"
        assert main(rollout_args(tasks, script, env, out)) == EXIT_DATA
        errors = json.loads((out / "manifest.json").read_text())["errors"]
        assert len(errors) == 3 and "backend down" in errors[0]["error"]
        for error in errors:
            assert [turn["context_snapshot"] for turn in error["turns"][1:]] == [""]
            assert load_turns(error["turns"], record.config, record.task.rendered_prompt) == record.turns


    def test_bind_failure_fails_only_its_episode(self, smoke, monkeypatch, capsys):
        # An env whose bind raises for one task: that episode is an error in
        # the manifest, with no turns, and the others are still written.
        tmp_path, tasks, script, env = smoke
        scripted = ScriptedEnv.from_file(env)

        class FussyEnv:
            def bind(self, task):
                if task.id == "q1":
                    raise RuntimeError("nothing bound for q1")
                return scripted.bind(task)

        monkeypatch.setattr(memroll.cli, "_make_env", lambda spec, config: FussyEnv())
        out = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, out)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["id"] for entry in manifest["trajectories"]] == ["q0", "q2"]
        assert manifest["errors"] == [
            {"id": "q1", "error": "rollout for task 'q1' failed: RuntimeError: nothing bound for q1", "turns": []}
        ]
        assert [record.task.id for record in read_archive(out)] == ["q0", "q2"]
        assert "nothing bound for q1" in capsys.readouterr().err


class TestFileNameCollisions:
    """Distinct ids that map to one file name are refused before anything is written."""

    def test_rollout_refuses_colliding_ids(self, smoke, capsys):
        tmp_path, tasks, script, env = smoke
        lines = tasks.read_text(encoding="utf-8").splitlines()[:2]
        records = [dict(json.loads(line), id=task_id) for line, task_id in zip(lines, ["job/1", "job_1"])]
        tasks.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, out)) == EXIT_DATA
        err = capsys.readouterr().err
        assert "'job/1'" in err and "'job_1'" in err and "job_1.json" in err
        assert not out.exists()

    def test_export_refuses_colliding_ids(self, smoke, capsys):
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        manifest = json.loads((archive / "manifest.json").read_text())
        for entry, task_id in zip(manifest["trajectories"], ["job/1", "job_1"]):
            entry["id"] = task_id
            record = json.loads((archive / entry["file"]).read_text())
            record["task"]["id"] = task_id
            write_json(archive / entry["file"], record)
        write_json(archive / "manifest.json", manifest)
        masks = tmp_path / "masks"
        assert main(["export-masks", "--archive", str(archive), "--out", str(masks)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "'job/1'" in err and "'job_1'" in err and "job_1.mem1mask" in err
        assert not masks.exists()


    @pytest.mark.parametrize("command", ["score", "export-masks"])
    def test_refuses_a_manifest_naming_one_file_twice(self, smoke, capsys, command):
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        manifest = json.loads((archive / "manifest.json").read_text())
        first = manifest["trajectories"][0]
        twin = dict(first, id="copy", file=f"./{first['file']}")
        manifest["trajectories"].append(twin)
        write_json(archive / "manifest.json", manifest)
        out = tmp_path / "out"
        assert main([command, "--archive", str(archive), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"entries {first['id']!r} and 'copy' both name ./{first['file']}" in err
        assert not list(tmp_path.glob("out*"))


class TestScore:
    def scored(self, smoke, *extra: str):
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        prefix = tmp_path / "reports" / "run"
        code = main(["score", "--archive", str(archive), "--out", str(prefix), *extra])
        return tmp_path, archive, prefix, code

    def test_reports_written(self, smoke, capsys):
        _, _, prefix, code = self.scored(smoke)
        assert code == EXIT_OK
        report = json.loads(Path(str(prefix) + ".json").read_text())
        assert report["aggregate"]["count"] == 3
        assert len(report["per_trajectory"]) == 3
        csv_lines = Path(str(prefix) + ".csv").read_text().strip().splitlines()
        assert csv_lines[0] == (
            "trajectory_id,objective_count,em,f1,peak_tokens,dependency,"
            "wall_time_s,valid_action_ratio,terminated,reward"
        )
        assert len(csv_lines) == 4
        assert "scored 3 trajectories" in capsys.readouterr().out

    def test_corrupt_trajectory_skipped(self, smoke, capsys):
        tmp_path, archive, prefix, code = self.scored(smoke)
        assert code == EXIT_OK
        manifest = json.loads((archive / "manifest.json").read_text())
        victim = archive / manifest["trajectories"][1]["file"]
        victim.write_text("{ not json", encoding="utf-8")
        code = main(["score", "--archive", str(archive), "--out", str(prefix)])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "skipping corrupt trajectory" in err
        report = json.loads(Path(str(prefix) + ".json").read_text())
        assert report["aggregate"]["skipped"] == 1
        assert report["aggregate"]["count"] == 2

    def test_empty_archive(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        archive.mkdir()
        write_json(
            archive / "manifest.json",
            {"version": 1, "count": 0, "trajectories": [], "errors": []},
        )
        code = main(["score", "--archive", str(archive), "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "no scoreable trajectories" in captured.err
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["aggregate"] == {"count": 0}

    def test_plot_data_series(self, tmp_path):
        ones = compose_file(tmp_path, 2, 1, "ones.jsonl")
        pairs = compose_file(tmp_path, 4, 2, "pairs.jsonl")
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(ones.read_text() + pairs.read_text(), encoding="utf-8")
        script = write_json(tmp_path / "script.json", [QUERY, ANSWER])
        env = write_json(tmp_path / "env.json", ["fact sheet", "fact sheet"])
        archive = tmp_path / "archive"
        assert main(rollout_args(mixed, script, env, archive)) == EXIT_OK
        plot = tmp_path / "series.csv"
        code = main(
            ["score", "--archive", str(archive), "--out", str(tmp_path / "r"),
             "--plot-data", str(plot)]
        )
        assert code == EXIT_OK
        lines = plot.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["objective_count", "episodes"]
        assert "peak_tokens_mean" in lines[0]
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
        assert [line.split(",")[1] for line in lines[1:]] == ["2", "2"]


# Each sets one key of trajectory 0 of the smoke archive (a query turn, then
# an answer turn), or of one of its turns, to a value no rollout writes:
# case -> (turn index or None for the trajectory, key, value or a function of
# the stored value). A context_kept_* case edits the trajectory stored as
# version 3 stored it, where turn 1 stores context_kept as the length of its
# reference, the context the rule derives from turn 0, so one more is past it.
# Version 4 stores no context_kept at all, and no snapshot after turn 0.
MALFORMED = {
    "generation_text_int": (0, "generation", {"text": 7, "finish": "stop"}),
    "snapshot_int": (1, "context_snapshot", 7),
    "info_int": (0, "info", 7),
    "turns_an_object": (None, "turns", {}),
    "turns_empty": (None, "turns", []),
    "config_a_list": (None, "config", []),
    "final_answer_int": (None, "final_answer", 7),
    "wall_time_a_string": (None, "wall_time_s", "slow"),
    "terminated_bogus": (None, "terminated", "bogus"),
    "early_turn_not_a_query": (0, "generation", {"text": "<IS>no action</IS>", "finish": "eos"}),
    "last_turn_invalid_but_answered": (1, "generation", {"text": "no tags", "finish": "eos"}),
    "final_answer_not_the_last_action": (None, "final_answer", "answer 1"),
    "context_kept_on_turn_0": (0, "context_kept", 1),
    "context_kept_past_the_turn_before": (1, "context_kept", lambda kept: kept + 1),
    "context_kept_negative": (1, "context_kept", -1),
    "context_kept_true": (1, "context_kept", True),
    "context_kept_a_float": (1, "context_kept", 3.0),
    "context_kept_a_string": (1, "context_kept", "3"),
    "version_unknown": (None, "version", ARCHIVE_VERSION + 1),
    "version_a_string": (None, "version", "2"),
    "task_stores_its_prompt": (None, "task", lambda task: {**task, "prompt": "the prompt"}),
    "turn_1_stores_a_snapshot": (1, "context_snapshot", "a snapshot"),
    "version_4_context_kept_on_turn_0": (0, "context_kept", 0),
    "version_4_context_kept_on_turn_1": (1, "context_kept", 0),
    "task_without_sub_ids": (None, "task", lambda task: {k: v for k, v in task.items() if k != "sub_ids"}),
}


class TestMalformedTrajectory:
    """A trajectory file no rollout could have written is a data error: score
    skips it with a warning, export-masks exits 2, neither with a traceback,
    and both give the reason in words (a missing key as "missing key 'k'",
    not as its bare name)."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_refused_as_data(self, smoke, capsys, case):
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        victim = archive / json.loads((archive / "manifest.json").read_text())["trajectories"][0]["file"]
        data = json.loads(victim.read_text())
        turn, key, value = MALFORMED[case]
        if case.startswith("context_kept"):
            data = version_3_form(TrajectoryRecord.from_dict(data))
        target = data if turn is None else data["turns"][turn]
        target[key] = value(target[key]) if callable(value) else value
        write_json(victim, data)
        capsys.readouterr()

        prefix = tmp_path / "report"
        assert main(["score", "--archive", str(archive), "--out", str(prefix)]) == EXIT_OK
        assert re.search(r"skipping corrupt trajectory 'q0': [a-z]", capsys.readouterr().err)
        report = json.loads(Path(str(prefix) + ".json").read_text())
        assert (report["aggregate"]["count"], report["aggregate"]["skipped"]) == (2, 1)
        code = main(["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m"), "--verify"])
        assert code == EXIT_DATA
        assert re.search(r"data error: archive entry 'q0': [a-z]", capsys.readouterr().err)


# Each edits trajectory 0 of the smoke archive, stored as version 3 stored
# it, whose turns follow the context rule, so that a snapshot is one the
# policy could not have seen: case -> (turn index or None for the
# trajectory, key, function of the stored value). Version 4 stores no
# snapshot these could edit but turn 0's, which is the task's prompt.
DEPARTED = {
    "turn_0_not_the_prompt": (0, "context_snapshot", lambda snapshot: snapshot + " "),
    "turn_1_padded": (1, "context_snapshot", lambda stored: stored + " padding"),
    "turn_1_short": (1, "context_kept", lambda kept: kept - 1),
    "mode_edited": (None, "config", lambda config: {**config, "mode": "full_append"}),
}


class TestDepartedSnapshot:
    """A stored snapshot that is not the context the rule derives from the
    prompt and the turns before it is an integrity failure: score skips the
    trajectory with a warning, export-masks exits 3."""

    def refused(self, archive: Path, victim: str, tmp_path: Path, capsys) -> None:
        capsys.readouterr()
        prefix = tmp_path / "report"
        assert main(["score", "--archive", str(archive), "--out", str(prefix)]) == EXIT_OK
        err = capsys.readouterr().err
        assert f"skipping corrupt trajectory {victim!r}" in err and "its context is not the one the rule" in err
        report = json.loads(Path(str(prefix) + ".json").read_text())
        assert report["aggregate"]["skipped"] == 1
        assert victim not in [r["trajectory_id"] for r in report["per_trajectory"]]
        code = main(["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m"), "--verify"])
        assert code == EXIT_INTEGRITY
        assert f"integrity error: archive entry {victim!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(DEPARTED))
    def test_refused(self, smoke, capsys, case):
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        victim = archive / json.loads((archive / "manifest.json").read_text())["trajectories"][0]["file"]
        data = version_3_form(TrajectoryRecord.from_dict(json.loads(victim.read_text())))
        assert data["config"]["mode"] == "consolidate"
        turn, key, edit = DEPARTED[case]
        target = data if turn is None else data["turns"][turn]
        target[key] = edit(target[key])
        write_json(victim, data)
        self.refused(archive, "q0", tmp_path, capsys)

    def test_a_padded_turn_of_an_older_archive(self, tmp_path, capsys):
        # Version 1 stores every snapshot whole; turn 1 of q0+q1 padded.
        archive = tmp_path / "archive"
        shutil.copytree(TestOlderArchive.ARCHIVE, archive)
        victim = archive / "q0+q1.json"
        data = json.loads(victim.read_text())
        data["turns"][1]["context_snapshot"] += " padding" * 100
        write_json(victim, data)
        self.refused(archive, "q0+q1", tmp_path, capsys)


def json_paths(value, path=()):
    """The path to every value inside a JSON value, in document order."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield (*path, key)
        yield from json_paths(item, (*path, key))


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def one_field_edit(rng: random.Random, data) -> str:
    """Edit one random field of data, a JSON value, in place: delete a key,
    swap a value's JSON type, insert or drop a character in a string, or
    change a number. Returns what was done."""
    path = rng.choice(list(json_paths(data)))
    parent = reduce(operator.getitem, path[:-1], data)
    key, value = path[-1], parent[path[-1]]
    kinds = ["type"] + ["delete"] * isinstance(parent, dict)
    if isinstance(value, str):
        kinds += ["insert", "drop"] if value else ["insert"]
    elif json_type(value) == "number":
        kinds.append("number")
    kind = rng.choice(kinds)
    if kind == "delete":
        del parent[key]
    elif kind == "type":
        parent[key] = rng.choice([v for v in (None, True, 7, 2.5, "x", [], {}) if json_type(v) != json_type(value)])
    elif kind == "insert":
        at = rng.randint(0, len(value))
        parent[key] = value[:at] + rng.choice("x <>/\n") + value[at:]
    elif kind == "drop":
        at = rng.randrange(len(value))
        parent[key] = value[:at] + value[at + 1 :]
    else:
        parent[key] = rng.choice([value + 1, value - 1, -value, value * 1000, 0])
    return f"{kind} at {'/'.join(map(str, path))}"


def test_archive_edits_exit_cleanly(smoke, capsys):
    # One-field edits to a trajectory file: export-masks --verify refuses
    # one as bad data (2) or an integrity failure (3), or exports it (0);
    # score skips or scores the trajectory (0). Neither raises.
    tmp_path, tasks, script, env = smoke
    archive = tmp_path / "archive"
    assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
    victim = archive / json.loads((archive / "manifest.json").read_text())["trajectories"][0]["file"]
    original = victim.read_text()
    rng = random.Random(3)
    export_codes, score_codes, escaped = Counter(), Counter(), []
    for _ in range(300):
        data = json.loads(original)
        edit = one_field_edit(rng, data)
        write_json(victim, data)
        for command, codes, extra in (("export-masks", export_codes, ["--verify"]), ("score", score_codes, [])):
            try:
                codes[main([command, "--archive", str(archive), "--out", str(tmp_path / command), *extra])] += 1
            except Exception as exc:
                escaped.append(f"{command} after {edit}: {type(exc).__name__}: {exc}")
        capsys.readouterr()
    message = f"export-masks exit codes {dict(export_codes)}, score exit codes {dict(score_codes)}, escaped {escaped[:5]}"
    assert not escaped and set(export_codes) <= {EXIT_OK, EXIT_DATA, EXIT_INTEGRITY} and set(score_codes) == {EXIT_OK}, message


@pytest.mark.parametrize("version", [pytest.param(ARCHIVE_VERSION + 1, id="next"), 0, True, "2"])
def test_unknown_manifest_version_refused(smoke, capsys, version):
    tmp_path, tasks, script, env = smoke
    archive = tmp_path / "archive"
    assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
    manifest = json.loads((archive / "manifest.json").read_text())
    assert manifest["version"] == ARCHIVE_VERSION
    write_json(archive / "manifest.json", {**manifest, "version": version})
    capsys.readouterr()
    assert main(["score", "--archive", str(archive), "--out", str(tmp_path / "r")]) == EXIT_DATA
    assert main(["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m")]) == EXIT_DATA
    assert capsys.readouterr().err.count("unknown archive version") == 2


class TestOlderArchive:
    """An archive written when turns still stored index, parsed, valid and
    latency_s: a consolidate paper_body episode that answers and a
    full_append prompt_style episode that ends invalid. Both trajectory files
    come from memroll rollout as it wrote them; the manifest lists the two."""

    DATA = Path(__file__).resolve().parent / "data"
    ARCHIVE = DATA / "archive_with_derived_fields"

    @staticmethod
    def stored_form(parsed) -> dict:
        kind = type(parsed.action).__name__.lower()
        detail = {"reason": parsed.action.reason} if kind == "invalid" else {"text": parsed.action.text}
        action = {"kind": kind, **detail}
        spans = {name: [s.start, s.end, s.inner_start, s.inner_end] for name, s in parsed.spans.items()}
        return {"is_segment": parsed.is_segment, "action": action, "spans": spans}

    def test_derived_fields_match_the_stored_ones(self):
        records = read_archive(self.ARCHIVE)
        assert [(r.config.mode, r.config.tag_preset, r.terminated) for r in records] == [
            ("consolidate", "paper_body", "answered"),
            ("full_append", "prompt_style", "invalid"),
        ]
        manifest = json.loads((self.ARCHIVE / "manifest.json").read_text())
        for record, entry in zip(records, manifest["trajectories"]):
            stored = json.loads((self.ARCHIVE / entry["file"]).read_text())["turns"]
            assert len(record.turns) == len(stored)
            for turn, old in zip(record.turns, stored):
                assert turn.index == old["index"]
                assert turn.valid == old["valid"]
                assert turn.parsed.raw == old["parsed"]["raw"]
                stored_form = {k: old["parsed"][k] for k in ("is_segment", "action", "spans")}
                assert self.stored_form(turn.parsed) == stored_form
                assert turn.generation.latency_s == old["latency_s"]

    def test_score_and_verified_export(self, tmp_path):
        prefix = tmp_path / "report"
        assert main(["score", "--archive", str(self.ARCHIVE), "--out", str(prefix)]) == EXIT_OK
        expected = json.loads((self.DATA / "archive_with_derived_fields.score.json").read_text())
        assert json.loads(Path(str(prefix) + ".json").read_text()) == expected
        masks = tmp_path / "masks"
        argv = ["export-masks", "--archive", str(self.ARCHIVE), "--out", str(masks), "--verify"]
        assert main(argv) == EXIT_OK
        assert len(list(masks.glob("*.mem1mask"))) == 2


class TestWholeSnapshotArchive:
    """An archive written when every turn stored its whole context snapshot
    and files had no version key: a consolidate paper_body episode that
    answers after 3 turns and a full_append one that answers after 5, with
    non-ASCII text. Both files come from memroll rollout as it wrote them;
    the manifest lists the two, and the score report is the one it gave."""

    DATA = Path(__file__).resolve().parent / "data"
    ARCHIVE = DATA / "archive_with_whole_snapshots"

    def test_snapshots_replay(self):
        records = read_archive(self.ARCHIVE)
        assert [(r.config.mode, len(r.turns)) for r in records] == [("consolidate", 3), ("full_append", 5)]
        for record in records:
            assert [t.context_snapshot for t in record.turns] == replay_contexts(record)

    def test_score_and_verified_export(self, tmp_path):
        prefix = tmp_path / "report"
        assert main(["score", "--archive", str(self.ARCHIVE), "--out", str(prefix)]) == EXIT_OK
        expected = json.loads((self.DATA / "archive_with_whole_snapshots.score.json").read_text())
        assert json.loads(Path(str(prefix) + ".json").read_text()) == expected
        argv = ["export-masks", "--archive", str(self.ARCHIVE), "--out", str(tmp_path / "masks"), "--verify"]
        assert main(argv) == EXIT_OK
        assert len(list((tmp_path / "masks").glob("*.mem1mask"))) == 2

    def test_written_again_reads_the_same(self, tmp_path):
        records = read_archive(self.ARCHIVE)
        manifest = json.loads((self.ARCHIVE / "manifest.json").read_text())
        again = tmp_path / "again"
        again.mkdir()
        for record, entry in zip(records, manifest["trajectories"], strict=True):
            write_json(again / entry["file"], record.to_dict())
        write_json(again / "manifest.json", {**manifest, "version": ARCHIVE_VERSION})
        assert read_archive(again) == records
        for entry in manifest["trajectories"]:
            whole = json.loads((self.ARCHIVE / entry["file"]).read_text())
            assert "version" not in whole and not any("context_kept" in t for t in whole["turns"])
            written = json.loads((again / entry["file"]).read_text())
            turns = written["turns"]
            assert "prompt" in whole["task"] and "prompt" not in written["task"]
            assert not any("context_kept" in t for t in turns)
            assert [t["context_snapshot"] for t in turns[1:]] == [""] * (len(turns) - 1)
            old_size = (self.ARCHIVE / entry["file"]).stat().st_size
            assert (again / entry["file"]).stat().st_size < old_size
        masks = {}
        for archive in (self.ARCHIVE, again):
            out = tmp_path / f"masks-{archive.name}"
            assert main(["export-masks", "--archive", str(archive), "--out", str(out)]) == EXIT_OK
            masks[archive] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert masks[again] == masks[self.ARCHIVE]


class TestVersion2Archive:
    """An archive written at version 2, when each turn stored its snapshot
    against the previous one: a consolidate episode of a two-objective
    composite and a full_append one with non-ASCII text, both answered, and
    the errors entry of an episode whose search failed on its third turn.
    memroll rollout wrote them; the manifest lists the two trajectories with
    the first run's config and errors, and the score report is the one it gave."""

    DATA = Path(__file__).resolve().parent / "data"
    ARCHIVE = DATA / "archive_version_2"

    def test_snapshots_replay(self):
        records = read_archive(self.ARCHIVE)
        assert [(r.config.mode, len(r.turns)) for r in records] == [("consolidate", 3), ("full_append", 4)]
        for record in records:
            stored = json.loads((self.ARCHIVE / f"{record.task.id}.json").read_text())
            assert stored["version"] == 2 and any(t["context_snapshot"] for t in stored["turns"][1:])
            assert [t.context_snapshot for t in record.turns] == replay_contexts(record)

    def test_errors_entry_reads(self):
        manifest = json.loads((self.ARCHIVE / "manifest.json").read_text())
        assert manifest["version"] == 2
        (error,) = manifest["errors"]
        config = config_from_mapping(manifest["config"])
        prompt = error["turns"][0]["context_snapshot"]  # version 2 stores turn 0 whole
        turns = load_turns(error["turns"], config, prompt, manifest["version"])
        assert [t.parsed.action.text for t in turns] == ["lantern keeper", "lantern keeper north"]
        stored = dump_turns(turns)
        assert stored[1]["context_snapshot"] == "" and load_turns(stored, config, prompt) == turns

    def test_score_and_verified_export(self, tmp_path):
        prefix = tmp_path / "report"
        assert main(["score", "--archive", str(self.ARCHIVE), "--out", str(prefix)]) == EXIT_OK
        expected = json.loads((self.DATA / "archive_version_2.score.json").read_text())
        assert json.loads(Path(str(prefix) + ".json").read_text()) == expected
        argv = ["export-masks", "--archive", str(self.ARCHIVE), "--out", str(tmp_path / "masks"), "--verify"]
        assert main(argv) == EXIT_OK
        assert len(list((tmp_path / "masks").glob("*.mem1mask"))) == 2

    def test_written_again_reads_the_same(self, tmp_path):
        records = read_archive(self.ARCHIVE)
        manifest = json.loads((self.ARCHIVE / "manifest.json").read_text())
        again = tmp_path / "again"
        again.mkdir()
        for record, entry in zip(records, manifest["trajectories"], strict=True):
            write_json(again / entry["file"], record.to_dict())
            old_size = (self.ARCHIVE / entry["file"]).stat().st_size
            assert (again / entry["file"]).stat().st_size < old_size
        write_json(again / "manifest.json", {**manifest, "version": ARCHIVE_VERSION})
        assert read_archive(again) == records


class TestVersion3Archive:
    """An archive written at version 3, when the task stored its prompt and
    each later turn the length of its replayed context: a consolidate
    episode of a two-objective composite that answers, with a reward on its
    first turn, and a full_append one with non-ASCII text that ends at the
    turn limit. memroll rollout wrote them in two runs; the manifest lists
    the two with the first run's config, and the score report is the one it
    gave."""

    DATA = Path(__file__).resolve().parent / "data"
    ARCHIVE = DATA / "archive_version_3"

    def test_snapshots_replay(self):
        records = read_archive(self.ARCHIVE)
        assert [(r.config.mode, r.terminated, len(r.turns)) for r in records] == [
            ("consolidate", "answered", 3), ("full_append", "turn_limit", 3)
        ]
        assert records[0].turns[0].env_reward == 0.5
        for record in records:
            stored = json.loads((self.ARCHIVE / f"{record.task.id}.json").read_text())
            assert stored["version"] == 3 and stored["task"]["prompt"] == record.task.rendered_prompt
            assert all(t["context_kept"] and t["context_snapshot"] == "" for t in stored["turns"][1:])
            assert [t.context_snapshot for t in record.turns] == replay_contexts(record)

    def test_score_and_verified_export(self, tmp_path):
        prefix = tmp_path / "report"
        assert main(["score", "--archive", str(self.ARCHIVE), "--out", str(prefix)]) == EXIT_OK
        expected = json.loads((self.DATA / "archive_version_3.score.json").read_text())
        assert json.loads(Path(str(prefix) + ".json").read_text()) == expected
        argv = ["export-masks", "--archive", str(self.ARCHIVE), "--out", str(tmp_path / "masks"), "--verify"]
        assert main(argv) == EXIT_OK
        assert len(list((tmp_path / "masks").glob("*.mem1mask"))) == 2

    def test_written_again_reads_the_same(self, tmp_path):
        records = read_archive(self.ARCHIVE)
        manifest = json.loads((self.ARCHIVE / "manifest.json").read_text())
        again = tmp_path / "again"
        again.mkdir()
        for record, entry in zip(records, manifest["trajectories"], strict=True):
            (again / entry["file"]).write_text(to_json(record.to_dict()), encoding="utf-8")
            old_size = (self.ARCHIVE / entry["file"]).stat().st_size
            assert (again / entry["file"]).stat().st_size < old_size
        (again / "manifest.json").write_text(to_json({**manifest, "version": ARCHIVE_VERSION}), encoding="utf-8")
        assert read_archive(again) == records


class TestExportMasks:
    def exported(self, smoke, *extra: str):
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        masks = tmp_path / "masks"
        code = main(["export-masks", "--archive", str(archive), "--out", str(masks), *extra])
        return tmp_path, archive, masks, code

    def test_verified_export(self, smoke, capsys):
        _, _, masks, code = self.exported(smoke, "--verify")
        assert code == EXIT_OK
        manifest = json.loads((masks / "masks_manifest.json").read_text())
        assert manifest["format"] == "ranges"
        assert len(manifest["masks"]) == 3
        for entry in manifest["masks"]:
            st, _, _, header = import_masks((masks / entry["file"]).read_bytes())
            assert st.n == entry["n"] == header["n"]
        assert "exported 3 mask containers" in capsys.readouterr().out

    def test_formats_agree_on_reimport(self, smoke):
        tmp_path, archive, dense_dir, code = self.exported(smoke, "--format", "dense_bitpack")
        assert code == EXIT_OK
        sparse_dir = tmp_path / "masks_sparse"
        assert main(
            ["export-masks", "--archive", str(archive), "--out", str(sparse_dir),
             "--format", "index_list"]
        ) == EXIT_OK
        ranges_dir = tmp_path / "masks_ranges"
        assert main(
            ["export-masks", "--archive", str(archive), "--out", str(ranges_dir),
             "--format", "ranges"]
        ) == EXIT_OK
        dense_manifest = json.loads((dense_dir / "masks_manifest.json").read_text())
        for entry in dense_manifest["masks"]:
            st_d, mask_d, loss_d, _ = import_masks((dense_dir / entry["file"]).read_bytes())
            st_s, mask_s, loss_s, _ = import_masks((sparse_dir / entry["file"]).read_bytes())
            st_r, mask_r, loss_r, _ = import_masks((ranges_dir / entry["file"]).read_bytes())
            assert (st_d.tokens == st_s.tokens).all()
            assert (mask_d.words == mask_s.words).all()
            assert (loss_d.loss == loss_s.loss).all()
            assert (st_d.tokens == st_r.tokens).all()
            assert (mask_d.words == mask_r.words).all()
            assert (loss_d.loss == loss_r.loss).all()

    @pytest.mark.parametrize("fmt", ["ranges", "dense_bitpack", "index_list"])
    def test_zero_token_final_turn(self, tmp_path, fmt):
        # An empty generation on the only turn leaves that turn with no
        # tokens, so no dense row holds its base; every format still exports
        # and verifies.
        tasks = compose_file(tmp_path, 1, 1)
        script = write_json(tmp_path / "script.json", [""])
        env = write_json(tmp_path / "env.json", ["unused"])
        archive = tmp_path / "archive"
        args = rollout_args(tasks, script, env, archive)
        args[args.index("--turns") + 1] = "1"
        assert main(args) == EXIT_OK
        masks = tmp_path / "masks"
        argv = ["export-masks", "--archive", str(archive), "--out", str(masks), "--format", fmt, "--verify"]
        assert main(argv) == EXIT_OK
        (entry,) = json.loads((masks / "masks_manifest.json").read_text())["masks"]
        _, mask, _, _ = import_masks((masks / entry["file"]).read_bytes())
        turns = {"ranges": [0, entry["n"], entry["n"]]}.get(fmt, [0, entry["n"]])
        assert mask.bounds == turns

    def test_tampered_snapshot_aborts(self, smoke, capsys):
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK
        manifest = json.loads((archive / "manifest.json").read_text())
        victim = archive / manifest["trajectories"][0]["file"]
        # Version 3 stores a snapshot after turn 0 to tamper with; 4 does not.
        data = version_3_form(TrajectoryRecord.from_dict(json.loads(victim.read_text())))
        data["turns"][1]["context_snapshot"] += "x"
        victim.write_text(json.dumps(data), encoding="utf-8")
        code = main(
            ["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m2"), "--verify"]
        )
        assert code == EXIT_INTEGRITY
        assert "integrity error" in capsys.readouterr().err

    def test_unreadable_trajectory_is_data_error(self, smoke):
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK
        manifest = json.loads((archive / "manifest.json").read_text())
        (archive / manifest["trajectories"][0]["file"]).unlink()
        code = main(["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m3")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("column", ["positions", "segments", "turn_of", "generated"])
    def test_verify_checks_every_column(self, smoke, monkeypatch, capsys, column):
        # A dense container with one column altered, re-signed, must not
        # pass --verify. turn_of, generated (the loss) and positions must be
        # the ones the sequence's turns derive, so import refuses others;
        # segments are checked only by the round trip.
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK

        def tampered(stitched, *args, **kwargs):
            n = stitched.n
            if column == "generated":  # the last generated token moved past the turn's first info token
                altered = stitched.generated.astype("u1")
                info = np.flatnonzero((stitched.turn_of == 1) & ~stitched.generated)[0]
                altered[[info - 1, info]] = 0, 1
            else:
                altered = {
                    "positions": stitched.positions[::-1].astype("<i4"),
                    "segments": np.zeros(n, "u1"),
                    "turn_of": np.zeros(n, "<u2"),
                }[column]
            # positions i32, loss u8, segments u8 and turn_of u16 follow the tokens
            at = {"positions": 4 * n, "generated": 8 * n, "segments": 9 * n, "turn_of": 10 * n}[column]

            def edit(payload, n):
                payload[at : at + altered.nbytes] = altered.tobytes()

            return re_signed(export_masks(stitched, *args, **kwargs), edit)

        monkeypatch.setattr(memroll.cli, "export_masks", tampered)
        argv = ["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m4"), "--verify"]
        assert main(argv + ["--format", "dense_bitpack"]) == EXIT_INTEGRITY
        message = {
            "positions": "token 0 (turn 0): position",
            "segments": "does not round-trip",
            "turn_of": "(turn 0): row is not the previous row plus one token",
            "generated": "(turn 1): row is not the previous row plus one token",
        }[column]
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [("shifted", "visible tokens decode to a different context"), ("reversed", "unsorted")],
    )
    def test_verify_reads_the_written_ranges(self, smoke, monkeypatch, capsys, damage, message):
        # A written ranges container whose ranges are shifted (sound, but the
        # wrong tokens) or reversed (unsound), re-signed, fails --verify with
        # exit 3.
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK

        def damaged(stitched, mask2d, *args, **kwargs):
            def edit(payload, n):
                at = v5_parts(payload, n)["at"]["turns"] + 4  # each turn's counts and ranges, after their count
                words = []
                for base in mask2d.bases:
                    if damage == "shifted":
                        base = [(s - 1, e - 1) if s else (s, e) for s, e in base]
                    else:
                        base = base[::-1]
                    words += [*struct.unpack_from("<2I", payload, at + 4 * len(words)), len(base)]
                    words += [x for pair in base for x in pair]
                struct.pack_into(f"<{len(words)}I", payload, at, *words)

            return re_signed(export_masks(stitched, mask2d, *args, **kwargs), edit)

        monkeypatch.setattr(memroll.cli, "export_masks", damaged)
        code = main(
            ["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m5"), "--verify"]
        )
        assert code == EXIT_INTEGRITY
        assert message in capsys.readouterr().err

    def test_verify_compares_the_ranges_round_trip(self, smoke, monkeypatch, capsys):
        # The records check reads no segment label, so a ranges container
        # whose head is labelled info, re-signed, passes verify_masks; the
        # round trip, the imported sequence against the stitched one, does not.
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK

        def relabelled(stitched, *args, **kwargs):
            def edit(payload, n):
                payload[v5_parts(payload, n)["at"]["runs"] + 4] = SEGMENT_CODES["info"]  # the first run's code

            return re_signed(export_masks(stitched, *args, **kwargs), edit)

        monkeypatch.setattr(memroll.cli, "export_masks", relabelled)
        argv = ["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m8"), "--verify"]
        assert main(argv) == EXIT_INTEGRITY
        assert "trajectory 'q0': export does not round-trip" in capsys.readouterr().err

    def test_verify_refuses_a_swapped_table(self, smoke, monkeypatch, capsys):
        # A written ranges container with two string table entries of one
        # length swapped, re-signed, imports, and the counter still decodes
        # its ids to the records; --verify refuses the table with exit 3.
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK

        def swapped(stitched, *args, **kwargs):
            strings = list(stitched.strings)
            a, b = strings.index("You"), strings.index("and")
            strings[a], strings[b] = strings[b], strings[a]
            text = "".join(strings).encode("utf-8")  # the table's text ends the payload

            def edit(payload, n):
                payload[len(payload) - len(text) :] = text

            return re_signed(export_masks(stitched, *args, **kwargs), edit)

        monkeypatch.setattr(memroll.cli, "export_masks", swapped)
        argv = ["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m7")]
        assert main(argv) == EXIT_OK
        assert import_masks((tmp_path / "m7" / "q0.mem1mask").read_bytes())[0].strings[0] == "and"
        assert main(argv + ["--verify"]) == EXIT_INTEGRITY
        assert "token 0 (turn 0): table entry 0 is 'and', the counter decodes 'You'" in capsys.readouterr().err

    def test_more_turns_than_a_sequence_holds_is_data_error(self, smoke, monkeypatch, capsys):
        # A sequence holds the head and 65,535 turns; an episode of more is
        # refused before it is stitched. Lowering the limit to 1 makes the
        # smoke archive's two-turn episodes such episodes.
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK
        monkeypatch.setattr(memroll.masks, "_MAX_TURNS", 1)
        code = main(["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m6")])
        assert code == EXIT_DATA
        assert "2 turns, more than the 1 a sequence holds" in capsys.readouterr().err

    def test_default_export_builds_no_dense_rows(self, tmp_path, monkeypatch):
        # A full_append archive of a few thousand tokens goes through the
        # default export-masks --verify with the dense row builder disabled.
        tasks = compose_file(tmp_path, 1, 1)
        words = " ".join(f"w{i}" for i in range(60))
        turns = [f"<IS>{words} {t}</IS><query>fact {t}</query>" for t in range(9)]
        script = write_json(tmp_path / "script.json", turns + [ANSWER])
        env = write_json(tmp_path / "env.json", [f"sheet {t}: {words}" for t in range(9)])
        archive = tmp_path / "archive"
        args = rollout_args(tasks, script, env, archive, "--mode", "full_append")
        args[args.index("--turns") + 1] = "10"
        assert main(args) == EXIT_OK

        def no_dense_rows(mask):
            raise AssertionError("dense rows built")

        monkeypatch.setattr(memroll.masks, "_dense_rows", no_dense_rows)
        masks = tmp_path / "masks"
        assert main(["export-masks", "--archive", str(archive), "--out", str(masks), "--verify"]) == EXIT_OK
        (entry,) = json.loads((masks / "masks_manifest.json").read_text())["masks"]
        assert entry["n"] >= 2000
        with pytest.raises(AssertionError, match="dense rows built"):
            main(["export-masks", "--archive", str(archive), "--out", str(tmp_path / "d"),
                  "--format", "dense_bitpack"])


def _run_python(code: str, *args: str) -> str:
    src = str(Path(memroll.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestContainerIds:
    """A container's token ids index its own string table, so its bytes
    depend on its trajectory alone, never on what the process did before."""

    EXPORT_ALL = (
        "import sys; from memroll.cli import main\n"
        "for fmt in ('dense_bitpack', 'index_list', 'ranges'):\n"
        "    code = main(['export-masks', '--archive', sys.argv[1], '--out', sys.argv[2] + '/' + fmt,"
        " '--format', fmt, '--verify'])\n"
        "    assert code == 0, code\n"
    )

    def test_bytes_do_not_depend_on_what_was_exported_before(self, smoke):
        tmp_path, tasks, script, env = smoke
        both = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, both)) == EXIT_OK
        manifest = json.loads((both / "manifest.json").read_text())
        last = manifest["trajectories"][-1]
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / last["file"]).write_bytes((both / last["file"]).read_bytes())
        (alone / "manifest.json").write_text(json.dumps({**manifest, "trajectories": [last]}))
        for archive in (both, alone):
            _run_python(self.EXPORT_ALL, str(archive), str(tmp_path / f"masks-{archive.name}"))
        for fmt in ("dense_bitpack", "index_list", "ranges"):
            pair = [
                (tmp_path / f"masks-{name}" / fmt / last["file"].replace(".json", ".mem1mask")).read_bytes()
                for name in ("archive", "alone")
            ]
            assert pair[0] == pair[1], fmt

    def test_fresh_interpreter_decodes_every_snapshot(self, smoke):
        tmp_path, tasks, script, env = smoke
        archive = tmp_path / "archive"
        assert main(rollout_args(tasks, script, env, archive)) == EXIT_OK
        code = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from memroll.cli import main, read_archive\n"
            "from memroll.masks import import_masks\n"
            "archive, out = Path(sys.argv[1]), Path(sys.argv[2])\n"
            "assert main(['export-masks', '--archive', str(archive), '--out', str(out)]) == 0\n"
            "checked = 0\n"
            "entries = json.loads((archive / 'manifest.json').read_text())['trajectories']\n"
            "for entry, record in zip(entries, read_archive(archive), strict=True):\n"
            "    blob = (out / entry['file'].replace('.json', '.mem1mask')).read_bytes()\n"
            "    st, _, _, header = import_masks(blob)\n"
            "    assert header['format'] == 'ranges'\n"
            "    for t, turn in enumerate(record.turns, start=1):\n"
            "        ids = [int(st.tokens[i]) for s, e in st.bases[t] for i in range(s, e)]\n"
            "        assert ''.join(st.strings[i] for i in ids) == turn.context_snapshot, t\n"
            "        checked += 1\n"
            "print(checked)\n"
        )
        assert _run_python(code, str(archive), str(tmp_path / "masks")).split()[-1] == "6"


class TestForkedExport:
    """export-masks cuts the records into parts, one per usable CPU and per
    _PART_CHARS characters, and forks a child per part after the first. Once
    numpy is loaded, this test process usually runs numpy's BLAS threads, so
    exports run here take the loop; the forked path is run in a fresh
    interpreter that has loaded no numpy."""

    ROOT = Path(__file__).resolve().parents[1]

    # argv: archive, out, format, CPUs, part size, fault. Patches the CPU
    # count and the part size, counts forks, injects the fault through
    # _export_one, and prints the exit code ("raised" when main raises), the
    # forks made and whether a child of the command is left.
    EXPORT = (
        "import json, os, sys, traceback\n"
        "import memroll.cli as cli\n"
        "archive, out, fmt, cpus, part_chars, fault = sys.argv[1:]\n"
        "ids = [e['id'] for e in json.loads(open(archive + '/manifest.json').read())['trajectories']]\n"
        "os.sched_getaffinity = lambda pid: set(range(int(cpus)))\n"
        "cli._PART_CHARS = int(part_chars)\n"
        "forks, fork = [], os.fork\n"
        "def counted():\n"
        "    forks.append(1)\n"
        "    if fault == 'fork':\n"
        "        raise OSError(11, 'Resource temporarily unavailable')\n"
        "    return fork()\n"
        "os.fork = counted\n"
        "export_one = cli._export_one\n"
        "def faulty(record, *rest):\n"
        "    if fault == 'tamper' and record.task.id in ids[1:]:\n"
        "        raise cli.IntegrityError(f'trajectory {record.task.id!r}: tampered')\n"
        "    if fault == 'exit' and record.task.id == ids[-1]:\n"
        "        os._exit(9)\n"
        "    if fault == 'bug' and record.task.id == ids[-1]:\n"
        "        raise TypeError('a bug')\n"
        "    return export_one(record, *rest)\n"
        "cli._export_one = faulty\n"
        "try:\n"
        "    code = cli.main(['export-masks', '--archive', archive, '--out', out, '--format', fmt, '--verify'])\n"
        "except TypeError:\n"
        "    traceback.print_exc()\n"
        "    code = 'raised'\n"
        "try:\n"
        "    left = os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    left = None\n"
        "print(code, len(forks), left)\n"
    )

    @pytest.fixture
    def archive(self, smoke):
        tmp_path, tasks, script, env = smoke
        assert main(rollout_args(tasks, script, env, tmp_path / "archive")) == EXIT_OK
        return tmp_path / "archive"

    def export(self, archive: Path, out: Path, fmt: str, cpus: int, fault: str = "none", part_chars: int = 1):
        result = subprocess.run(
            [sys.executable, "-c", self.EXPORT, str(archive), str(out), fmt, str(cpus), str(part_chars), fault],
            env=dict(os.environ, PYTHONPATH=str(self.ROOT / "src")), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        code, forks, left = result.stdout.split()[-3:]
        assert left == "None"  # no child outlives the command
        return int(code) if code.isdigit() else code, int(forks), result.stderr

    @staticmethod
    def files(out: Path) -> dict[str, bytes]:
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    @pytest.mark.parametrize("fmt", ["ranges", "dense_bitpack", "index_list"])
    def test_output_does_not_depend_on_the_cpu_count(self, archive, fmt):
        one, three = archive.parent / "one", archive.parent / "three"
        assert self.export(archive, one, fmt, 1)[:2] == (EXIT_OK, 0)
        assert self.export(archive, three, fmt, 3)[:2] == (EXIT_OK, 2)
        assert len(self.files(one)) == 4  # three containers and the manifest
        assert self.files(one) == self.files(three)

    def test_an_export_smaller_than_two_parts_runs_here(self, archive):
        one, small = archive.parent / "one", archive.parent / "small"
        assert self.export(archive, one, "ranges", 1)[:2] == (EXIT_OK, 0)
        assert self.export(archive, small, "ranges", 3, part_chars=memroll.cli._PART_CHARS)[:2] == (EXIT_OK, 0)
        assert self.files(one) == self.files(small)

    def test_a_part_that_cannot_fork_runs_here(self, archive):
        one, here = archive.parent / "one", archive.parent / "here"
        assert self.export(archive, one, "ranges", 1)[:2] == (EXIT_OK, 0)
        assert self.export(archive, here, "ranges", 3, "fork")[:2] == (EXIT_OK, 2)
        assert self.files(one) == self.files(here)

    def test_the_first_failure_in_record_order_is_raised(self, archive):
        ids = [e["id"] for e in json.loads((archive / "manifest.json").read_text())["trajectories"]]
        out = archive.parent / "masks"
        code, forks, err = self.export(archive, out, "ranges", 3, "tamper")
        assert (code, forks) == (EXIT_INTEGRITY, 2)
        assert f"integrity error: trajectory {ids[1]!r}: tampered" in err
        assert repr(ids[2]) not in err
        assert not (out / "masks_manifest.json").exists()

    def test_an_unexpected_error_keeps_the_forked_frames(self, archive):
        ids = [e["id"] for e in json.loads((archive / "manifest.json").read_text())["trajectories"]]
        out = archive.parent / "masks"
        code, forks, err = self.export(archive, out, "ranges", 3, "bug")
        assert (code, forks) == ("raised", 2)
        cause, raised = err.split("The above exception was the direct cause")
        assert f"raised in the forked export of trajectories {ids[2]!r} to {ids[2]!r}:" in cause
        assert "in faulty\nTypeError: a bug" in cause  # the child's frame (a -c script shows no source)
        assert raised.rstrip().endswith("TypeError: a bug")
        assert not (out / "masks_manifest.json").exists()

    def test_a_part_that_ends_without_a_result_fails_the_command(self, archive):
        out = archive.parent / "masks"
        code, forks, err = self.export(archive, out, "ranges", 3, "exit")
        assert (code, forks) == (EXIT_DATA, 2)
        assert "exit status 9 and no result" in err
        assert not (out / "masks_manifest.json").exists()

    def test_a_traced_export_runs_in_one_process(self, archive, tmp_path):
        # perfbench/tracer.py keeps its spans in this process, so every
        # trajectory's masks.* spans must be recorded here.
        code = (
            "import os, sys\n"
            "spans, archive, out, perfbench = sys.argv[1:]\n"
            "sys.path.insert(0, perfbench)\n"
            "import tracer\n"
            "import memroll.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "cli._PART_CHARS = 1\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "code = tracer.main([spans, '--', 'export-masks', '--archive', archive, '--out', out, '--verify'])\n"
            "print(code, len(forks), len(os.listdir('/proc/self/task')))\n"
        )
        spans = tmp_path / "spans.json"
        result = subprocess.run(
            [sys.executable, "-c", code, str(spans), str(archive), str(tmp_path / "masks"), str(self.ROOT / "perfbench")],
            env=dict(os.environ, PYTHONPATH=str(self.ROOT / "src")), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-3:] == ["0", "0", "1"]  # exit 0, no fork, one thread
        names = Counter(span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"])
        assert names["masks.stitch"] == names["masks.verify_masks"] == 3

    def test_a_threaded_process_does_not_fork(self, archive, monkeypatch):
        # Forking copies only the calling thread; the loop runs instead.
        def no_fork():
            raise AssertionError("forked with a second thread alive")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(memroll.cli, "_PART_CHARS", 1)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            out = archive.parent / "masks"
            assert main(["export-masks", "--archive", str(archive), "--out", str(out), "--verify"]) == EXIT_OK
        finally:
            stop.set()
            thread.join()
        assert len(json.loads((out / "masks_manifest.json").read_text())["masks"]) == 3


class TestTracerContract:
    """perfbench/tracer.py replaces functions at the names the CLI calls them
    by; a traced pass must record every span the benchmark's per-layer
    metrics index."""

    ROOT = Path(__file__).resolve().parents[1]

    def indexed_spans(self) -> set[str]:
        source = (self.ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
        body = source[source.index("def layer_metrics"):]
        body = re.split(r"\n(?=\S|    def )", body, maxsplit=1)[0]
        return set(re.findall(r'(?:totals|calls|self_s|ends)\["([\w.]+)"\]', body))

    def test_traced_pass_records_every_indexed_span(self, tmp_path):
        indexed = self.indexed_spans()
        assert {
            "compose.compose", "envs.corpus_build", "envs.search", "rollout.episode",
            "rollout.run_batch", "cli.archive_entry", "metrics.peak_tokens",
            "metrics.dependency", "masks.stitch", "masks.build_masks", "masks.verify_masks",
            "masks.export_masks", "masks.import_masks",
        } <= indexed
        dataset = write_dataset(tmp_path / "qa.jsonl", 2)
        docs = [{"doc_id": f"d{i}", "title": f"fact {i}", "body": f"answer {i} is fact number {i}"}
                for i in range(5)]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        script = write_json(tmp_path / "script.json", [QUERY, ANSWER])
        tasks, archive = tmp_path / "tasks.jsonl", tmp_path / "archive"
        commands = {
            "compose": ["compose", "--in", str(dataset), "--n", "1", "--out", str(tasks)],
            "rollout": ["rollout", "--in", str(tasks), "--policy", f"scripted:{script}",
                        "--env", f"corpus:{corpus}", "--out", str(archive), "--turns", "4"],
            "score": ["score", "--archive", str(archive), "--out", str(tmp_path / "report")],
            "export": ["export-masks", "--archive", str(archive), "--out", str(tmp_path / "masks"),
                       "--verify"],
        }
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        recorded = set()
        for step, argv in commands.items():
            spans = tmp_path / f"spans-{step}.json"
            subprocess.run(
                [sys.executable, str(self.ROOT / "perfbench" / "tracer.py"), str(spans), "--", *argv],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            recorded |= {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
        assert indexed - recorded == set()


class TestExitFreeze:
    """main registers gc.freeze to run as the interpreter exits, so its final
    collections scan nothing; no output may depend on that teardown."""

    ROOT = Path(__file__).resolve().parents[1]

    # A fresh child that counts gc.freeze calls and runs each argv through
    # main; the handler it registers before main runs after main's (atexit
    # runs last-in, first-out).
    TWICE = (
        "import atexit, gc, json, sys\n"
        "freezes, freeze = [], gc.freeze\n"
        "gc.freeze = lambda: (freezes.append(1), freeze())\n"
        "atexit.register(lambda: print('at exit', len(freezes), gc.get_freeze_count() > 0))\n"
        "from memroll.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
        "    print('while running', len(freezes), gc.get_freeze_count())\n"
    )
    CHILD = "import sys; from memroll.cli import main; sys.exit(main())"

    @staticmethod
    def in_process(argv: list[str]) -> None:
        assert main(argv) == EXIT_OK

    def pipeline(self, out: Path, run) -> dict:
        """compose -> rollout -> score -> export-masks --verify into out, each
        command through run(argv); returns the paths written."""
        out.mkdir()
        dataset = write_dataset(out / "qa.jsonl", 4)
        docs = [{"doc_id": f"d{i}", "title": f"fact {i}", "body": f"answer {i} is fact number {i}"}
                for i in range(5)]
        corpus = out / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        script = write_json(out / "script.json", [QUERY, ANSWER])
        paths = {"tasks": out / "tasks.jsonl", "archive": out / "archive", "report": out / "report",
                 "masks": out / "masks"}
        for argv in (
            ["compose", "--in", str(dataset), "--n", "2", "--seed", "3", "--out", str(paths["tasks"])],
            ["rollout", "--in", str(paths["tasks"]), "--policy", f"scripted:{script}",
             "--env", f"corpus:{corpus}", "--out", str(paths["archive"]), "--turns", "4", "--k", "1"],
            ["score", "--archive", str(paths["archive"]), "--out", str(paths["report"])],
            ["export-masks", "--archive", str(paths["archive"]), "--out", str(paths["masks"]), "--verify"],
        ):
            run(argv)
        return paths

    def test_main_leaves_the_callers_collector_alone(self, smoke):
        tmp_path, tasks, script, env = smoke
        assert main(rollout_args(tasks, script, env, tmp_path / "archive")) == EXIT_OK
        assert gc.get_freeze_count() == 0

    def test_a_child_freezes_its_heap_once_and_only_at_exit(self, smoke):
        tmp_path, tasks, script, env = smoke
        runs = [rollout_args(tasks, script, env, tmp_path / "archive"),
                ["score", "--archive", str(tmp_path / "archive"), "--out", str(tmp_path / "r")]]
        lines = [line for line in _run_python(self.TWICE, json.dumps(runs)).splitlines()
                 if line.startswith(("while", "at exit"))]
        assert lines == ["while running 0 0", "while running 0 0", "at exit 1 True"]

    def test_fresh_children_write_what_an_in_process_run_writes(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))

        def child(argv):
            subprocess.run([sys.executable, "-c", self.CHILD, *argv], env=env, cwd=tmp_path,
                           capture_output=True, text=True, check=True, timeout=120)

        ours, theirs = self.pipeline(tmp_path / "here", self.in_process), self.pipeline(tmp_path / "child", child)
        assert ours["tasks"].read_bytes() == theirs["tasks"].read_bytes()
        assert archive_dicts(ours["archive"]) == archive_dicts(theirs["archive"])
        reports = [scrub_times(json.loads(p["report"].with_suffix(".json").read_text()))
                   for p in (ours, theirs)]
        assert reports[0] == reports[1] and reports[0]["aggregate"]["count"] == 2
        names = sorted(p.name for p in ours["masks"].iterdir())
        assert "masks_manifest.json" in names and len(names) == 3
        assert names == sorted(p.name for p in theirs["masks"].iterdir())
        for name in names:
            assert (ours["masks"] / name).read_bytes() == (theirs["masks"] / name).read_bytes()

    def test_no_command_leaves_a_file_for_the_collector_to_close(self, tmp_path):
        # With the shutdown collection skipped, a buffered file that only a
        # reference cycle holds would never be flushed; every command closes
        # what it opens before it returns.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            here = self.in_process
            paths = self.pipeline(tmp_path / "run", here)
            script = write_json(tmp_path / "env.json", ["first fact sheet", "second fact sheet"])
            policy = write_json(tmp_path / "script.json", [QUERY, ANSWER])
            corpus = tmp_path / "run" / "corpus.jsonl"
            for name, env in (("scripted", f"scripted:{script}"), ("corpus", f"corpus:{corpus}")):
                here(["rollout", "--in", str(paths["tasks"]), "--policy", f"scripted:{policy}", "--env", env,
                      "--out", str(tmp_path / f"archive-{name}"), "--turns", "4", "--concurrency", "4"])
            here(["score", "--archive", str(paths["archive"]), "--out", str(tmp_path / "r"),
                  "--plot-data", str(tmp_path / "plot.csv")])
            for fmt in ("ranges", "dense_bitpack", "index_list"):
                here(["export-masks", "--archive", str(paths["archive"]), "--out", str(tmp_path / fmt),
                      "--format", fmt, "--verify"])
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
