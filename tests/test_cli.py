"""End-to-end exercises of the command line: compose, rollout, score, export-masks."""

from __future__ import annotations

import dataclasses
import fnmatch
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memroll
import memroll.cli
from memroll import Mask2D, RolloutConfig, export_masks, import_masks, load_composites
from memroll.cli import EXIT_DATA, EXIT_INTEGRITY, EXIT_OK, EXIT_USAGE, main, read_archive

from helpers import scrub_times

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

    @pytest.mark.parametrize(
        "command, unloaded",
        [
            ("import", ("numpy", "requests", "memroll.*")),
            ("compose", ("numpy", "requests", "memroll.masks")),
            ("rollout", ("numpy", "requests", "memroll.masks")),
            ("score", ("requests", "memroll.envs")),
            ("export-masks", ("requests", "memroll.envs")),
        ],
    )
    def test_loads_only_what_it_runs(self, smoke, command, unloaded):
        # Each command, run in a fresh interpreter, imports only the modules
        # it uses; `import memroll` alone imports none of its submodules.
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
        }[command]
        out = _run_python(self.LIST_MODULES, *([json.dumps(argv)] if argv else []))
        loaded = json.loads(out.splitlines()[-1])
        assert "memroll" in loaded
        found = [
            name for name in loaded for pattern in unloaded
            if fnmatch.fnmatchcase(name, pattern) or name.startswith(pattern + ".")
        ]
        assert found == []


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

    def test_tampered_snapshot_aborts(self, smoke, capsys):
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK
        manifest = json.loads((archive / "manifest.json").read_text())
        victim = archive / manifest["trajectories"][0]["file"]
        data = json.loads(victim.read_text())
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

    @pytest.mark.parametrize("column", ["positions", "segments", "turn_of"])
    def test_verify_checks_every_column(self, smoke, monkeypatch, capsys, column):
        # A container that round-trips tokens, rows and loss but alters one
        # other column must not pass --verify.
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK

        def tampered(stitched, *args, **kwargs):
            altered = {
                "positions": stitched.positions[::-1].copy(),
                "segments": np.zeros_like(stitched.segments),
                "turn_of": np.zeros_like(stitched.turn_of),
            }[column]
            return export_masks(dataclasses.replace(stitched, **{column: altered}), *args, **kwargs)

        monkeypatch.setattr(memroll.cli, "export_masks", tampered)
        code = main(
            ["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m4"), "--verify"]
        )
        assert code == EXIT_INTEGRITY
        assert "does not round-trip" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [("shifted", "visible tokens decode to a different context"), ("reversed", "unsorted")],
    )
    def test_verify_reads_the_written_ranges(self, smoke, monkeypatch, capsys, damage, message):
        # A ranges container whose ranges are shifted (sound, but the wrong
        # tokens) or reversed (unsound) fails --verify with exit 3.
        tmp_path, archive, _, code = self.exported(smoke)
        assert code == EXIT_OK

        def damaged(stitched, mask2d, *args, **kwargs):
            if damage == "shifted":
                bases = tuple(
                    tuple((s - 1, e - 1) if s else (s, e) for s, e in base) for base in mask2d.bases
                )
            else:
                bases = tuple(base[::-1] for base in mask2d.bases)
            mask = Mask2D(mask2d.n, bases=bases, bounds=mask2d.bounds)
            return export_masks(stitched, mask, *args, **kwargs)

        monkeypatch.setattr(memroll.cli, "export_masks", damaged)
        code = main(
            ["export-masks", "--archive", str(archive), "--out", str(tmp_path / "m5"), "--verify"]
        )
        assert code == EXIT_INTEGRITY
        assert message in capsys.readouterr().err

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
            "from memroll.cli import main\n"
            "from memroll.masks import import_masks\n"
            "archive, out = Path(sys.argv[1]), Path(sys.argv[2])\n"
            "assert main(['export-masks', '--archive', str(archive), '--out', str(out)]) == 0\n"
            "checked = 0\n"
            "for entry in json.loads((archive / 'manifest.json').read_text())['trajectories']:\n"
            "    record = json.loads((archive / entry['file']).read_text())\n"
            "    blob = (out / entry['file'].replace('.json', '.mem1mask')).read_bytes()\n"
            "    st, _, _, header = import_masks(blob)\n"
            "    assert header['format'] == 'ranges'\n"
            "    for t, turn in enumerate(record['turns'], start=1):\n"
            "        ids = [int(st.tokens[i]) for s, e in st.bases[t] for i in range(s, e)]\n"
            "        assert ''.join(st.strings[i] for i in ids) == turn['context_snapshot'], t\n"
            "        checked += 1\n"
            "print(checked)\n"
        )
        assert _run_python(code, str(archive), str(tmp_path / "masks")).split()[-1] == "6"


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
