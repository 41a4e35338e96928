"""Benchmark of the memroll batch pipeline: compose -> rollout -> score ->
export-masks --verify, plus the web-shop simulator.

    python3 perfbench/run.py --workload search_qa --seed 1 --seconds 45 --trace 0

Run it from the root of a memroll source tree; the program is imported from
./src. Inputs are generated from --seed into a scratch directory inside the
tree (removed on exit). One driver process with no threads starts every
memroll command as a fresh child process, one at a time, with
--concurrency 1, and reads each child's peak RSS with os.wait4. Repeats of
the pipeline run until --seconds have passed (at least three) and the medians
are reported, scaled to a fixed host speed measured with reference.py (see
REFERENCE_S below).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
pipelines with traced ones (commands run under tracer.py) and reports the
per-layer metrics plus the tracing overhead, the ratio of traced to untraced
pipeline time.

Every run checks the outputs: each QA episode ends answered with EM and F1
equal to the planted answers, each key query retrieved its gold document,
`export-masks --verify` passes, every container re-imports with the expected
token and loss counts, and the score report, timings dropped, has the same
digest on every repeat. Shop episodes must earn the generator's expected
reward. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
# On a 2-CPU virtual machine that shares its cores with other tenants, speed
# drifts by a third and more over minutes, in user time as much as in wall
# time, which moves a run's median far more than pass-to-pass noise does. So
# every run also times reference.py (fixed work that never imports memroll)
# twice per repeat, and the result line reports times and rates at the speed
# where reference.py takes REFERENCE_S: measured * REFERENCE_S / median of
# the reference times. The raw values are printed alongside.
REFERENCE_S = 0.6
MIN_REPEATS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60  # a normal command takes seconds; a run must end within 180 s
MEMROLL = ["-c", "import sys; from memroll.cli import main; sys.exit(main())"]

# name -> unit. END_TO_END and PER_LAYER are what the last output line
# carries for the QA workloads (BENCHMARK.json lists the same names).
END_TO_END = {
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "setup_s": "s",
}
# Throughput of single commands. Every run prints them, but one command's
# time swings by a fifth from pass to pass on a shared machine, too much to gate
# a change on, so the last line carries them only with --trace 1, as the
# per-layer cli.* numbers (taken from the untraced passes of that run).
STAGE_RATES = {
    "rollout_turns_per_s": "turns/s",
    "score_trajectories_per_s": "trajectories/s",
    "export_tokens_per_s": "tokens/s",
}
PER_LAYER = {
    "cli.rollout_turns_per_s": "turns/s",
    "cli.score_trajectories_per_s": "trajectories/s",
    "cli.export_tokens_per_s": "tokens/s",
    "compose.compose_ms": "ms",
    "envs.corpus_build_ms": "ms",
    "envs.search_ms.p50": "ms",
    "envs.search_ms.p90": "ms",
    "envs.search_calls": "count",
    "context.render_context_us.p50": "us",
    "context.advance_us.p50": "us",
    "context.rendered_chars_per_turn": "chars",
    "tagparse.parse_turn_us.p50": "us",
    "rollout.episode_ms.p50": "ms",
    "rollout.episode_ms.p90": "ms",
    "rollout.framework_self_ms": "ms",
    "rollout.archive_write_ms": "ms",
    "rollout.archive_mb": "MB",
    "cli.read_archive_ms": "ms",
    "metrics.score_trajectory_ms.p50": "ms",
    "metrics.peak_tokens_ms": "ms",
    "metrics.dependency_ms": "ms",
    "core.tokenizer_ms": "ms",
    "core.tokenizer_calls": "count",
    "masks.stitch_ms": "ms",
    "masks.build_masks_ms": "ms",
    "masks.verify_masks_ms": "ms",
    "masks.export_masks_ms": "ms",
    "masks.import_masks_ms": "ms",
    "masks.container_mb": "MB",
    "masks.tokens": "count",
    "masks.bytes_per_token": "B/token",
    "tracing.overhead_ratio": "ratio",
}
# shop_sim cannot go through the CLI pipeline yet (README.md, known defect),
# so it reports its own, smaller set.
SHOP_END_TO_END = {
    "pipeline_s": "s",
    "shop_steps_per_s": "actions/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SHOP_PER_LAYER = {
    "envs.catalog_load_ms": "ms",
    "envs.shop_step_ms.search": "ms",
    "envs.shop_step_ms.next": "ms",
    "envs.shop_step_ms.click": "ms",
    "envs.shop_step_ms.panel": "ms",
    "envs.shop_step_ms.buy": "ms",
    "envs.shop_calls": "count",
}
# Printed for every workload, "n/a" where a metric does not apply.
REPORTED = ("pipeline_s", "rollout_turns_per_s", "score_trajectories_per_s",
            "export_tokens_per_s", "shop_steps_per_s", "peak_rss_mb", "output_mb", "setup_s")

_TOKEN = re.compile(r"\s+|\w+|\W", re.UNICODE)  # WordTokenizer's segmentation


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    log: Path

    def failure(self) -> str:
        tail = self.log.read_text(encoding="utf-8", errors="replace")[-800:]
        return f"{self.log.stem} exited {self.code}: {tail.strip()}"


class Runner:
    """Starts children one at a time and measures each with os.wait4."""

    def __init__(self, root: Path, work: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = work
        self.children = 0
        self.failed = 0
        self.references: list[float] = []

    def run(self, args: list[str], log: Path) -> Child:
        self.children += 1
        with log.open("wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out,
                stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
            )
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self.failed += 1
        return Child(wall, usage.ru_maxrss / 1024.0, code, log)

    def reference(self, log: Path) -> None:
        self.references.append(self.run([str(HERE / "reference.py")], log).wall_s)

    def memroll(self, args: list[str], log: Path, spans: Path | None = None) -> Child:
        if spans is None:
            return self.run([*MEMROLL, *args], log)
        return self.run([str(HERE / "tracer.py"), str(spans), "--", *args], log)


def normalized(values: dict, units: dict, scale: float) -> dict:
    """Times multiplied by scale, rates (unit '.../s') divided by it."""
    out = {}
    for key, value in values.items():
        unit = units[key]
        if unit in ("s", "ms", "us"):
            value *= scale
        elif unit.endswith("/s"):
            value /= scale
        out[key] = value
    return out


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _scrub(data):
    if isinstance(data, dict):
        return {k: _scrub(v) for k, v in data.items() if k != "wall_time_s"}
    if isinstance(data, list):
        return [_scrub(v) for v in data]
    return data


def report_digest(path: Path) -> str:
    """sha256 of the score report with wall times dropped."""
    data = _scrub(json.loads(path.read_text(encoding="utf-8")))
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _count(text: str) -> int:
    return len(_TOKEN.findall(text))


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.iterdir()) / 2**20


# ---------------------------------------------------------------- QA workloads


class QAWorkload:
    def __init__(self, name: str, seed: int, runner: Runner, src: Path) -> None:
        self.runner = runner
        self.src = src
        self.inputs, self.expected = workloads.generate_qa(name, seed, runner.work / "inputs")
        self.digests: set[str] = set()
        self.errors: list[str] = []
        self.episodes_attempted = 0
        self.episodes_failed = 0
        self.checked = False

    def setup_probe(self, log: Path) -> Child:
        code = "import sys, memroll; memroll.Corpus.from_jsonl(sys.argv[1])"
        return self.runner.run(["-c", code, str(self.inputs.corpus)], log)

    def pipeline(self, d: Path, traced: bool) -> dict | None:
        """One compose -> rollout -> score -> export-masks pass in d."""
        inp = self.inputs
        d.mkdir(parents=True)
        comp, arch, rep, masks = d / "composites.jsonl", d / "archive", d / "report", d / "masks"
        commands = {
            "compose": ["compose", "--in", str(inp.tasks), "--n", str(inp.objectives),
                        "--seed", str(inp.compose_seed), "--out", str(comp)],
            "rollout": ["rollout", "--in", str(comp), "--policy", f"scripted:{inp.policy}",
                        "--env", f"corpus:{inp.corpus}", "--out", str(arch), "--mode", inp.mode,
                        "--k", str(inp.k), "--turns", str(inp.max_turns), "--concurrency", "1"],
            "score": ["score", "--archive", str(arch), "--out", str(rep)],
            "export": ["export-masks", "--archive", str(arch), "--out", str(masks), "--verify"],
        }
        children = {}
        for step, args in commands.items():
            spans = d / f"spans-{step}.json" if traced else None
            child = self.runner.memroll(args, d / f"{step}.log", spans)
            children[step] = child
            if child.code != 0:
                self.errors.append(child.failure())
                return None
        manifest = json.loads((arch / "manifest.json").read_text(encoding="utf-8"))
        self.episodes_attempted += self.expected.episodes
        self.episodes_failed += len(manifest["errors"])
        masks_manifest = json.loads((masks / "masks_manifest.json").read_text(encoding="utf-8"))
        tokens = sum(entry["n"] for entry in masks_manifest["masks"])
        self.digests.add(report_digest(rep.with_suffix(".json")))
        if not self.checked:
            self.checked = True
            self.errors += self.check(arch, rep.with_suffix(".json"), masks)
        ex = self.expected
        return {
            "children": children,
            "dir": d,
            "pipeline_s": sum(c.wall_s for c in children.values()),
            "rollout_turns_per_s": ex.turns / children["rollout"].wall_s,
            "score_trajectories_per_s": ex.episodes / children["score"].wall_s,
            "export_tokens_per_s": tokens / children["export"].wall_s,
            "peak_rss_mb": max(c.rss_mb for c in children.values()),
            "output_mb": _dir_mb(arch) + _dir_mb(masks) + sum(
                p.stat().st_size for p in (rep.with_suffix(".json"), rep.with_suffix(".csv"))
            ) / 2**20,
            "tokens": tokens,
        }

    def check(self, arch: Path, report: Path, masks: Path) -> list[str]:
        """Compare one pass's outputs with what the generator planted."""
        ex = self.expected
        errors = []
        manifest = json.loads((arch / "manifest.json").read_text(encoding="utf-8"))
        ids = [e["id"] for e in manifest["trajectories"]]
        if ids != ex.composite_ids or manifest["errors"]:
            errors.append(f"archive holds {len(ids)} of {ex.episodes} episodes, "
                          f"errors {manifest['errors'][:2]}")
            return errors
        expected_n = {}
        for entry in manifest["trajectories"]:
            traj = json.loads((arch / entry["file"]).read_text(encoding="utf-8"))
            cid = entry["id"]
            answer = "; ".join(ex.answers[cid])
            if traj["terminated"] != "answered" or traj["final_answer"] != answer:
                errors.append(f"{cid}: ended {traj['terminated']} with {traj['final_answer']!r}")
            turns = traj["turns"]
            for turn_index, word in ex.retrievals[cid]:
                if word not in (turns[turn_index]["info"] or ""):
                    errors.append(f"{cid}: turn {turn_index} did not retrieve {word}")
            gen = sum(_count(t["generation"]["text"]) for t in turns)
            info = sum(_count(f"<info>{t['info']}</info>") for t in turns if t["info"] is not None)
            expected_n[cid] = (_count(turns[0]["context_snapshot"]) + gen + info, gen)
        scores = json.loads(report.read_text(encoding="utf-8"))["per_trajectory"]
        for row in scores:
            want = float(row["objective_count"])
            if row["em"] != want or row["f1"] != want:
                errors.append(f"{row['trajectory_id']}: EM {row['em']} F1 {row['f1']}, want {want}")
        if len(scores) != ex.episodes:
            errors.append(f"score report has {len(scores)} of {ex.episodes} trajectories")
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        from memroll.masks import import_masks

        listed = json.loads((masks / "masks_manifest.json").read_text(encoding="utf-8"))["masks"]
        if [m["id"] for m in listed] != ex.composite_ids:
            errors.append("mask manifest does not list every episode in order")
        for entry in listed:
            stitched, _, loss, header = import_masks((masks / entry["file"]).read_bytes())
            want_n, want_loss = expected_n.get(entry["id"], (None, None))
            got = (stitched.n, int(header["n"]), entry["n"], int(loss.loss.sum()))
            if got != (want_n, want_n, want_n, want_loss):
                errors.append(f"{entry['id']}: container n/loss {got}, want n {want_n} loss {want_loss}")
        return errors

    def layer_metrics(self, run: dict) -> dict:
        """Per-layer numbers of one traced pass: totals plus raw call samples."""
        d = run["dir"]
        spans_by_cmd = {
            step: json.loads((d / f"spans-{step}.json").read_text(encoding="utf-8"))
            for step in ("compose", "rollout", "score", "export")
        }
        calls: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        totals: dict[str, float] = {}
        tokenizer_s = tokenizer_calls = 0
        archive_write_s = 0.0
        for trace in spans_by_cmd.values():
            spans = trace["spans"]
            kids = tracing.children(spans)
            ends = {}
            for idx, (name, start, end, _, _) in enumerate(spans):
                calls.setdefault(name, []).append(end - start)
                totals[name] = totals.get(name, 0.0) + end - start
                self_s[name] = self_s.get(name, 0.0) + tracing.self_seconds(spans, kids, idx)
                ends[name] = end
            if "rollout.run_batch" in ends:
                archive_write_s = ends["cli.rollout"] - ends["rollout.run_batch"]
            for calls_n, seconds in trace["counters"].values():
                tokenizer_calls += calls_n
                tokenizer_s += seconds
        arch = d / "archive"
        snapshots = []
        for path in arch.glob("*.json"):
            if path.name != "manifest.json":
                traj = json.loads(path.read_text(encoding="utf-8"))
                snapshots += [len(t["context_snapshot"]) for t in traj["turns"]]
        masks_mb = _dir_mb(d / "masks")
        ms = 1e3
        return {
            "samples": calls,
            "self_ms": {k: v * ms for k, v in self_s.items()},
            "total_ms": {k: v * ms for k, v in totals.items()},
            "compose.compose_ms": totals["compose.compose"] * ms,
            "envs.corpus_build_ms": totals["envs.corpus_build"] * ms,
            "envs.search_calls": len(calls["envs.search"]),
            "context.rendered_chars_per_turn": statistics.fmean(snapshots),
            "rollout.framework_self_ms": self_s["rollout.episode"] * ms,
            "rollout.archive_write_ms": archive_write_s * ms,
            "rollout.archive_mb": _dir_mb(arch),
            "cli.read_archive_ms": totals["cli.archive_entry"] * ms,
            "metrics.peak_tokens_ms": totals["metrics.peak_tokens"] * ms,
            "metrics.dependency_ms": totals["metrics.dependency"] * ms,
            "core.tokenizer_ms": tokenizer_s * ms,
            "core.tokenizer_calls": tokenizer_calls,
            "masks.stitch_ms": totals["masks.stitch"] * ms,
            "masks.build_masks_ms": totals["masks.build_masks"] * ms,
            "masks.verify_masks_ms": totals["masks.verify_masks"] * ms,
            "masks.export_masks_ms": totals["masks.export_masks"] * ms,
            "masks.import_masks_ms": totals["masks.import_masks"] * ms,
            "masks.container_mb": masks_mb,
            "masks.tokens": run["tokens"],
            "masks.bytes_per_token": masks_mb * 2**20 / run["tokens"],
        }


def summarize_layers(passes: list[dict], untraced: list[dict], traced: list[dict]) -> dict:
    per_call = {
        "envs.search_ms": ("envs.search", 1e3),
        "context.render_context_us": ("context.render_context", 1e6),
        "context.advance_us": ("context.advance", 1e6),
        "tagparse.parse_turn_us": ("tagparse.parse_turn", 1e6),
        "rollout.episode_ms": ("rollout.episode", 1e3),
        "metrics.score_trajectory_ms": ("metrics.score_trajectory", 1e3),
    }
    out = {}
    for metric, (span, scale) in per_call.items():
        samples = [s * scale for p in passes for s in p["samples"].get(span, [])]
        for name, stat in ((f"{metric}.p50", median), (f"{metric}.p90", p90)):
            if name in PER_LAYER:
                out[name] = stat(samples)
    for name in STAGE_RATES:
        out[f"cli.{name}"] = median([r[name] for r in untraced])
    for name in PER_LAYER:
        if name not in out and name in passes[0]:
            out[name] = median([p[name] for p in passes])
    out["tracing.overhead_ratio"] = (
        median([r["pipeline_s"] for r in traced]) / median([r["pipeline_s"] for r in untraced])
    )
    return out


def span_table(passes: list[dict]) -> list[str]:
    names = sorted(passes[0]["total_ms"], key=lambda n: -passes[0]["self_ms"][n])
    lines = [f"{'span':32} {'calls':>7} {'total_ms':>10} {'self_ms':>10}"]
    for name in names:
        total = median([p["total_ms"].get(name, 0.0) for p in passes])
        own = median([p["self_ms"].get(name, 0.0) for p in passes])
        lines.append(f"{name:32} {len(passes[0]['samples'][name]):>7} {total:>10.2f} {own:>10.2f}")
    return lines


def bench_qa(name: str, args, runner: Runner, src: Path):
    wl = QAWorkload(name, args.seed, runner, src)
    logs = runner.work / "logs"
    logs.mkdir()
    wl.setup_probe(logs / "warmup.log")  # fills the page cache and __pycache__
    setups, untraced, traced, passes = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    repeat = 0
    min_repeats = MIN_TRACED_PAIRS if args.trace else MIN_REPEATS
    while not wl.errors and (repeat < min_repeats or time.perf_counter() < deadline):
        runner.reference(logs / f"reference{repeat}a.log")
        modes = ([False, True] if repeat % 2 == 0 else [True, False]) if args.trace else [False]
        for traced_pass in modes:
            d = runner.work / f"pass{repeat}-{int(traced_pass)}"
            result = wl.pipeline(d, traced_pass)
            if result is None:
                break
            (traced if traced_pass else untraced).append(result)
            if traced_pass:
                passes.append(wl.layer_metrics(result))
            shutil.rmtree(d)  # the long workloads write ~100 MB of containers
        if not args.trace and not wl.errors and repeat < MIN_REPEATS:
            setups.append(wl.setup_probe(logs / f"setup{repeat}.log"))
        runner.reference(logs / f"reference{repeat}b.log")
        repeat += 1
    if len(wl.digests) > 1:
        wl.errors.append(f"score report digest differs between repeats: {sorted(wl.digests)}")
    runner.failed += wl.episodes_failed
    runner.children += wl.episodes_attempted
    if not untraced or (args.trace and not traced):
        return {}, {}, [], wl.errors + ["no complete pipeline pass"]

    e2e = {key: median([r[key] for r in untraced]) for key in [*END_TO_END, *STAGE_RATES]
           if key != "setup_s"}
    e2e["peak_rss_mb"] = max(r["peak_rss_mb"] for r in untraced)
    if setups:
        e2e["setup_s"] = median([c.wall_s for c in setups])
    lines = [
        f"workload {name} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"pipeline passes, {len(setups)} setup probes",
        f"score report digest (wall_time_s dropped): {' '.join(sorted(wl.digests))}",
    ]
    layers = {}
    if args.trace:
        layers = summarize_layers(passes, untraced, traced)
        lines += span_table(passes)
    return e2e, layers, lines, wl.errors


# ------------------------------------------------------------------- shop_sim


def bench_shop(args, runner: Runner):
    inputs, expected = workloads.generate_shop(args.seed, runner.work / "inputs")
    logs = runner.work / "logs"
    logs.mkdir()
    probe = ["-c", "import sys, memroll; memroll.load_catalog(sys.argv[1])", str(inputs.catalog)]
    runner.run(probe, logs / "warmup.log")
    setups, batches, errors = [], [], []
    deadline = time.perf_counter() + args.seconds
    repeat = 0
    while not errors and (repeat < MIN_REPEATS or time.perf_counter() < deadline):
        runner.reference(logs / f"reference{repeat}a.log")
        result_path = runner.work / f"shop{repeat}.json"
        child = runner.run(
            [str(HERE / "shop_batch.py"), str(inputs.catalog), str(inputs.episodes), str(result_path)],
            logs / f"shop{repeat}.log",
        )
        if child.code != 0:
            errors.append(child.failure())
            break
        result = json.loads(result_path.read_text(encoding="utf-8"))
        for eid, want in expected.rewards.items():
            if result["rewards"].get(eid) != want:
                errors.append(f"{eid}: reward {result['rewards'].get(eid)}, want {want}")
        batches.append((child, result))
        setups.append(runner.run(probe, logs / f"setup{repeat}.log"))
        runner.reference(logs / f"reference{repeat}b.log")
        repeat += 1
    runner.children += expected.episodes * len(batches)
    if not batches:
        return {}, {}, [], errors
    e2e = {
        "pipeline_s": median([c.wall_s for c, _ in batches]),
        "shop_steps_per_s": median(
            [expected.steps / sum(sum(v) for v in r["steps"].values()) for _, r in batches]
        ),
        "peak_rss_mb": max(c.rss_mb for c, _ in batches),
        "setup_s": median([c.wall_s for c in setups]),
    }
    layers = {"envs.catalog_load_ms": median([r["load_s"] * 1e3 for _, r in batches])}
    for kind in ("search", "next", "click", "panel", "buy"):
        layers[f"envs.shop_step_ms.{kind}"] = median(
            [s * 1e3 for _, r in batches for s in r["steps"][kind]]
        )
    layers["envs.shop_calls"] = expected.steps
    lines = [
        f"workload shop_sim seed {args.seed}: {len(batches)} batches of {expected.episodes} "
        f"episodes ({expected.steps} actions) through ShopEnv.respond, {len(setups)} setup probes",
    ]
    return e2e, layers, lines, errors


# ------------------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "memroll" / "__init__.py").is_file():
        print(f"error: no memroll source tree at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    # Stopped from outside: unwind, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(root, work)
    try:
        if args.workload == "shop_sim":
            e2e, layers, lines, errors = bench_shop(args, runner)
            e2e_units, layer_units = SHOP_END_TO_END, SHOP_PER_LAYER
        else:
            e2e, layers, lines, errors = bench_qa(args.workload, args, runner, src)
            e2e_units, layer_units = END_TO_END, PER_LAYER
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = dict(END_TO_END, **SHOP_END_TO_END, **STAGE_RATES, **layer_units)
    e2e_raw, layers_raw = e2e, layers
    if runner.references:
        reference = median(runner.references)
        scale = REFERENCE_S / reference
        e2e, layers = normalized(e2e, units, scale), normalized(layers, units, scale)
        lines.append(f"reference.py: median {reference:.4f} s over {len(runner.references)} runs; "
                     f"times and rates at {REFERENCE_S} s per reference run (raw in brackets)")
    for line in lines:
        print(f"# {line}")
    for error in errors:
        print(f"# CHECK FAILED: {error}")
        print(f"check failed: {error}", file=sys.stderr)
    for key in REPORTED:
        if key in e2e:
            print(f"# {key:32} {e2e[key]:14.6g} {units[key]:15} [{e2e_raw[key]:.6g}]")
        else:
            print(f"# {key:32} {'n/a':>14} {units[key]}")
    ratio = runner.failed / runner.children if runner.children else 0.0
    print(f"# {'error_ratio':32} {ratio:14.6g} failed/attempted ({runner.failed}/{runner.children})")
    for key, unit in layer_units.items():
        if key in layers:
            print(f"# {key:32} {layers[key]:14.6g} {unit:15} [{layers_raw[key]:.6g}]")

    chosen, values = (layer_units, layers) if args.trace else (e2e_units, e2e)
    correct = not errors and not runner.failed and all(key in values for key in chosen)
    result = {
        "correct": correct,
        "attempted": max(runner.children, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in chosen.items() if k in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
