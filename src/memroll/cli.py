"""Command line front end.

Subcommands: compose (bundle single-objective tasks into multi-objective
prompts), rollout (run episodes against a policy and environment, writing a
trajectory archive), score (accuracy and efficiency metrics over an archive),
and export-masks (stitched token sequences with attention and loss masks).

Exit codes: 0 success, 1 usage or configuration problem, 2 bad input data or
a path that cannot be read or written, 3 integrity failure (mask or container
verification).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import json
import os
import re
import sys
from pathlib import Path

from .compose import compose, load_composites, load_dataset, write_composites
from .core import (
    ConfigError,
    DataError,
    IntegrityError,
    PRESETS,
    RolloutConfig,
    ValidationError,
    WordTokenizer,
    default_max_turns,
    load_config,
)

__all__ = ["main", "build_parser", "read_archive"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTEGRITY = 3

# What the commands call from the modules only some of them need, by module.
# A command binds its modules' names here when it starts, leaving any name
# already bound (a tracer's or a test's replacement) as it is, and calls them
# through these globals; memroll.cli.<name> imports a name on first access.
_DEFERRED = {
    "archive": ("ARCHIVE_VERSION", "TrajectoryRecord", "check_version", "dump_turns", "to_json"),
    "envs": ("Corpus", "HttpSearchEnv", "RetrievalEnv", "ScriptedEnv"),
    "masks": ("FORMATS", "_packed", "build_masks", "export_masks", "import_masks", "stitch", "verify_masks"),
    "metrics": ("MetricReport", "aggregate", "score_trajectory"),
    "rollout": ("HttpPolicy", "RolloutError", "ScriptedPolicy", "run_batch"),
    "shop": ("ShopEnv", "load_catalog"),
}


def _bind(*modules: str) -> None:
    namespace = globals()
    for module in modules:
        source = importlib.import_module(f"{__package__}.{module}")
        for name in _DEFERRED[module]:
            namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through ConfigError so usage
    # problems map to exit code 1 like every other configuration error.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(f"{self.prog}: {message}")


def _file_names(ids: list[str], suffix: str) -> list[str]:
    """The file each id is written to; ids that would share a file are refused."""
    names = [re.sub(r"[^\w.+-]", "_", task_id) + suffix for task_id in ids]
    first: dict[str, int] = {}
    for idx, name in enumerate(names):
        prior = first.setdefault(name, idx)
        if prior != idx:
            raise DataError(f"task ids {ids[prior]!r} and {ids[idx]!r} would both be written to {name}")
    return names


def _make_policy(spec: str, config: RolloutConfig):
    if spec.startswith("scripted:"):
        return ScriptedPolicy.from_file(spec[len("scripted:") :])
    if spec.startswith(("http://", "https://")):
        return HttpPolicy.from_config(config, url=spec)
    raise ConfigError(f"unknown policy spec {spec!r}; use scripted:FILE or an http(s) URL")


def _make_env(spec: str, config: RolloutConfig):
    if spec.startswith("corpus:"):
        corpus = Corpus.from_jsonl(spec[len("corpus:") :])
        return RetrievalEnv(corpus, k=config.retrieval_k)
    if spec.startswith("shop:"):
        _bind("shop")
        return ShopEnv(load_catalog(spec[len("shop:") :]))
    if spec.startswith("scripted:"):
        return ScriptedEnv.from_file(spec[len("scripted:") :])
    if spec.startswith("search:"):
        return HttpSearchEnv(spec[len("search:") :], api_key=os.environ.get(config.api_key_env), top_n=config.retrieval_k)
    raise ConfigError(
        f"unknown env spec {spec!r}; use corpus:FILE, shop:FILE, scripted:FILE, or search:URL"
    )


def _cmd_compose(args: argparse.Namespace) -> int:
    if args.objectives < 1:
        raise ConfigError("--n must be >= 1")
    tasks = load_dataset(args.input)
    composites = compose(tasks, args.objectives, preset=PRESETS[args.preset], seed=args.seed)
    write_composites(args.output, composites)
    print(
        f"wrote {len(composites)} composite tasks "
        f"({args.objectives} objectives each, seed {args.seed}) to {args.output}"
    )
    return EXIT_OK


def _resolve_config(args: argparse.Namespace) -> RolloutConfig:
    config = load_config(args.config) if args.config else RolloutConfig()
    # Each rollout flag's dest is the config field it sets; unset flags are None.
    overrides = {name: getattr(args, name, None) for name in RolloutConfig._fields}
    if args.turns is not None and args.turns != "auto":
        try:
            overrides["max_turns"] = int(args.turns)
        except ValueError:
            raise ConfigError(f"--turns must be an integer or 'auto', got {args.turns!r}") from None
    return config.with_overrides(**overrides)


def _cmd_rollout(args: argparse.Namespace) -> int:
    if args.concurrency < 1:
        raise ConfigError("--concurrency must be >= 1")
    _bind("rollout", "archive", "envs")
    config = _resolve_config(args)
    tasks = load_composites(args.input)
    names = _file_names([task.id for task in tasks], ".json")
    policy = _make_policy(args.policy, config)
    env = _make_env(args.env, config)

    # With --turns auto the budget follows objective count: batch per distinct
    # budget, then take the results back in input order.
    budgets = [
        default_max_turns(task.objective_count) if args.turns == "auto" else config.max_turns
        for task in tasks
    ]
    # The output directory is made before any episode runs, so a path that
    # cannot be one costs no rollout.
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict[int, TrajectoryRecord | RolloutError] = {}
    for budget in sorted(set(budgets)):
        group = [idx for idx, task_budget in enumerate(budgets) if task_budget == budget]
        budget_config = config.with_overrides(max_turns=budget)
        batch = run_batch([tasks[idx] for idx in group], policy, env, budget_config, args.concurrency)
        results.update(zip(group, batch))

    entries = []
    errors = []
    for task, name, (_, result) in zip(tasks, names, sorted(results.items())):
        if isinstance(result, TrajectoryRecord):
            (out_dir / name).write_text(to_json(result.to_dict()), encoding="utf-8")
            entries.append({"id": task.id, "file": name, "terminated": result.terminated})
        else:
            errors.append({"id": task.id, "error": str(result), "turns": dump_turns(result.partial)})
            print(f"error: {result}", file=sys.stderr)
    manifest = {
        "version": ARCHIVE_VERSION,
        "config": config.to_dict(),
        "count": len(entries),
        "trajectories": entries,
        "errors": errors,
    }
    (out_dir / "manifest.json").write_text(to_json(manifest), encoding="utf-8")
    print(
        f"wrote {len(entries)} trajectories to {out_dir}"
        + (f" ({len(errors)} failed)" if errors else "")
    )
    if tasks and not entries:
        return EXIT_DATA
    return EXIT_OK


def read_archive(path: str | Path) -> list[TrajectoryRecord]:
    """Load every trajectory listed in an archive's manifest, in order."""
    records = []
    for entry, loaded in _iter_archive(path):
        if isinstance(loaded, Exception):
            error = IntegrityError if isinstance(loaded, IntegrityError) else DataError
            raise error(f"archive entry {entry['id']!r}: {loaded}") from None
        records.append(loaded)
    return records


def _iter_archive(path: str | Path):
    _bind("archive")
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{root} is not a trajectory archive (no manifest.json)")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
    entries = manifest.get("trajectories", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise DataError(f"{manifest_path}: expected an object with a 'trajectories' list")
    try:
        check_version(manifest)
    except DataError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
    # Every entry is checked before any is read, so a bad manifest yields nothing.
    first: dict[str, dict] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or not isinstance(entry.get("file"), str):
            raise DataError(f"{manifest_path}: trajectory entry {entry!r} needs an id and a file")
        prior = first.setdefault(os.path.normpath(entry["file"]), entry)
        if prior is not entry:
            raise DataError(
                f"{manifest_path}: entries {prior['id']!r} and {entry['id']!r} both name {entry['file']}"
            )
    for entry in entries:
        try:
            data = json.loads((root / entry["file"]).read_text(encoding="utf-8"))
            yield entry, TrajectoryRecord.from_dict(data)
        except KeyError as exc:
            yield entry, DataError(f"missing key {exc.args[0]!r}")
        except (OSError, TypeError, ValueError, IntegrityError) as exc:
            yield entry, exc


_PLOT_FIELDS = ("em", "f1", "peak_tokens", "dependency", "wall_time_s")


def _cmd_score(args: argparse.Namespace) -> int:
    import csv
    from statistics import fmean

    _bind("metrics")
    reports = []
    skipped = 0
    for entry, loaded in _iter_archive(args.archive):
        if isinstance(loaded, Exception):
            skipped += 1
            print(f"warning: skipping corrupt trajectory {entry['id']!r}: {loaded}", file=sys.stderr)
        else:
            reports.append(score_trajectory(loaded))
    summary = aggregate(reports)
    if skipped:
        summary["skipped"] = skipped
    out_json = Path(args.output + ".json")
    out_json.parent.mkdir(parents=True, exist_ok=True)
    out_json.write_text(
        json.dumps(
            {"aggregate": summary, "per_trajectory": [r.to_dict() for r in reports]},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    out_csv = Path(args.output + ".csv")
    csv_fields = MetricReport._fields
    with out_csv.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=csv_fields)
        writer.writeheader()
        for report in reports:
            row = report.to_dict()
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in csv_fields})
    if args.plot_data:
        groups: dict[int, list] = {}
        for report in reports:
            groups.setdefault(report.objective_count, []).append(report)
        with Path(args.plot_data).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["objective_count", "episodes"] + [f"{m}_mean" for m in _PLOT_FIELDS])
            for count in sorted(groups):
                rows = groups[count]
                writer.writerow(
                    [count, len(rows)] + [fmean(getattr(r, m) for r in rows) for m in _PLOT_FIELDS]
                )
    if not reports:
        print("warning: archive holds no scoreable trajectories", file=sys.stderr)
        print(f"scored 0 trajectories -> {out_json}, {out_csv}")
        return EXIT_OK
    em = summary["em"]["mean"]
    f1_mean = summary["f1"]["mean"]
    print(f"scored {len(reports)} trajectories: EM {em:.4f}, F1 {f1_mean:.4f} -> {out_json}, {out_csv}")
    return EXIT_OK


def _export_one(record: TrajectoryRecord, path: Path, fmt: str, verify: bool) -> dict:
    """Write one trajectory's mask container to path and return its manifest entry.

    Each trajectory is stitched with a fresh counter, so its token ids index
    its own string table and its bytes depend on nothing exported before it.
    With verify, the container is checked as written: re-imported, it must
    pass verify_masks against the record and give back the sequence, equal
    to the stitched one for ranges, with the same rows and columns for the
    dense formats (which join ranges and hold no table). A function of its
    own so that what it builds is freed before the next trajectory is built.
    """
    counter = WordTokenizer()
    try:
        stitched = stitch(record, counter)
        mask2d, mask1d = build_masks(stitched)
        blob = export_masks(stitched, mask2d, mask1d, counter.name, fmt=fmt)
        if verify:
            re_st, re_mask, _, _ = import_masks(blob)
            verify_masks(record, re_st, re_mask, counter)
            if fmt == "ranges":
                same = re_st == stitched
            else:
                columns = ("tokens", "positions", "segments", "turn_of", "generated")  # generated is the loss
                same = re_mask.same_rows(mask2d) and all(_packed(re_st, c) == _packed(stitched, c) for c in columns)
            if not same:
                raise IntegrityError("export does not round-trip")
    except IntegrityError as exc:
        raise IntegrityError(f"trajectory {record.task.id!r}: {exc}") from None
    path.write_bytes(blob)
    return {"id": record.task.id, "file": path.name, "n": stitched.n}


# A forked part costs 3-10 ms more CPU than exporting its trajectories here
# (the fork, and the pages the child copies as it touches them) and 3-6 MB of
# memory of its own. Exporting costs 0.37-0.64 us per character of
# generations and infos, so a part this size does 24-42 ms of work, twice
# that cost or more (BENCH_parallel_export.json).
_PART_CHARS = 1 << 16


def _part_count(jobs: list[tuple[TrajectoryRecord, Path]]) -> int:
    """One part per usable CPU and per _PART_CHARS characters, or 1 where a
    fork would lose a thread or what a replaced function records: a child
    holds only the forking thread (numpy's BLAS pool is a second one), and
    the calls it makes never reach this process's replacements of the masks
    functions (perfbench/tracer.py's timing wrappers, a test's stub)."""
    masks = sys.modules[f"{__package__}.masks"]
    if any(globals()[name] is not getattr(masks, name) for name in _DEFERRED["masks"]):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call or no /proc: not Linux
        return 1
    chars = sum(len(turn.generation.text) + len(turn.info or "") for record, _ in jobs for turn in record.turns)
    return max(1, min(len(jobs), cpus, chars // _PART_CHARS))


def _export_parts(jobs: list[tuple[TrajectoryRecord, Path]], fmt: str, verify: bool) -> list[dict]:
    """Run _export_one over jobs in _part_count contiguous parts: part 0 here,
    every other part in a forked child, or here in its turn if the fork
    fails. Return what the loop would return, or raise its first failure in
    job order; no child outlives this."""

    def export(part):
        return [_export_one(record, path, fmt, verify) for record, path in part]

    count = _part_count(jobs)
    if count < 2:
        return export(jobs)
    import pickle

    cuts = [len(jobs) * index // count for index in range(count + 1)]
    parts = [jobs[start:end] for start, end in zip(cuts, cuts[1:])]
    children = {}  # part index -> (pid, read end of its pipe)
    try:
        for index in range(1, count):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                continue
            if pid:
                os.close(write_fd)
                children[index] = pid, open(read_fd, "rb")
                continue
            # The child sends (True, entries) or (False, exception, traceback)
            # and leaves through os._exit, whatever happens.
            code = 1
            try:
                os.close(read_fd)
                try:
                    result = True, export(parts[index])
                except Exception as exc:
                    import traceback

                    result = False, exc, traceback.format_exc()
                with open(write_fd, "wb") as pipe:
                    pipe.write(pickle.dumps(result))
                code = 0
            finally:
                os._exit(code)
        entries = []
        for index, part in enumerate(parts):
            if index not in children:
                entries += export(part)
                continue
            pid, pipe = children[index]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[index]
            where = f"the forked export of trajectories {part[0][0].task.id!r} to {part[-1][0].task.id!r}"
            try:
                done, value, *trace = pickle.loads(data)
            except Exception:  # nothing, or a result cut short
                raise ChildProcessError(
                    f"{where} ended with exit status {os.waitstatus_to_exitcode(status)} and no result"
                ) from None
            if not done:  # the pickled exception lost its traceback; the cause carries the child's frames
                raise value from RuntimeError(f"raised in {where}:\n{trace[0]}")
            entries += value
        return entries
    except BaseException:
        import signal

        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.waitpid(pid, 0)


def _cmd_export_masks(args: argparse.Namespace) -> int:
    _bind("masks")
    fmt = args.format or FORMATS[0]
    records = read_archive(args.archive)
    names = _file_names([record.task.id for record in records], ".mem1mask")
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(record, out_dir / name) for record, name in zip(records, names)]
    entries = _export_parts(jobs, fmt, args.verify)
    (out_dir / "masks_manifest.json").write_text(to_json({"format": fmt, "masks": entries}), encoding="utf-8")
    print(f"exported {len(entries)} mask containers ({fmt}) to {out_dir}")
    return EXIT_OK


class _Formats:
    # masks.FORMATS as argparse choices, read only when a format is checked or
    # listed, so that building the parser imports masks for no command.
    def __iter__(self):
        _bind("masks")
        return iter(FORMATS)

    def __contains__(self, fmt: object) -> bool:
        return fmt in tuple(self)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="memroll", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_compose = sub.add_parser("compose", help="bundle tasks into multi-objective prompts")
    p_compose.add_argument("--in", dest="input", required=True, help="single-objective task JSONL")
    p_compose.add_argument("--n", dest="objectives", required=True, type=int, help="questions per composite")
    p_compose.add_argument("--out", dest="output", required=True, help="composite JSONL to write")
    p_compose.add_argument("--seed", type=int, default=0, help="shuffle seed (default 0)")
    p_compose.add_argument("--preset", choices=sorted(PRESETS), default="paper_body")
    p_compose.set_defaults(func=_cmd_compose)

    p_roll = sub.add_parser("rollout", help="run episodes and write a trajectory archive")
    p_roll.add_argument("--in", dest="input", required=True, help="composite task JSONL")
    p_roll.add_argument("--policy", required=True, help="scripted:FILE or an http(s) URL")
    p_roll.add_argument("--env", required=True, help="corpus:FILE, shop:FILE, scripted:FILE, or search:URL")
    p_roll.add_argument("--out", dest="output", required=True, help="archive directory to write")
    p_roll.add_argument("--config", help="rollout config file (JSON or key=value lines)")
    p_roll.add_argument("--turns", help="turn budget, or 'auto' to follow objective count")
    p_roll.add_argument(
        "--mode", type=lambda mode: mode.replace("-", "_"), choices=("consolidate", "full_append")
    )
    p_roll.add_argument("--preset", dest="tag_preset", choices=sorted(PRESETS))
    p_roll.add_argument("--seed", type=int)
    p_roll.add_argument("--k", dest="retrieval_k", type=int, metavar="K", help="passages per retrieval")
    p_roll.add_argument("--max-tokens", dest="max_tokens_per_generation", type=int, metavar="MAX_TOKENS")
    p_roll.add_argument(
        "--no-hint", dest="hint_enabled", action="store_const", const=False,
        help="disable turns-left hints",
    )
    p_roll.add_argument("--concurrency", type=int, default=1)
    p_roll.set_defaults(func=_cmd_rollout)

    p_score = sub.add_parser("score", help="score an archive (JSON + CSV)")
    p_score.add_argument("--archive", required=True, help="archive directory")
    p_score.add_argument("--out", dest="output", required=True, help="output path prefix")
    p_score.add_argument(
        "--plot-data", dest="plot_data", help="write per-objective-count series CSV"
    )
    p_score.set_defaults(func=_cmd_score)

    p_masks = sub.add_parser("export-masks", help="export stitched masked sequences")
    p_masks.add_argument("--archive", required=True, help="archive directory")
    p_masks.add_argument("--out", dest="output", required=True, help="directory for mask containers")
    p_masks.add_argument(
        "--format", choices=_Formats(), metavar="FORMAT", help="%(choices)s; the first is the default"
    )
    p_masks.add_argument("--verify", action="store_true", help="check masks against the rollout records")
    p_masks.set_defaults(func=_cmd_export_masks)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Freeze the heap as the interpreter exits, so its final collections
    # scan nothing: the OS reclaims that memory anyway, and every file a
    # command writes is closed before it returns. Registered once however
    # often main runs, and never run here, so a caller's collector keeps
    # working while the process lives.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
