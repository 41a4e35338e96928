"""Span tracing for the benchmark's traced runs, with no change to memroll.

Run as a script, this is a drop-in for the ``memroll`` console command that
records where the time went::

    python3 perfbench/tracer.py SPANS.json -- rollout --in ... --out ...

It imports memroll, replaces the public functions at the names the CLI and
rollout modules look them up by (``memroll.cli.stitch``,
``memroll.rollout.parse_turn``, ``Corpus.search`` and so on) with timing
wrappers, runs ``memroll.cli.main`` and, when the command returns, writes the
spans it kept in memory to SPANS.json. A span is (name, start, end, parent);
the parent is the span that was open when it started, so self time is a
span's duration minus its children's.

WordTokenizer calls are too many and too short for one span each (stitching
decodes once per token), so they are counted instead: calls and seconds per
name, with their time also charged to the enclosing span so self times stay
exact.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, seconds of counted calls inside]
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, _now(), 0.0, self._stack[-1] if self._stack else -1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _now()
        self._stack.pop()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def span_steps(self, name: str, gen_fn):
        """Wrap a generator function: one span per item produced."""

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                yield item

        return wrapper

    def counted(self, name: str, fn):
        totals = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                totals[0] += 1
                totals[1] += elapsed
                if self._stack:
                    self.spans[self._stack[-1]][4] += elapsed

        return wrapper

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def install(tracer: Tracer) -> None:
    """Wrap memroll's layer entry points where the CLI and rollout call them."""
    import memroll.cli as cli
    import memroll.core as core
    import memroll.envs as envs
    import memroll.metrics as metrics
    import memroll.rollout as rollout

    spans = [
        (cli, "_cmd_compose", "cli.compose"),
        (cli, "_cmd_rollout", "cli.rollout"),
        (cli, "_cmd_score", "cli.score"),
        (cli, "_cmd_export_masks", "cli.export_masks"),
        (cli, "load_dataset", "compose.load_dataset"),
        (cli, "compose", "compose.compose"),
        (cli, "write_composites", "compose.write_composites"),
        (cli, "load_composites", "compose.load_composites"),
        (cli, "run_batch", "rollout.run_batch"),
        (rollout, "run_rollout", "rollout.episode"),
        (rollout.ScriptedPolicy, "generate", "rollout.policy_generate"),
        (rollout, "render_context", "context.render_context"),
        (rollout, "advance", "context.advance"),
        (rollout, "inject_hint", "context.inject_hint"),
        (rollout, "parse_turn", "tagparse.parse_turn"),
        (envs.RetrievalEnv, "respond", "envs.respond"),
        (envs.Corpus, "search", "envs.search"),
        (cli, "score_trajectory", "metrics.score_trajectory"),
        (metrics, "peak_tokens", "metrics.peak_tokens"),
        (metrics, "dependency", "metrics.dependency"),
        (cli, "aggregate", "metrics.aggregate"),
        (cli, "stitch", "masks.stitch"),
        (cli, "build_masks", "masks.build_masks"),
        (cli, "verify_masks", "masks.verify_masks"),
        (cli, "export_masks", "masks.export_masks"),
        (cli, "import_masks", "masks.import_masks"),
    ]
    for owner, attr, name in spans:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr)))
    from_jsonl = envs.Corpus.__dict__["from_jsonl"].__func__
    envs.Corpus.from_jsonl = classmethod(tracer.span("envs.corpus_build", from_jsonl))
    cli._iter_archive = tracer.span_steps("cli.archive_entry", cli._iter_archive)
    for attr in ("encode", "decode", "count"):
        fn = getattr(core.WordTokenizer, attr)
        setattr(core.WordTokenizer, attr, tracer.counted("core.tokenizer", fn))


def children(spans: list[list]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for idx, rec in enumerate(spans):
        if rec[3] >= 0:
            out[rec[3]].append(idx)
    return out


def self_seconds(spans: list[list], kids: dict[int, list[int]], idx: int) -> float:
    """A span's duration minus its child spans and the counted calls inside it."""
    name, start, end, _, counted = spans[idx]
    covered = sum(spans[c][2] - spans[c][1] for c in kids.get(idx, ()))
    return (end - start) - covered - counted


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <memroll arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    install(tracer)
    from memroll.cli import main as memroll_main

    try:
        return memroll_main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
