"""The package's export list: read from its lazy name table, pinned here."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import memroll

EXPORTS = {
    "ConfigError", "DataError", "DEFAULT_COUNTER", "ENV_KINDS", "IntegrityError",
    "PAPER_BODY", "PRESETS", "PROMPT_STYLE", "RolloutConfig", "TagPreset", "Task",
    "TokenCounter", "ValidationError", "WordTokenizer", "config_from_mapping",
    "default_max_turns", "load_config", "rename_tags", "segment_text",
    "Action", "Answer", "Invalid", "ParsedTurn", "Query", "Span", "parse_turn",
    "render_turn", "split_answers",
    "ContextState", "HINT_TEMPLATE", "advance", "context_token_len",
    "initial_state", "inject_hint", "render_context",
    "Corpus", "Doc", "Environment", "HttpSearchEnv", "Observation", "Product",
    "RetrievalEnv", "ScriptedEnv", "ShopEnv", "ShopGoal", "ShopSim", "ShopState",
    "load_catalog", "render_passages", "retrieve",
    "CompositeTask", "compose", "composite_from_dict", "composite_from_tasks",
    "gold_of", "load_composites", "load_dataset", "write_composites",
    "Generation", "HttpPolicy", "PolicyBackend", "RolloutError", "ScriptedPolicy",
    "TrajectoryRecord", "TurnRecord", "replay_contexts", "run_batch", "run_rollout",
    "MetricReport", "aggregate", "dependency", "em_reward", "exact_match", "f1",
    "f1_single", "normalize_answer", "peak_tokens", "score_trajectory",
    "valid_action_ratio",
    "Mask1D", "Mask2D", "SEGMENT_CODES", "SEGMENT_NAMES", "StitchedTrajectory",
    "build_masks", "export_masks", "import_masks", "stitch", "verify_masks",
    "visible_tokens",
    "__version__",
}


def imported_from() -> dict[str, str]:
    """Each name the package exports, mapped to the submodule it comes from."""
    return dict(memroll._SOURCE)


class TestExports:
    def test_names_are_pinned(self):
        assert len(memroll.__all__) == len(EXPORTS) == 91
        assert set(memroll.__all__) == EXPORTS

    def test_every_name_resolves(self):
        for name in memroll.__all__:
            assert hasattr(memroll, name), name

    def test_no_submodule_exported(self):
        assert not [n for n in memroll.__all__ if isinstance(getattr(memroll, n), ModuleType)]
        assert inspect.isfunction(memroll.compose)
        assert memroll.__version__ == "0.1.0"

    def test_defining_module_lists_each_export(self):
        sources = imported_from()
        assert set(sources) == EXPORTS - {"__version__"}
        for name, module in sources.items():
            assert name in importlib.import_module(f"memroll.{module}").__all__, (module, name)


class TestNameClash:
    """memroll.compose is the function, whichever import loads the submodule
    of that name first; importing a submodule binds it on the package."""

    @pytest.mark.parametrize(
        "first", ["import memroll.cli", "from memroll.compose import composite_from_tasks"]
    )
    def test_compose_stays_the_function(self, first):
        src = str(Path(memroll.__file__).resolve().parents[1])
        code = f"{first}\nimport inspect, memroll\nprint(inspect.isfunction(memroll.compose))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "True"
