"""The package's export list: derived from its imports, pinned here."""

from __future__ import annotations

import ast
import importlib
import inspect
from types import ModuleType

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
    """Each name the package imports, mapped to the submodule it comes from."""
    tree = ast.parse(inspect.getsource(memroll))
    return {
        alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


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
