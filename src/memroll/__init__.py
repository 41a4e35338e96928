"""Constant-memory multi-turn agent rollouts with consolidation-style contexts.

The package runs tagged reasoning/query/answer episodes against pluggable
policies and environments, keeps the context bounded by carrying at most one
consolidated state forward per turn, composes single-objective tasks into
multi-objective prompts, scores accuracy and efficiency, and exports stitched
token sequences with the attention and loss masks training needs.

``import memroll`` loads none of its submodules: each name below is imported
from its submodule on first access (PEP 562), so a program pays only for the
parts it uses.
"""

import importlib as _importlib
import sys as _sys
from types import ModuleType as _ModuleType

# The export list, by the submodule that defines each name.
_EXPORTS = {
    "core": (
        "ConfigError", "DataError", "DEFAULT_COUNTER", "ENV_KINDS", "IntegrityError",
        "PAPER_BODY", "PRESETS", "PROMPT_STYLE", "RolloutConfig", "TagPreset", "Task",
        "TokenCounter", "ValidationError", "WordTokenizer", "config_from_mapping",
        "default_max_turns", "load_config", "rename_tags", "segment_text",
    ),
    "tagparse": (
        "Action", "Answer", "Invalid", "ParsedTurn", "Query", "Span", "parse_turn",
        "render_turn", "split_answers",
    ),
    "context": (
        "ContextState", "HINT_TEMPLATE", "advance", "initial_state", "inject_hint",
        "render_context",
    ),
    "envs": (
        "Corpus", "Doc", "Environment", "HttpSearchEnv", "Observation", "RetrievalEnv",
        "ScriptedEnv", "render_passages", "retrieve",
    ),
    "shop": ("Product", "ShopEnv", "ShopGoal", "ShopSim", "ShopState", "load_catalog"),
    "compose": (
        "CompositeTask", "compose", "composite_from_dict", "composite_from_tasks", "gold_of",
        "load_composites", "load_dataset", "write_composites",
    ),
    "archive": ("Generation", "TrajectoryRecord", "TurnRecord"),
    "rollout": (
        "HttpPolicy", "PolicyBackend", "RolloutError", "ScriptedPolicy", "replay_contexts",
        "run_batch", "run_rollout",
    ),
    "metrics": (
        "MetricReport", "aggregate", "dependency", "em_reward", "exact_match", "f1",
        "f1_single", "normalize_answer", "peak_tokens", "score_trajectory",
        "valid_action_ratio",
    ),
    "masks": (
        "Mask1D", "Mask2D", "SEGMENT_CODES", "SEGMENT_NAMES", "StitchedTrajectory",
        "build_masks", "export_masks", "import_masks", "stitch", "verify_masks",
        "visible_tokens",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(_importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:  # a submodule, bound here once imported
        return _importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(_ModuleType):
    # Importing a submodule binds it on its package under its own name. For
    # memroll.compose that name is also an export, the function, which keeps
    # it: whichever import loads the submodule first, memroll.compose stays
    # the function.
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, _ModuleType) and name in _SOURCE:
            value = getattr(value, name)
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
