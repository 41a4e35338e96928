"""Constant-memory multi-turn agent rollouts with consolidation-style contexts.

The package runs tagged reasoning/query/answer episodes against pluggable
policies and environments, keeps the context bounded by carrying at most one
consolidated state forward per turn, composes single-objective tasks into
multi-objective prompts, scores accuracy and efficiency, and exports stitched
token sequences with the attention and loss masks training needs.
"""

from types import ModuleType as _ModuleType

from .core import (
    ConfigError,
    DataError,
    DEFAULT_COUNTER,
    ENV_KINDS,
    IntegrityError,
    PAPER_BODY,
    PRESETS,
    PROMPT_STYLE,
    RolloutConfig,
    TagPreset,
    Task,
    TokenCounter,
    ValidationError,
    WordTokenizer,
    config_from_mapping,
    default_max_turns,
    load_config,
    rename_tags,
    segment_text,
)
from .tagparse import (
    Action,
    Answer,
    Invalid,
    ParsedTurn,
    Query,
    Span,
    parse_turn,
    render_turn,
    split_answers,
)
from .context import (
    ContextState,
    HINT_TEMPLATE,
    advance,
    context_token_len,
    initial_state,
    inject_hint,
    render_context,
)
from .envs import (
    Corpus,
    Doc,
    Environment,
    HttpSearchEnv,
    Observation,
    Product,
    RetrievalEnv,
    ScriptedEnv,
    ShopEnv,
    ShopGoal,
    ShopSim,
    ShopState,
    load_catalog,
    render_passages,
    retrieve,
)
from .compose import (
    CompositeTask,
    compose,
    composite_from_dict,
    composite_from_tasks,
    gold_of,
    load_composites,
    load_dataset,
    write_composites,
)
from .rollout import (
    Generation,
    HttpPolicy,
    PolicyBackend,
    RolloutError,
    ScriptedPolicy,
    TrajectoryRecord,
    TurnRecord,
    replay_contexts,
    run_batch,
    run_rollout,
)
from .metrics import (
    MetricReport,
    aggregate,
    dependency,
    em_reward,
    exact_match,
    f1,
    f1_single,
    normalize_answer,
    peak_tokens,
    score_trajectory,
    valid_action_ratio,
)
from .masks import (
    Mask1D,
    Mask2D,
    SEGMENT_CODES,
    SEGMENT_NAMES,
    StitchedTrajectory,
    build_masks,
    export_masks,
    import_masks,
    stitch,
    verify_masks,
    visible_tokens,
)

__version__ = "0.1.0"

# The import blocks above are the export list: every public name they bind,
# less the submodules that importing binds as a side effect.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
