"""cogfabric: message-intercepting cognitive middleware for agent swarms.

The package layers six concerns around every inter-agent message: active
memory with context injection, learned capability routing, semantic
grounding of entity references, layered security enforcement, prompt
transformation, and gossip synchronization across fabric nodes. The
``harness`` module drives all of it through deterministic, reproducible
simulation scenarios, and the ``cogfabric`` console script exposes those
scenarios on the command line.
"""

from cogfabric.ann import HnswIndex
from cogfabric.core import (
    DEFAULT_DIM,
    AgentProfile,
    DimensionMismatchError,
    Envelope,
    Explicit,
    FabricError,
    HashingEmbedder,
    Intent,
    Payload,
    TextAnalysis,
    ZeroVectorError,
    cosine_similarity,
    make_envelope,
)
from cogfabric.fabric import (
    DeploymentMode,
    FabricNode,
    InterceptResult,
    expected_propagation_rounds,
    gossip_tick,
    run_gossip,
)
from cogfabric.grounding import (
    TAU_SOFT,
    TAU_VALID,
    Ontology,
    Verdict,
    extract_entities,
    gate,
    ghost_check,
    ground,
    translate,
)
from cogfabric.harness import (
    SCENARIOS,
    CompareReport,
    ConfigError,
    MetricsReport,
    MismatchedSeedsError,
    ScenarioConfig,
    compare,
    load_config,
    run_scenario,
)
from cogfabric.memory import EntityStore, Manifest, MemoryRecord, MemoryStore
from cogfabric.security import (
    REDACTED,
    AttackScorer,
    Intervention,
    Rule,
    RuleKind,
    SecurityEngine,
    SecurityVerdict,
    train_attack_scorer,
)
from cogfabric.topology import RewardWeights, Router
from cogfabric.transform import TransformResult, Transformer, compute_loss

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DIM",
    "REDACTED",
    "SCENARIOS",
    "TAU_SOFT",
    "TAU_VALID",
    "AgentProfile",
    "AttackScorer",
    "CompareReport",
    "ConfigError",
    "DeploymentMode",
    "DimensionMismatchError",
    "EntityStore",
    "Envelope",
    "Explicit",
    "FabricError",
    "FabricNode",
    "HashingEmbedder",
    "HnswIndex",
    "Intent",
    "InterceptResult",
    "Intervention",
    "Manifest",
    "MemoryRecord",
    "MemoryStore",
    "MetricsReport",
    "MismatchedSeedsError",
    "Ontology",
    "Payload",
    "RewardWeights",
    "Router",
    "Rule",
    "RuleKind",
    "ScenarioConfig",
    "SecurityEngine",
    "SecurityVerdict",
    "TextAnalysis",
    "TransformResult",
    "Transformer",
    "Verdict",
    "ZeroVectorError",
    "compare",
    "compute_loss",
    "cosine_similarity",
    "expected_propagation_rounds",
    "extract_entities",
    "gate",
    "ghost_check",
    "gossip_tick",
    "ground",
    "load_config",
    "make_envelope",
    "run_gossip",
    "run_scenario",
    "train_attack_scorer",
    "translate",
    "__version__",
]
