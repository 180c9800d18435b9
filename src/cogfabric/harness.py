"""Seed-deterministic simulation scenarios over stub agent swarms.

A scenario config describes a closed world: stub agents (a skill line plus
Bernoulli success probabilities), the allowed communication edges, fabric
settings, and a task generator (templates rendered from an entity pool).
Episodes run through the full interception path; outcomes feed the router,
the loss accounting, and the ontology. A stub agent's success probability
jumps to its boosted value when the tokens its task requires actually appear
in the delivered payload, which is how transformation quality becomes
measurable: better context injection means more boosted draws.

Determinism: the seed fully pins a run. Task draws, outcome draws, routing
exploration, and gossip each use their own named stream, so paired runs of
the same task generator (fabric on versus off) see identical tasks and
identical outcome coin flips. Reports exclude wall-clock time and serialize
with sorted keys; two runs at the same seed are byte-identical. Episodes run
sequentially; order-dependent metrics like the regret curve rely on that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from random import Random
from string import Formatter
from typing import IO, Any

import yaml

from cogfabric.core import AgentProfile, FabricError, HashingEmbedder, make_envelope
from cogfabric.fabric import DeploymentMode, FabricNode, InterceptResult, run_gossip
from cogfabric.grounding import TAU_SOFT, TAU_VALID, TERM_STATUSES, extract_entities
from cogfabric.security import lexicon_matches
from cogfabric.topology import RewardWeights, Router
from cogfabric.transform import DEFAULT_LAMBDA, compute_loss


class ConfigError(ValueError):
    """Bad scenario configuration; the message names the offending field."""


class MismatchedSeedsError(FabricError):
    """Compared runs must share seed and task generator."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_AGENT_FIELDS = {"id", "skill", "success", "boosted", "cost", "latency", "arrival"}
_FABRIC_FIELDS = {
    "enabled",
    "mode",
    "epsilon",
    "epsilon_decay",
    "tau_valid",
    "tau_soft",
    "tau_edge",
    "reward_weights",
    "lambda",
    "token_budget",
    "retrieval_floor",
    "nodes",
}
_TASK_FIELDS = {"sender", "templates", "pool", "clarify", "memory", "ontology"}
_TOP_FIELDS = {"name", "seed", "episodes", "agents", "edges", "fabric", "tasks"}

_MODES = {m.value: m for m in DeploymentMode}

_SCENARIO_DIR = Path(__file__).parent / "scenarios"


@cache
def _packaged(name: str) -> dict:
    """The packaged file of scenario `name`, parsed once per process.

    Every caller shares the returned mapping, so nothing may mutate it.
    """
    path = _SCENARIO_DIR / f"{name.replace('-', '_')}.yaml"
    with open(path, encoding="utf-8") as fp:
        return yaml.safe_load(fp)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _no_unknown(given: Any, allowed: set, where: str) -> None:
    unknown = set(given) - allowed
    if unknown:
        suffix = f" in {where}" if where else ""
        raise ConfigError(f"unknown field {sorted(unknown)[0]!r}{suffix}")


def _probability(value: Any, where: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{where} must be a number",
    )
    _require(0.0 <= value <= 1.0, f"{where} must be in [0, 1]")
    return float(value)


@dataclass(frozen=True)
class AgentSpec:
    """One stub agent: a skill line and a success model.

    `success` is the base Bernoulli probability; when the episode's task
    carries required tokens and all of them appear in the delivered payload,
    `boosted` is used instead. `arrival` delays registration until that
    episode, modeling an agent that joins a running swarm.
    """

    id: str
    skill: str
    success: float = 0.5
    boosted: float | None = None
    cost: float = 0.0
    latency: tuple[float, float] = (0.0, 0.0)
    arrival: int = 0

    @classmethod
    def from_mapping(cls, data: Any, index: int) -> "AgentSpec":
        where = f"agents[{index}]"
        _require(isinstance(data, dict), f"{where} must be a mapping")
        _no_unknown(data, _AGENT_FIELDS, where)
        _require(
            isinstance(data.get("id"), str) and data["id"],
            f"{where} needs a non-empty string 'id'",
        )
        _require(
            isinstance(data.get("skill"), str) and data["skill"],
            f"{where} needs a non-empty string 'skill'",
        )
        success = _probability(data.get("success", 0.5), f"{where}.success")
        boosted = data.get("boosted")
        if boosted is not None:
            boosted = _probability(boosted, f"{where}.boosted")
        cost = data.get("cost", 0.0)
        _require(
            isinstance(cost, (int, float)) and cost >= 0,
            f"{where}.cost must be a non-negative number",
        )
        raw_latency = data.get("latency", 0.0)
        if isinstance(raw_latency, (int, float)) and not isinstance(raw_latency, bool):
            latency = (float(raw_latency), float(raw_latency))
        elif (
            isinstance(raw_latency, (list, tuple))
            and len(raw_latency) == 2
            and all(isinstance(x, (int, float)) for x in raw_latency)
        ):
            latency = (float(raw_latency[0]), float(raw_latency[1]))
        else:
            raise ConfigError(f"{where}.latency must be a number or a [low, high] pair")
        _require(
            0 <= latency[0] <= latency[1], f"{where}.latency range must be ordered"
        )
        arrival = data.get("arrival", 0)
        _require(
            isinstance(arrival, int) and not isinstance(arrival, bool) and arrival >= 0,
            f"{where}.arrival must be a non-negative integer",
        )
        return cls(
            id=data["id"],
            skill=data["skill"],
            success=success,
            boosted=boosted,
            cost=float(cost),
            latency=latency,
            arrival=arrival,
        )


@dataclass(frozen=True)
class FabricSettings:
    """Fabric-side knobs for a scenario run.

    `enabled: false` turns the run into a direct-delivery baseline: messages
    reach their receiver unmodified, with no injection, gating, security, or
    translation. Routing still runs so paired comparisons pick the same
    receivers.
    """

    enabled: bool = True
    mode: str = "sidecar"
    epsilon: float = 0.1
    epsilon_decay: float = 1.0
    tau_valid: float = TAU_VALID
    tau_soft: float = TAU_SOFT
    tau_edge: float = 2.0
    reward_weights: tuple[float, float, float] = (1.0, 0.0, 0.0)
    loss_lambda: float = DEFAULT_LAMBDA
    token_budget: int = 64
    retrieval_floor: float = 0.25
    nodes: int = 1

    @classmethod
    def from_mapping(cls, data: Any) -> "FabricSettings":
        _require(isinstance(data, dict), "'fabric' must be a mapping")
        _no_unknown(data, _FABRIC_FIELDS, "'fabric'")
        enabled = data.get("enabled", True)
        _require(isinstance(enabled, bool), "fabric.enabled must be a boolean")
        mode = data.get("mode", "sidecar")
        _require(mode in _MODES, f"fabric.mode must be one of {sorted(_MODES)}")
        epsilon = _probability(data.get("epsilon", 0.1), "fabric.epsilon")
        decay = data.get("epsilon_decay", 1.0)
        _require(
            isinstance(decay, (int, float)) and 0.0 < decay <= 1.0,
            "fabric.epsilon_decay must be in (0, 1]",
        )
        tau_valid = _probability(data.get("tau_valid", TAU_VALID), "fabric.tau_valid")
        tau_soft = _probability(data.get("tau_soft", TAU_SOFT), "fabric.tau_soft")
        _require(tau_soft <= tau_valid, "fabric.tau_soft must not exceed tau_valid")
        tau_edge = data.get("tau_edge", 2.0)
        _require(
            isinstance(tau_edge, (int, float)) and tau_edge >= 0,
            "fabric.tau_edge must be a non-negative number",
        )
        weights = data.get("reward_weights", [1.0, 0.0, 0.0])
        _require(
            isinstance(weights, (list, tuple))
            and len(weights) == 3
            and all(isinstance(w, (int, float)) for w in weights),
            "fabric.reward_weights must be three numbers",
        )
        lam = data.get("lambda", DEFAULT_LAMBDA)
        _require(
            isinstance(lam, (int, float)) and lam >= 0,
            "fabric.lambda must be a non-negative number",
        )
        budget = data.get("token_budget", 64)
        _require(
            isinstance(budget, int) and not isinstance(budget, bool) and budget >= 0,
            "fabric.token_budget must be a non-negative integer",
        )
        floor = _probability(
            data.get("retrieval_floor", 0.25), "fabric.retrieval_floor"
        )
        nodes = data.get("nodes", 1)
        _require(
            isinstance(nodes, int) and not isinstance(nodes, bool) and nodes >= 1,
            "fabric.nodes must be a positive integer",
        )
        return cls(
            enabled=enabled,
            mode=mode,
            epsilon=epsilon,
            epsilon_decay=float(decay),
            tau_valid=tau_valid,
            tau_soft=tau_soft,
            tau_edge=float(tau_edge),
            reward_weights=tuple(float(w) for w in weights),
            loss_lambda=float(lam),
            token_budget=budget,
            retrieval_floor=floor,
            nodes=nodes,
        )


def _template_fields(template: str, where: str) -> set[str]:
    try:
        parsed = list(Formatter().parse(template))
    except ValueError as err:
        raise ConfigError(f"{where} is not a valid template: {err}") from None
    fields = set()
    for _, name, _, _ in parsed:
        if name is None:
            continue
        _require(name.isidentifier(), f"{where} placeholders must be simple names")
        fields.add(name)
    return fields


@dataclass(frozen=True)
class TaskSpec:
    """Task generator: templates rendered from rows of an entity pool.

    Each episode draws one pool row and one template. A row's optional
    `requires` entry lists the tokens the receiving agent needs to see in the
    payload for its boosted success probability to apply. `memory` lines are
    preloaded into the node's store and `ontology` rows seed known terms.
    `clarify` is an optional follow-up template; on a failed episode the
    receiver sends it back to the task sender (and the episode stays failed,
    there is no retry).
    """

    sender: str = "user"
    templates: tuple[str, ...] = ()
    pool: tuple[dict, ...] = ()
    clarify: str | None = None
    memory: tuple[str, ...] = ()
    ontology: tuple[tuple[str, float, str], ...] = ()

    @classmethod
    def from_mapping(cls, data: Any) -> "TaskSpec":
        _require(isinstance(data, dict), "'tasks' must be a mapping")
        _no_unknown(data, _TASK_FIELDS, "'tasks'")
        sender = data.get("sender", "user")
        _require(
            isinstance(sender, str) and bool(sender),
            "tasks.sender must be a non-empty string",
        )
        templates = data.get("templates")
        _require(
            isinstance(templates, (list, tuple))
            and bool(templates)
            and all(isinstance(t, str) and t for t in templates),
            "tasks.templates must be a non-empty list of strings",
        )
        raw_pool = data.get("pool", [{}])
        _require(
            isinstance(raw_pool, (list, tuple)) and bool(raw_pool),
            "tasks.pool must be a non-empty list of mappings",
        )
        pool = []
        for i, row in enumerate(raw_pool):
            _require(isinstance(row, dict), f"tasks.pool[{i}] must be a mapping")
            clean: dict = {}
            for key, value in row.items():
                _require(
                    isinstance(key, str) and key.isidentifier(),
                    f"tasks.pool[{i}] keys must be simple names",
                )
                if key == "requires":
                    if isinstance(value, str):
                        value = [value]
                    _require(
                        isinstance(value, (list, tuple))
                        and all(isinstance(v, str) and v for v in value),
                        f"tasks.pool[{i}].requires must be a token or list of tokens",
                    )
                    clean[key] = tuple(value)
                else:
                    _require(
                        isinstance(value, (str, int)) and not isinstance(value, bool),
                        f"tasks.pool[{i}].{key} must be a string or integer",
                    )
                    clean[key] = str(value)
            pool.append(clean)
        clarify = data.get("clarify")
        if clarify is not None:
            _require(
                isinstance(clarify, str) and bool(clarify),
                "tasks.clarify must be a non-empty string",
            )
        templates_to_check = list(templates) + ([clarify] if clarify else [])
        for t, template in enumerate(templates_to_check):
            where = (
                f"tasks.templates[{t}]" if t < len(templates) else "tasks.clarify"
            )
            needed = _template_fields(template, where)
            for row_i, row in enumerate(pool):
                missing = needed - (set(row) - {"requires"})
                if missing:
                    raise ConfigError(
                        f"tasks.pool[{row_i}] is missing placeholder "
                        f"{sorted(missing)[0]!r} used by {where}"
                    )
        memory = data.get("memory", [])
        _require(
            isinstance(memory, (list, tuple))
            and all(isinstance(m, str) and m for m in memory),
            "tasks.memory must be a list of strings",
        )
        raw_terms = data.get("ontology", [])
        _require(
            isinstance(raw_terms, (list, tuple)),
            "tasks.ontology must be a list of [term, validity, status] rows",
        )
        terms = []
        for i, row in enumerate(raw_terms):
            _require(
                isinstance(row, (list, tuple))
                and len(row) == 3
                and isinstance(row[0], str)
                and isinstance(row[1], (int, float))
                and row[2] in TERM_STATUSES,
                f"tasks.ontology[{i}] must be [term, validity, "
                "'temporary'|'permanent']",
            )
            terms.append((row[0], float(row[1]), row[2]))
        return cls(
            sender=sender,
            templates=tuple(templates),
            pool=tuple(pool),
            clarify=clarify,
            memory=tuple(memory),
            ontology=tuple(terms),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    episodes: int
    agents: tuple[AgentSpec, ...]
    edges: frozenset | None
    fabric: FabricSettings
    tasks: TaskSpec

    @classmethod
    def from_mapping(cls, data: Any) -> "ScenarioConfig":
        """Validate `data`; fields it leaves out come from the packaged file
        of the scenario it names, with `fabric` merged field by field."""
        _require(isinstance(data, dict), "scenario config must be a mapping")
        _no_unknown(data, _TOP_FIELDS, "")
        name = data.get("name")
        _require(isinstance(name, str) and bool(name), "missing field 'name'")
        if name not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
            )
        base = _packaged(name)
        seed = data.get("seed", base["seed"])
        _require(
            isinstance(seed, int) and not isinstance(seed, bool),
            "'seed' must be an integer",
        )
        episodes = data.get("episodes", base["episodes"])
        _require(
            isinstance(episodes, int)
            and not isinstance(episodes, bool)
            and episodes > 0,
            "'episodes' must be a positive integer",
        )
        raw_agents = data.get("agents", base["agents"])
        _require(
            isinstance(raw_agents, (list, tuple)) and bool(raw_agents),
            "'agents' must be a non-empty list",
        )
        agents = tuple(AgentSpec.from_mapping(a, i) for i, a in enumerate(raw_agents))
        ids = [a.id for a in agents]
        seen: set = set()
        for agent_id in ids:
            if agent_id in seen:
                raise ConfigError(f"duplicate agent id {agent_id!r}")
            seen.add(agent_id)
        _require(
            any(a.arrival == 0 for a in agents),
            "at least one agent must have 'arrival' 0, or episode 0 has no receiver",
        )
        raw_edges = data.get("edges", base.get("edges"))
        edges = None
        if raw_edges is not None:
            _require(
                isinstance(raw_edges, (list, tuple))
                and all(
                    isinstance(e, (list, tuple))
                    and len(e) == 2
                    and all(isinstance(x, str) for x in e)
                    for e in raw_edges
                ),
                "'edges' must be a list of [sender, receiver] pairs",
            )
            edges = frozenset((e[0], e[1]) for e in raw_edges)
        raw_fabric = data.get("fabric", {})
        _require(isinstance(raw_fabric, dict), "'fabric' must be a mapping")
        fabric = FabricSettings.from_mapping({**base.get("fabric", {}), **raw_fabric})
        tasks = TaskSpec.from_mapping(data.get("tasks", base["tasks"]))
        return cls(
            name=name,
            seed=seed,
            episodes=episodes,
            agents=agents,
            edges=edges,
            fabric=fabric,
            tasks=tasks,
        )


def load_config(source: IO[str] | str) -> ScenarioConfig:
    """Read one scenario config from YAML (a path or an open stream)."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fp:
            data = yaml.safe_load(fp)
    else:
        data = yaml.safe_load(source)
    return ScenarioConfig.from_mapping(data if data is not None else {})


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

_VERDICT_KEYS = ("pass", "align", "reject")
_INTERVENTION_KEYS = ("none", "block", "redact", "neutralize", "alert")
_TAIL_WINDOW = 500


@dataclass
class MetricsReport:
    scenario: str
    seed: int
    episodes: int
    messages_total: int = 0
    delivered: int = 0
    rejected: int = 0
    completed: int = 0
    success_rate: float = 0.0
    mean_reward: float = 0.0
    selection_shares: dict = field(default_factory=dict)
    regret_curve: list = field(default_factory=list)
    verdict_counts: dict = field(default_factory=dict)
    intervention_counts: dict = field(default_factory=dict)
    lexicon_hits: dict = field(default_factory=dict)
    loss_mean: float = 0.0
    latency_total: float = 0.0
    latency_mean: float = 0.0
    latency_breakdown: dict = field(default_factory=dict)
    gossip_rounds: int | None = None
    messages_per_completed: float | None = None
    extras: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    records: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        """Everything except per-episode records, which stay runtime-only."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "episodes": self.episodes,
            "messages_total": self.messages_total,
            "delivered": self.delivered,
            "rejected": self.rejected,
            "completed": self.completed,
            "success_rate": self.success_rate,
            "mean_reward": self.mean_reward,
            "selection_shares": self.selection_shares,
            "regret_curve": self.regret_curve,
            "verdict_counts": self.verdict_counts,
            "intervention_counts": self.intervention_counts,
            "lexicon_hits": self.lexicon_hits,
            "loss_mean": self.loss_mean,
            "latency_total": self.latency_total,
            "latency_mean": self.latency_mean,
            "latency_breakdown": self.latency_breakdown,
            "gossip_rounds": self.gossip_rounds,
            "messages_per_completed": self.messages_per_completed,
            "extras": self.extras,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = [
            f"scenario            {self.scenario}",
            f"seed                {self.seed}",
            f"episodes            {self.episodes}",
            f"messages            {self.messages_total} "
            f"({self.delivered} delivered, {self.rejected} rejected)",
            f"completed           {self.completed}",
            f"success rate        {self.success_rate:.3f}",
            f"mean reward         {self.mean_reward:.3f}",
            f"mean loss           {self.loss_mean:.3f}",
            f"mean latency        {self.latency_mean:.3f}",
        ]
        if self.messages_per_completed is not None:
            lines.append(f"msgs per completed  {self.messages_per_completed:.3f}")
        if self.gossip_rounds is not None:
            lines.append(f"gossip rounds       {self.gossip_rounds}")
        if self.selection_shares:
            shares = ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(self.selection_shares.items())
            )
            lines.append(f"selection shares    {shares}")
        verdicts = ", ".join(
            f"{k}={self.verdict_counts.get(k, 0)}" for k in _VERDICT_KEYS
        )
        lines.append(f"grounding verdicts  {verdicts}")
        ivs = ", ".join(
            f"{k}={self.intervention_counts.get(k, 0)}" for k in _INTERVENTION_KEYS
        )
        lines.append(f"interventions       {ivs}")
        if self.lexicon_hits:
            hits = ", ".join(f"{k}={v}" for k, v in sorted(self.lexicon_hits.items()))
            lines.append(f"lexicon hits        {hits}")
        for k, v in sorted(self.extras.items()):
            lines.append(f"{k:<19} {v:.3f}")
        for name, ok in sorted(self.checks.items()):
            lines.append(f"check {name:<22} {'PASS' if ok else 'FAIL'}")
        return lines


class _Collector:
    """Message-level counters shared by every scenario driver."""

    def __init__(self) -> None:
        self.messages = 0
        self.delivered = 0
        self.rejected = 0
        self.verdicts = {k: 0 for k in _VERDICT_KEYS}
        self.interventions = {k: 0 for k in _INTERVENTION_KEYS}
        self.lexicon: dict = {}
        self.l_net = 0.0
        self.l_inference = 0.0
        self.l_memory = 0.0
        self.losses: list = []

    def _count_lexicon(self, text: str) -> None:
        for cls in lexicon_matches(text):
            self.lexicon[cls] = self.lexicon.get(cls, 0) + 1

    def observe(self, text: str, result: InterceptResult) -> None:
        self.messages += 1
        if result.delivered:
            self.delivered += 1
        else:
            self.rejected += 1
        if result.grounding is not None:
            self.verdicts[result.grounding.verdict.value] += 1
        security = result.security
        if security is not None and security.intervention is not None:
            self.interventions[security.intervention.value] += 1
        else:
            self.interventions["none"] += 1
        self._count_lexicon(text)
        self.l_net += result.latency.l_net
        self.l_inference += result.latency.l_inference
        self.l_memory += result.latency.l_memory_lookup

    def observe_direct(self, text: str) -> None:
        """A baseline delivery: one network hop, nothing else touched."""
        self.messages += 1
        self.delivered += 1
        self.interventions["none"] += 1
        self._count_lexicon(text)
        self.l_net += 1.0

    def fill(self, report: MetricsReport) -> None:
        report.messages_total = self.messages
        report.delivered = self.delivered
        report.rejected = self.rejected
        report.verdict_counts = dict(self.verdicts)
        report.intervention_counts = dict(self.interventions)
        report.lexicon_hits = dict(sorted(self.lexicon.items()))
        total = self.l_net + self.l_inference + self.l_memory
        report.latency_total = total
        report.latency_mean = total / self.messages if self.messages else 0.0
        report.latency_breakdown = {
            "l_net": self.l_net,
            "l_inference": self.l_inference,
            "l_memory_lookup": self.l_memory,
        }
        if self.losses:
            report.loss_mean = sum(self.losses) / len(self.losses)


# ---------------------------------------------------------------------------
# The episode loop and the hop plans it runs
# ---------------------------------------------------------------------------

def _build_node(config: ScenarioConfig, embedder: HashingEmbedder) -> FabricNode:
    fs = config.fabric
    router = Router(embedder, reward_weights=RewardWeights(*fs.reward_weights))
    node = FabricNode(
        "sim-0",
        mode=_MODES[fs.mode],
        embedder=embedder,
        router=router,
        allowed_edges=set(config.edges) if config.edges is not None else None,
        epsilon=fs.epsilon,
        tau_edge=fs.tau_edge,
        tau_valid=fs.tau_valid,
        tau_soft=fs.tau_soft,
        token_budget=fs.token_budget,
        retrieval_floor=fs.retrieval_floor,
        seed=config.seed,
    )
    for line in config.tasks.memory:
        node.memory.add(line)
    for term, validity, status in config.tasks.ontology:
        node.ontology.add_term(term, validity=validity, status=status)
    return node


def _sync_peers(
    config: ScenarioConfig, node: FabricNode, embedder: HashingEmbedder
) -> int | None:
    """Optional multi-node variant: share seeded terms, report convergence."""
    if config.fabric.nodes <= 1:
        return None
    peers = [
        FabricNode(f"sim-{i}", embedder=embedder)
        for i in range(1, config.fabric.nodes)
    ]
    for term, validity, status in config.tasks.ontology:
        node.publish_term(term, validity, status)
    return run_gossip([node, *peers], Random(config.seed + 2), beta=3)


def _render(template: str, row: dict) -> str:
    return template.format(**{k: v for k, v in row.items() if k != "requires"})


def _effective_p(spec: AgentSpec, requires: tuple, payload_text: str | None) -> float:
    if (
        spec.boosted is not None
        and requires
        and payload_text is not None
        and all(token in payload_text for token in requires)
    ):
        return spec.boosted
    return spec.success


def _ceiling_p(spec: AgentSpec) -> float:
    return spec.boosted if spec.boosted is not None else spec.success


def _tokens_added(result: InterceptResult) -> int:
    return result.transform.tokens_added if result.transform else 0


class _Run:
    """One run's world: the node, its peers, the counters, one way to send."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.embedder = HashingEmbedder()
        self.node = _build_node(config, self.embedder)
        self.gossip_rounds = _sync_peers(config, self.node, self.embedder)
        self.outcome_rng = Random(config.seed + 1)
        self.collector = _Collector()

    def send(
        self,
        sender: str,
        text: str,
        *,
        to: str | None = None,
        intent: str | None = None,
    ) -> InterceptResult:
        """Deliver one hop: through the fabric, or directly when it is off.

        A direct delivery hands the text over unmodified and unchecked; an
        intent still goes through the router, as the fabric would route it.
        """
        node = self.node
        if self.config.fabric.enabled:
            result = node.intercept(make_envelope(sender, text, to=to, intent=intent))
            self.collector.observe(text, result)
            return result
        if to is None:
            task = self.embedder.embed(intent)
            to = node.router.dispatch(task, node.epsilon, node.rng)
        self.collector.observe_direct(text)
        return InterceptResult(delivered=True, receiver=to, text=text)


@dataclass(frozen=True)
class _Step:
    """What one episode's hop plan hands back to the loop."""

    success: bool
    p_eff: float  # the task's success probability; 0 when it was not delivered
    p_best: float  # the best probability on offer this episode, for regret
    reward: float
    tokens_added: int
    learned_from: str | None  # text whose entities update the ontology
    record: dict  # the episode record's fields besides episode and success


class _Routed:
    """Hop plan of bandit-5arm, expert-discovery and entity-swarm.

    Agents register at their arrival episode and exploration decays. The task
    goes out by intent, so the router picks the receiver, and the outcome
    feeds the router back. A failed task sends the optional clarify question
    back to the task sender; the episode stays failed, there is no retry.
    """

    def __init__(self, run: _Run) -> None:
        self.run = run
        agents = run.config.agents
        self.by_id = {a.id: a for a in agents}
        self.pending = sorted(agents, key=lambda a: (a.arrival, a.id))
        self.tail_start = max(0, run.config.episodes - _TAIL_WINDOW)
        self.counts: dict = {}
        self.tail: list = []
        self.informed = 0

    def play(self, ep: int, row: dict, text: str, u_outcome: float) -> _Step:
        run, node, config = self.run, self.run.node, self.run.config
        fs = config.fabric
        while self.pending and self.pending[0].arrival <= ep:
            spec = self.pending.pop(0)
            node.router.register_agent(
                AgentProfile.from_skill(run.embedder, spec.id, spec.skill),
                cost=spec.cost,
            )
        node.epsilon = fs.epsilon * fs.epsilon_decay**ep
        requires = row.get("requires", ())
        result = run.send(config.tasks.sender, text, intent=text)
        receiver, payload_text = result.receiver, result.text
        spec = self.by_id[receiver] if receiver is not None else None
        p_eff = _effective_p(spec, requires, payload_text) if result.delivered else 0.0
        if (
            requires
            and payload_text is not None
            and all(t in payload_text for t in requires)
        ):
            self.informed += 1
        success = u_outcome < p_eff
        reward = 0.0
        if result.delivered and spec is not None:
            lo, hi = spec.latency
            agent_latency = run.outcome_rng.uniform(lo, hi) if hi > lo else lo
            reward, _ = node.router.record_outcome(
                receiver,
                run.embedder.embed(text),
                success=success,
                cost=spec.cost,
                latency=agent_latency,
            )
        if receiver is not None:
            self.counts[receiver] = self.counts.get(receiver, 0) + 1
            if ep >= self.tail_start:
                self.tail.append(receiver)
        if not success and config.tasks.clarify is not None and receiver is not None:
            question = _render(config.tasks.clarify, row)
            run.send(receiver, question, to=config.tasks.sender)
        return _Step(
            success=success,
            p_eff=p_eff,
            p_best=max(_ceiling_p(a) for a in config.agents if a.arrival <= ep),
            reward=reward,
            tokens_added=_tokens_added(result),
            learned_from=payload_text,
            record={"agent": receiver, "reward": reward},
        )

    def finish(self, report: MetricsReport) -> None:
        config = self.run.config
        report.selection_shares = {
            a.id: self.counts.get(a.id, 0) / config.episodes for a in config.agents
        }
        curve = report.regret_curve
        half = config.episodes // 2
        first_half = curve[half - 1] if half else 0.0
        best_agent = max(config.agents, key=lambda a: (_ceiling_p(a), a.id)).id
        tail_share = self.tail.count(best_agent) / len(self.tail) if self.tail else 0.0
        report.extras = {
            "regret_first_half": first_half,
            "regret_second_half": curve[-1] - first_half,
            f"tail_share_{best_agent}": tail_share,
        }
        if any(row.get("requires") for row in config.tasks.pool):
            report.extras["informed_rate"] = self.informed / config.episodes
        report.checks = _routed_checks(config, report, tail_share)


def _routed_checks(
    config: ScenarioConfig, report: MetricsReport, tail_share: float
) -> dict:
    checks: dict = {}
    if config.name == "bandit-5arm":
        checks["best-arm-share"] = tail_share >= 0.85
        checks["regret-flattens"] = (
            report.extras["regret_second_half"]
            < 0.6 * report.extras["regret_first_half"]
        )
    elif config.name == "expert-discovery":
        checks["newcomer-share"] = tail_share >= 0.6
    elif config.name == "entity-swarm" and config.fabric.enabled:
        checks["context-injected"] = report.extras.get("informed_rate", 0.0) >= 0.9
    return checks


class _Relay:
    """Hop plan of hotpot-like: a two-hop evidence hand-off.

    The first four agents act as researcher, analyst, critic, and
    synthesizer. Each episode relays one question researcher -> analyst ->
    synthesizer; the synthesizer succeeds only when both required fact tokens
    made it into its payload. One forbidden edge is probed per episode to
    confirm the graph is enforced.
    """

    def __init__(self, run: _Run) -> None:
        agents = run.config.agents
        _require(len(agents) >= 4, "hotpot-like needs at least four agents")
        self.run = run
        self.researcher, self.analyst, _critic, self.synthesizer = agents[:4]
        self.edge_rejections = 0

    def play(self, ep: int, row: dict, text: str, u_outcome: float) -> _Step:
        send = self.run.send
        researcher, analyst = self.researcher.id, self.analyst.id
        synthesizer = self.synthesizer.id
        send(researcher, text, to=analyst)
        hop2 = send(analyst, text, to=synthesizer)
        probe = send(synthesizer, "status?", to=analyst)
        if not probe.delivered and probe.reason == "edge-not-allowed":
            self.edge_rejections += 1
        p_eff = (
            _effective_p(self.synthesizer, row.get("requires", ()), hop2.text)
            if hop2.delivered
            else 0.0
        )
        success = u_outcome < p_eff
        return _Step(
            success=success,
            p_eff=p_eff,
            p_best=_ceiling_p(self.synthesizer),
            reward=1.0 if success else 0.0,
            tokens_added=_tokens_added(hop2),
            learned_from=text,
            record={"question": row.get("artifact")},
        )

    def finish(self, report: MetricsReport) -> None:
        config = self.run.config
        report.extras = {"edge_rejections": float(self.edge_rejections)}
        if config.fabric.enabled:  # both checks are properties of the fabric
            report.checks = {
                "multi-hop-success": report.success_rate >= 0.9,
                "edge-enforcement": self.edge_rejections == config.episodes,
            }


@dataclass(frozen=True)
class ScenarioSpec:
    plan: type[_Routed] | type[_Relay]
    description: str


SCENARIOS: dict[str, ScenarioSpec] = {
    "bandit-5arm": ScenarioSpec(
        plan=_Routed,
        description="five interchangeable arms, one clearly best; decaying exploration",
    ),
    "expert-discovery": ScenarioSpec(
        plan=_Routed,
        description="a stronger specialist joins mid-run and should take over traffic",
    ),
    "hotpot-like": ScenarioSpec(
        plan=_Relay,
        description="two-hop evidence hand-off over an enforced four-agent graph",
    ),
    "entity-swarm": ScenarioSpec(
        plan=_Routed,
        description="vague incident tasks that succeed only with injected context",
    ),
}


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    """Run every episode of a scenario; the one loop all scenarios share.

    Each episode draws a pool row and then a template from the task stream,
    and one number from the outcome stream. The scenario's hop plan sends
    the messages and returns what happened; the loop keeps the books.
    """
    run = _Run(config)
    plan = SCENARIOS[config.name].plan(run)
    task_rng = Random(config.seed)
    pool, templates = config.tasks.pool, config.tasks.templates
    rewards: list = []
    curve: list = []
    records: list = []
    regret = 0.0
    completed = 0
    for ep in range(config.episodes):
        row = pool[task_rng.randrange(len(pool))]
        text = _render(templates[task_rng.randrange(len(templates))], row)
        step = plan.play(ep, row, text, run.outcome_rng.random())
        if step.success:
            completed += 1
        regret += step.p_best - step.p_eff
        curve.append(regret)
        rewards.append(step.reward)
        run.collector.losses.append(
            compute_loss(step.reward, step.tokens_added, config.fabric.loss_lambda)
        )
        if step.learned_from is not None:
            terms = extract_entities(step.learned_from)
            if terms:
                run.node.ontology.update([(terms, step.success)])
        records.append({"episode": ep, "success": step.success, **step.record})
    report = MetricsReport(
        scenario=config.name, seed=config.seed, episodes=config.episodes
    )
    run.collector.fill(report)
    report.completed = completed
    report.success_rate = completed / config.episodes
    report.mean_reward = sum(rewards) / len(rewards)
    report.regret_curve = curve
    report.gossip_rounds = run.gossip_rounds
    report.messages_per_completed = (
        run.collector.messages / completed if completed else None
    )
    report.records = records
    plan.finish(report)
    return report


# ---------------------------------------------------------------------------
# Paired comparison
# ---------------------------------------------------------------------------

@dataclass
class CompareReport:
    baseline: MetricsReport
    candidate: MetricsReport
    deltas: dict

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "candidate": self.candidate.to_dict(),
            "deltas": self.deltas,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = [
            f"scenario            {self.baseline.scenario} "
            f"(seed {self.baseline.seed})",
            f"baseline success    {self.baseline.success_rate:.3f}",
            f"candidate success   {self.candidate.success_rate:.3f}",
        ]
        for k, v in sorted(self.deltas.items()):
            lines.append(f"delta {k:<22} {v:+.3f}")
        return lines


def compare(baseline: ScenarioConfig, candidate: ScenarioConfig) -> CompareReport:
    """Run two configs against the identical task stream and diff the metrics.

    Deltas are candidate minus baseline. Both configs must share the seed and
    the task generator, otherwise the runs would not be paired and the deltas
    would be noise.
    """
    if baseline.seed != candidate.seed:
        raise MismatchedSeedsError(
            f"seeds differ ({baseline.seed} vs {candidate.seed}); "
            "paired runs need equal seeds"
        )
    if (
        baseline.name != candidate.name
        or baseline.episodes != candidate.episodes
        or baseline.tasks != candidate.tasks
    ):
        raise MismatchedSeedsError(
            "task streams differ; compared runs need the same scenario, "
            "episode count, and task generator"
        )
    first = run_scenario(baseline)
    second = run_scenario(candidate)
    deltas = {
        "success_rate": second.success_rate - first.success_rate,
        "mean_reward": second.mean_reward - first.mean_reward,
        "loss_mean": second.loss_mean - first.loss_mean,
        "latency_mean": second.latency_mean - first.latency_mean,
    }
    if (
        first.messages_per_completed is not None
        and second.messages_per_completed is not None
    ):
        deltas["messages_per_completed"] = (
            second.messages_per_completed - first.messages_per_completed
        )
    return CompareReport(baseline=first, candidate=second, deltas=deltas)
