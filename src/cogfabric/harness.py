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
import math
import sys
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from random import Random
from string import Formatter
from typing import IO, Any

import yaml

from cogfabric.core import (
    AgentProfile,
    FabricError,
    HashingEmbedder,
    TextAnalysis,
    analysis_of,
    make_envelope,
)
from cogfabric.fabric import (
    DEFAULT_EPSILON,
    DEFAULT_TAU_EDGE,
    DeploymentMode,
    FabricNode,
    InterceptResult,
    LatencyTrace,
    run_gossip,
)
from cogfabric.grounding import TAU_SOFT, TAU_VALID, TERM_STATUSES, extract_entities
from cogfabric.security import lexicon_matches
from cogfabric.topology import RewardWeights, Router
from cogfabric.transform import (
    DEFAULT_LAMBDA,
    DEFAULT_RETRIEVAL_FLOOR,
    DEFAULT_TOKEN_BUDGET,
    compute_loss,
)


class ConfigError(ValueError):
    """Bad scenario configuration; the message names the offending field."""


class MismatchedSeedsError(FabricError):
    """Compared runs must share seed and task generator."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_MODES = {m.value: m for m in DeploymentMode}

_SCENARIO_DIR = Path(__file__).parent / "scenarios"

# the YAML key of each field whose key is not its name
_YAML_KEYS = {"loss_lambda": "lambda"}


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


# A check takes a YAML value and the name of its field, raises ConfigError
# naming that field if the value is bad, and returns what the config holds.
# Checks build a message only when they raise: they run on every list entry.
_Check = Callable[[Any, str], Any]


def _number(
    value: Any, where: str, lo: float = -math.inf, hi: float = math.inf
) -> float:
    """A finite number in [lo, hi]; a boolean is not a number."""
    if not (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        # finite, and no integer too large for a float
        and -sys.float_info.max <= value <= sys.float_info.max
        and lo <= value <= hi
    ):
        raise ConfigError(f"{where} must be a finite number in [{lo:g}, {hi:g}]")
    return float(value)


def _integer(value: Any, where: str, lo: float = -math.inf) -> int:
    """An integer of at least `lo`; a boolean is not an integer."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= lo):
        raise ConfigError(f"{where} must be an integer of at least {lo:g}")
    return value


def _text(value: Any, where: str) -> str:
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{where} must be a non-empty string")
    return value


def _list_of(item: _Check, *, size: int = 0, non_empty: bool = False) -> _Check:
    """A check for a list, of exactly `size` entries if given, whose entries
    each pass `item`; the config holds the checked entries as a tuple."""
    wanted = (
        f"a list of {size}" if size else "a non-empty list" if non_empty else "a list"
    )

    def check(value: Any, where: str) -> tuple:
        if not (
            isinstance(value, (list, tuple))
            and (len(value) == size if size else bool(value) or not non_empty)
        ):
            raise ConfigError(f"{where} must be {wanted}")
        return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))

    return check


_unit = partial(_number, lo=0.0, hi=1.0)
_non_negative = partial(_number, lo=0.0)
_count = partial(_integer, lo=0)
_positive = partial(_integer, lo=1)


def _boolean(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be a boolean")
    return value


def _mode(value: Any, where: str) -> str:
    if not (isinstance(value, str) and value in _MODES):
        raise ConfigError(f"{where} must be one of {sorted(_MODES)}")
    return value


def _decay(value: Any, where: str) -> float:
    if not _unit(value, where) > 0.0:
        raise ConfigError(f"{where} must be in (0, 1]")
    return float(value)


def _latency(value: Any, where: str) -> tuple[float, float]:
    """A [low, high] pair, or one number for both."""
    if isinstance(value, (list, tuple)):
        low, high = _list_of(_non_negative, size=2)(value, where)
    else:
        low = high = _non_negative(value, where)
    if not low <= high:
        raise ConfigError(f"{where} range must be ordered")
    return (low, high)


def _edges(value: Any, where: str) -> frozenset:
    return frozenset(_list_of(_list_of(_text, size=2))(value, where))


def _pool_row(row: Any, where: str) -> dict:
    if not isinstance(row, dict):
        raise ConfigError(f"{where} must be a mapping")
    clean: dict = {}
    for key, value in row.items():
        if not (isinstance(key, str) and key.isidentifier()):
            raise ConfigError(f"{where} keys must be simple names")
        if key == "requires":
            tokens = [value] if isinstance(value, str) else value
            clean[key] = _list_of(_text)(tokens, f"{where}.requires")
        elif isinstance(value, (str, int)) and not isinstance(value, bool):
            clean[key] = str(value)
        else:
            raise ConfigError(f"{where}.{key} must be a string or integer")
    return clean


def _term_row(row: Any, where: str) -> tuple[str, float, str]:
    if not (
        isinstance(row, (list, tuple)) and len(row) == 3 and row[2] in TERM_STATUSES
    ):
        raise ConfigError(f"{where} must be [term, validity, 'temporary'|'permanent']")
    return (_text(row[0], f"{where}[0]"), _number(row[1], f"{where}[1]"), row[2])


def _field(check: _Check, default: Any = MISSING) -> Any:
    """A config field whose YAML value must pass `check`."""
    return field(default=default, metadata={"check": check})


@cache
def _keys(cls: type) -> dict:
    """The fields of config dataclass `cls` by YAML key."""
    return {_YAML_KEYS.get(f.name, f.name): f for f in fields(cls)}


def _build(cls: type, data: Any, where: str) -> Any:
    """An instance of config dataclass `cls` from the YAML mapping `data`.

    A field's key is its name or its `_YAML_KEYS` entry. A field left out,
    or null where the default is None, takes its dataclass default.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'scenario config'} must be a mapping")
    suffix = f" in {where}" if where else ""
    keys = _keys(cls)
    unknown = data.keys() - keys.keys()
    if unknown:
        raise ConfigError(f"unknown field {min(unknown, key=str)!r}{suffix}")
    values = {}
    for key, f in keys.items():
        if key not in data:
            if f.default is MISSING:
                raise ConfigError(f"missing field {key!r}{suffix}")
        elif data[key] is not None or f.default is not None:
            check = f.metadata["check"]
            values[f.name] = check(data[key], f"{where}.{key}" if where else key)
    return cls(**values)


@dataclass(frozen=True)
class AgentSpec:
    """One stub agent: a skill line and a success model.

    `success` is the base Bernoulli probability; when the episode's task
    carries required tokens and all of them appear in the delivered payload,
    `boosted` is used instead. `arrival` delays registration until that
    episode, modeling an agent that joins a running swarm.
    """

    id: str = _field(_text)
    skill: str = _field(_text)
    success: float = _field(_unit, 0.5)
    boosted: float | None = _field(_unit, None)
    cost: float = _field(_non_negative, 0.0)
    latency: tuple[float, float] = _field(_latency, (0.0, 0.0))
    arrival: int = _field(_count, 0)

    @classmethod
    def from_mapping(cls, data: Any, where: str) -> "AgentSpec":
        return _build(cls, data, where)


@dataclass(frozen=True)
class FabricSettings:
    """Fabric-side knobs for a scenario run.

    `enabled: false` turns the run into a direct-delivery baseline: messages
    reach their receiver unmodified, with no injection, gating, security, or
    translation. Routing still runs so paired comparisons pick the same
    receivers.
    """

    enabled: bool = _field(_boolean, True)
    mode: str = _field(_mode, "sidecar")
    epsilon: float = _field(_unit, DEFAULT_EPSILON)
    epsilon_decay: float = _field(_decay, 1.0)
    tau_valid: float = _field(_unit, TAU_VALID)
    tau_soft: float = _field(_unit, TAU_SOFT)
    tau_edge: float = _field(_non_negative, DEFAULT_TAU_EDGE)
    reward_weights: tuple[float, float, float] = _field(
        _list_of(_number, size=3), (1.0, 0.0, 0.0)
    )
    loss_lambda: float = _field(_non_negative, DEFAULT_LAMBDA)
    token_budget: int = _field(_count, DEFAULT_TOKEN_BUDGET)
    retrieval_floor: float = _field(_unit, DEFAULT_RETRIEVAL_FLOOR)
    nodes: int = _field(_positive, 1)

    @classmethod
    def from_mapping(cls, data: Any, where: str = "fabric") -> "FabricSettings":
        settings = _build(cls, data, where)
        _require(
            settings.tau_soft <= settings.tau_valid,
            f"{where}.tau_soft must not exceed tau_valid",
        )
        return settings


def _template_fields(template: str, where: str) -> set[str]:
    try:
        parsed = list(Formatter().parse(template))
    except ValueError as err:
        raise ConfigError(f"{where} is not a valid template: {err}") from None
    names = set()
    for _, name, _, _ in parsed:
        if name is None:
            continue
        _require(name.isidentifier(), f"{where} placeholders must be simple names")
        names.add(name)
    return names


@dataclass(frozen=True, kw_only=True)
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

    sender: str = _field(_text, "user")
    templates: tuple[str, ...] = _field(_list_of(_text, non_empty=True))
    pool: tuple[dict, ...] = _field(_list_of(_pool_row, non_empty=True), ({},))
    clarify: str | None = _field(_text, None)
    memory: tuple[str, ...] = _field(_list_of(_text), ())
    ontology: tuple[tuple[str, float, str], ...] = _field(_list_of(_term_row), ())

    @classmethod
    def from_mapping(cls, data: Any, where: str) -> "TaskSpec":
        tasks = _build(cls, data, where)
        named = [(f"{where}.templates[{i}]", t) for i, t in enumerate(tasks.templates)]
        if tasks.clarify is not None:
            named.append((f"{where}.clarify", tasks.clarify))
        for name, template in named:
            needed = _template_fields(template, name)
            for i, row in enumerate(tasks.pool):
                missing = needed - (row.keys() - {"requires"})
                if missing:
                    raise ConfigError(
                        f"{where}.pool[{i}] is missing placeholder "
                        f"{sorted(missing)[0]!r} used by {name}"
                    )
        return tasks


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    name: str = _field(_text)
    seed: int = _field(_integer)
    episodes: int = _field(_positive)
    agents: tuple[AgentSpec, ...] = _field(
        _list_of(AgentSpec.from_mapping, non_empty=True)
    )
    edges: frozenset | None = _field(_edges, None)
    fabric: FabricSettings = _field(FabricSettings.from_mapping)
    tasks: TaskSpec = _field(TaskSpec.from_mapping)

    @classmethod
    def from_mapping(cls, data: Any) -> "ScenarioConfig":
        """Validate `data`; fields it leaves out come from the packaged file
        of the scenario it names, with `fabric` merged field by field."""
        _require(isinstance(data, dict), "scenario config must be a mapping")
        name = _text(data.get("name"), "name")
        if name not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
            )
        base = _packaged(name)
        fabric = data.get("fabric", {})
        _require(isinstance(fabric, dict), "fabric must be a mapping")
        merged = {**base, **data, "fabric": {**base.get("fabric", {}), **fabric}}
        config = _build(cls, merged, "")
        seen: set = set()
        for agent in config.agents:
            _require(agent.id not in seen, f"duplicate agent id {agent.id!r}")
            seen.add(agent.id)
        _require(
            any(a.arrival == 0 for a in config.agents),
            "at least one agent must have 'arrival' 0, or episode 0 has no receiver",
        )
        least = SCENARIOS[name].min_agents
        _require(len(config.agents) >= least, f"{name} needs at least {least} agents")
        return config


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
_LATENCY_KEYS = ("l_net", "l_inference", "l_memory_lookup")
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
    verdict_counts: dict = field(
        default_factory=lambda: dict.fromkeys(_VERDICT_KEYS, 0)
    )
    intervention_counts: dict = field(
        default_factory=lambda: dict.fromkeys(_INTERVENTION_KEYS, 0)
    )
    lexicon_hits: dict = field(default_factory=dict)
    loss_mean: float = 0.0
    latency_total: float = 0.0
    latency_mean: float = 0.0
    latency_breakdown: dict = field(
        default_factory=lambda: dict.fromkeys(_LATENCY_KEYS, 0.0)
    )
    gossip_rounds: int | None = None
    messages_per_completed: float | None = None
    extras: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    records: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        """Everything except per-episode records, which stay runtime-only."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"
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


def _informed(requires: tuple, payload_text: str | None) -> bool:
    """Whether every token a task requires reached the payload."""
    return (
        bool(requires)
        and payload_text is not None
        and all(token in payload_text for token in requires)
    )


def _effective_p(spec: AgentSpec, informed: bool) -> float:
    return spec.boosted if informed and spec.boosted is not None else spec.success


def _ceiling_p(spec: AgentSpec) -> float:
    return spec.boosted if spec.boosted is not None else spec.success


def _tokens_added(result: InterceptResult) -> int:
    return result.transform.tokens_added if result.transform else 0


class _Run:
    """One run's world: the node, its peers, the report, one way to send."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.embedder = HashingEmbedder()
        self.node = _build_node(config, self.embedder)
        self.outcome_rng = Random(config.seed + 1)
        self.report = MetricsReport(
            scenario=config.name,
            seed=config.seed,
            episodes=config.episodes,
            gossip_rounds=_sync_peers(config, self.node, self.embedder),
        )

    def send(
        self,
        sender: str,
        text: str,
        *,
        to: str | None = None,
        intent: str | None = None,
        analysis: TextAnalysis | None = None,
    ) -> InterceptResult:
        """Deliver one hop: through the fabric, or directly when it is off.

        A direct delivery hands the text over unmodified and unchecked, at
        the cost of one network hop; an intent still goes through the router,
        as the fabric would route it. Either way the hop is counted. A
        caller's ``analysis`` of ``text`` holds afterwards what the hop read.
        """
        node = self.node
        analysis = analysis_of(text, self.embedder, analysis)
        if self.config.fabric.enabled:
            result = node.intercept(
                make_envelope(sender, text, to=to, intent=intent), analysis=analysis
            )
        else:
            if to is None:
                task = analysis_of(intent, self.embedder, analysis).vector
                to = node.router.dispatch(task, node.epsilon, node.rng)
            result = InterceptResult(
                delivered=True, receiver=to, text=text, latency=LatencyTrace(l_net=1.0)
            )
        report = self.report
        report.messages_total += 1
        if result.delivered:
            report.delivered += 1
        else:
            report.rejected += 1
        if result.grounding is not None:
            report.verdict_counts[result.grounding.verdict.value] += 1
        security = result.security
        if security is not None and security.intervention is not None:
            report.intervention_counts[security.intervention.value] += 1
        else:
            report.intervention_counts["none"] += 1
        lexicon = report.lexicon_hits
        for cls in analysis.read(lexicon_matches):
            lexicon[cls] = lexicon.get(cls, 0) + 1
        latency = report.latency_breakdown
        latency["l_net"] += result.latency.l_net
        latency["l_inference"] += result.latency.l_inference
        latency["l_memory_lookup"] += result.latency.l_memory_lookup
        return result


@dataclass(frozen=True)
class _Step:
    """What one episode's hop plan hands back to the loop."""

    success: bool
    p_eff: float  # the task's success probability; 0 when it was not delivered
    p_best: float  # the best probability on offer this episode, for regret
    reward: float
    tokens_added: int
    learned_from: TextAnalysis | None  # of the text whose entities update the ontology
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
        sent = TextAnalysis(text, run.embedder)
        result = run.send(config.tasks.sender, text, intent=text, analysis=sent)
        receiver, payload_text = result.receiver, result.text
        spec = self.by_id[receiver] if receiver is not None else None
        informed = _informed(row.get("requires", ()), payload_text)
        p_eff = _effective_p(spec, informed) if result.delivered else 0.0
        if informed:
            self.informed += 1
        success = u_outcome < p_eff
        reward = 0.0
        if result.delivered and spec is not None:
            lo, hi = spec.latency
            agent_latency = run.outcome_rng.uniform(lo, hi) if hi > lo else lo
            reward, _ = node.router.record_outcome(
                receiver,
                sent.vector,  # the text, sent as the intent
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
            learned_from=(
                analysis_of(payload_text, run.embedder, sent)
                if payload_text is not None
                else None
            ),
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
        self.run = run
        self.researcher, self.analyst, _critic, self.synthesizer = run.config.agents[:4]
        self.edge_rejections = 0

    def play(self, ep: int, row: dict, text: str, u_outcome: float) -> _Step:
        send = self.run.send
        researcher, analyst = self.researcher.id, self.analyst.id
        synthesizer = self.synthesizer.id
        send(researcher, text, to=analyst)
        relayed = TextAnalysis(text, self.run.embedder)
        hop2 = send(analyst, text, to=synthesizer, analysis=relayed)
        probe = send(synthesizer, "status?", to=analyst)
        if not probe.delivered and probe.reason == "edge-not-allowed":
            self.edge_rejections += 1
        informed = _informed(row.get("requires", ()), hop2.text)
        p_eff = _effective_p(self.synthesizer, informed) if hop2.delivered else 0.0
        success = u_outcome < p_eff
        return _Step(
            success=success,
            p_eff=p_eff,
            p_best=_ceiling_p(self.synthesizer),
            reward=1.0 if success else 0.0,
            tokens_added=_tokens_added(hop2),
            learned_from=relayed,
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
    min_agents: int = 1  # checked by ScenarioConfig.from_mapping


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
        min_agents=4,
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
    report = run.report
    plan = SCENARIOS[config.name].plan(run)
    task_rng = Random(config.seed)
    pool, templates = config.tasks.pool, config.tasks.templates
    rewards: list = []
    losses: list = []
    regret = 0.0
    for ep in range(config.episodes):
        row = pool[task_rng.randrange(len(pool))]
        text = _render(templates[task_rng.randrange(len(templates))], row)
        step = plan.play(ep, row, text, run.outcome_rng.random())
        if step.success:
            report.completed += 1
        regret += step.p_best - step.p_eff
        report.regret_curve.append(regret)
        rewards.append(step.reward)
        losses.append(
            compute_loss(step.reward, step.tokens_added, config.fabric.loss_lambda)
        )
        if step.learned_from is not None:
            terms = step.learned_from.read(extract_entities)
            if terms:
                run.node.ontology.update([(terms, step.success)])
        report.records.append({"episode": ep, "success": step.success, **step.record})
    report.success_rate = report.completed / config.episodes
    report.mean_reward = sum(rewards) / len(rewards)
    report.loss_mean = sum(losses) / len(losses)
    # l_net + l_inference + l_memory_lookup, in that order
    report.latency_total = sum(report.latency_breakdown.values())
    report.latency_mean = report.latency_total / report.messages_total
    if report.completed:
        report.messages_per_completed = report.messages_total / report.completed
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
