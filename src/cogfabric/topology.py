"""Adaptive routing: who should get a message when the sender names a goal.

Selection is an epsilon-greedy contextual bandit. Each agent carries one
performance estimate (an exponential moving average of realized rewards),
plus moving latency, a fixed cost rate, and a live load counter. An untried
agent scores at an optimistic prior equal to the maximum possible reward, so
new agents always get probed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random
from typing import Iterable

import numpy as np

from cogfabric.core import (
    COSINE_BAND,
    SCAN_ROWS,
    AgentProfile,
    FabricError,
    HashingEmbedder,
    VectorTable,
    ZeroVectorError,
    cosine_similarity,
    shortlist,
)

ALPHA_EMA = 0.2


class DuplicateAgentError(FabricError):
    """An agent id was registered twice."""


class UnknownAgentError(FabricError):
    """An operation referenced an agent id the router has never seen."""


class NoAgentsError(FabricError):
    """Selection was attempted with no registered agents."""


class NoCapableAgentError(FabricError):
    """No registered agent clears the similarity floor for any sub-task."""


@dataclass(frozen=True)
class RewardWeights:
    """Reward R = w1 * success - w2 * cost - w3 * latency."""

    w1: float = 1.0
    w2: float = 0.1
    w3: float = 0.01

    def reward(self, success: bool, cost: float, latency: float) -> float:
        return self.w1 * (1.0 if success else 0.0) - self.w2 * cost - self.w3 * latency


@dataclass(frozen=True)
class QualityWeights:
    """Mixing weights for the selection score."""

    sim: float = 0.5
    cost: float = 0.05
    latency: float = 0.01
    load: float = 0.05


@dataclass
class CapabilityState:
    """Mutable per-agent bookkeeping used by the router.

    ``mu_perf`` holds the agent's one performance estimate under key 0; it
    stays a mapping because the capability-state gossip payload carries it
    as one.
    """

    agent: str
    mu_perf: dict[int, float] = field(default_factory=dict)
    tau_lat: float = 0.0
    c_cost: float = 0.0
    l_load: int = 0


def _split_subtasks(text: str) -> list[str]:
    """Break a composite request on ';', '.', and the word 'then'."""
    parts = re.split(r"[;.]|\bthen\b", text, flags=re.IGNORECASE)
    return [p.strip() for p in parts if p.strip()]


class Router:
    """Bandit-driven receiver selection over registered agent profiles.

    Similarity to a task comes from one skill matrix in sorted-id order,
    rebuilt when an agent registers; estimates, cost, latency and load stay
    on each agent's ``CapabilityState``, where gossip, dispatch and outcome
    feedback change them. The matrix product only shortlists: the winner is
    picked among the contenders by their exact ``quality``.
    """

    def __init__(
        self,
        embedder: HashingEmbedder,
        reward_weights: RewardWeights | None = None,
        quality_weights: QualityWeights | None = None,
    ):
        self.embedder = embedder
        self.reward_weights = reward_weights or RewardWeights()
        self.quality_weights = quality_weights or QualityWeights()
        self._profiles: dict[str, AgentProfile] = {}
        self._states: dict[str, CapabilityState] = {}
        self._skills: tuple[dict[str, int], VectorTable] | None = None

    # -- registry -------------------------------------------------------------

    def register_agent(
        self, profile: AgentProfile, *, cost: float = 0.0, initial_load: int = 0
    ) -> CapabilityState:
        if profile.id in self._profiles:
            raise DuplicateAgentError(f"agent {profile.id!r} already registered")
        self._profiles[profile.id] = profile
        self._skills = None
        state = CapabilityState(agent=profile.id, c_cost=cost, l_load=initial_load)
        self._states[profile.id] = state
        return state

    def agents(self) -> list[str]:
        return sorted(self._profiles)

    def profile(self, agent_id: str) -> AgentProfile:
        try:
            return self._profiles[agent_id]
        except KeyError:
            raise UnknownAgentError(f"unknown agent {agent_id!r}") from None

    def state(self, agent_id: str) -> CapabilityState:
        try:
            return self._states[agent_id]
        except KeyError:
            raise UnknownAgentError(f"unknown agent {agent_id!r}") from None

    # -- scoring and selection --------------------------------------------------

    def quality(self, task: np.ndarray, agent_id: str) -> float:
        """Selection score: estimated reward plus similarity, minus cost,
        latency, and queue-depth penalties."""
        w = self.quality_weights
        state = self.state(agent_id)
        profile = self.profile(agent_id)
        s_hat = state.mu_perf.get(0, self.reward_weights.w1)
        skill = profile.skill_embedding
        sim = cosine_similarity(task, skill) if skill.any() else 0.0
        return (
            s_hat
            + w.sim * sim
            - w.cost * state.c_cost
            - w.latency * state.tau_lat
            - w.load * state.l_load
        )

    def _skill_table(self) -> tuple[dict[str, int], VectorTable]:
        """Row of each agent, and the skill matrix in sorted-id order."""
        if self._skills is None:
            ids = self.agents()
            self._skills = {aid: row for row, aid in enumerate(ids)}, VectorTable(
                [self._profiles[aid].skill_embedding for aid in ids], self.embedder.dim
            )
        return self._skills

    def select(
        self,
        task: np.ndarray,
        epsilon: float,
        rng: Random,
        among: list[str] | None = None,
    ) -> str:
        """Epsilon-greedy choice: argmax quality with probability 1 - epsilon,
        uniform otherwise. Quality ties break toward the smaller agent id."""
        candidates = sorted(set(among)) if among is not None else self.agents()
        if not candidates:
            raise NoAgentsError("no agents registered")
        for cand in candidates:
            self.state(cand)  # raise UnknownAgent early
        task = np.asarray(task, dtype=np.float64)
        if not task.any():
            raise ZeroVectorError("task embedding is all zeros")
        if rng.random() < epsilon:
            return candidates[rng.randrange(len(candidates))]
        best_id, best_q = candidates[0], None
        for i in self._contenders(task, candidates):
            q = self.quality(task, candidates[i])
            if best_q is None or q > best_q:
                best_id, best_q = candidates[i], q
        return best_id

    def _contenders(self, task: np.ndarray, candidates: list[str]) -> Iterable[int]:
        """Positions in ``candidates`` whose exact quality may be the best."""
        if len(candidates) <= SCAN_ROWS:
            return range(len(candidates))
        row_of, table = self._skill_table()
        picked = [row_of[cand] for cand in candidates]
        sim = table.cosines(task)[0][picked]
        sim[np.isnan(sim)] = 0.0  # a zero skill scores 0
        w = self.quality_weights
        states = [self._states[cand] for cand in candidates]
        parts = np.array(
            [
                [s.mu_perf.get(0, self.reward_weights.w1) for s in states],
                w.sim * sim,
                [-w.cost * s.c_cost for s in states],
                [-w.latency * s.tau_lat for s in states],
                [-w.load * s.l_load for s in states],
            ]
        )
        # quality sums these parts; beyond the cosine's band, the matrix
        # estimate differs from quality() only by rounding within the sum
        band = COSINE_BAND * (abs(w.sim) + np.abs(parts).sum(axis=0))
        return shortlist(parts.sum(axis=0), band, 1)

    def dispatch(
        self,
        task: np.ndarray,
        epsilon: float,
        rng: Random,
        among: list[str] | None = None,
    ) -> str:
        """Select and atomically take a queue slot on the chosen agent."""
        chosen = self.select(task, epsilon, rng, among=among)
        self._states[chosen].l_load += 1
        return chosen

    def release(self, agent_id: str) -> None:
        """Give back a dispatched slot without recording an outcome, for
        messages the fabric gated after selection."""
        state = self.state(agent_id)
        state.l_load = max(0, state.l_load - 1)

    def record_outcome(
        self,
        agent_id: str,
        task: np.ndarray,
        *,
        success: bool,
        cost: float = 0.0,
        latency: float = 0.0,
    ) -> tuple[float, CapabilityState]:
        """Fold one interaction result into the agent's moving estimates.

        Returns the realized reward and the updated state. The queue slot
        taken at dispatch is released here (floored at zero). The estimate is
        one per agent, so ``task`` does not select it.
        """
        state = self.state(agent_id)
        r = self.reward_weights.reward(success, cost, latency)
        old = state.mu_perf.get(0, self.reward_weights.w1)
        state.mu_perf[0] = (1.0 - ALPHA_EMA) * old + ALPHA_EMA * r
        state.tau_lat = (1.0 - ALPHA_EMA) * state.tau_lat + ALPHA_EMA * latency
        state.l_load = max(0, state.l_load - 1)
        return r, state

    # -- chains -------------------------------------------------------------------

    def synthesize_chain(
        self,
        task_text: str,
        coverage_threshold: float = 0.6,
        floor: float = 0.05,
    ) -> list[str]:
        """Agent chain for a composite request.

        If one agent's skill covers the whole request at or above
        ``coverage_threshold`` similarity, the chain is that single agent.
        Otherwise the text is split into sub-tasks and each is assigned its
        most similar agent; duplicates collapse in order. Sub-tasks whose best
        similarity is under ``floor`` are unassignable; if every sub-task is,
        NoCapableAgentError is raised.
        """
        if not self._profiles:
            raise NoAgentsError("no agents registered")
        whole = self.embedder.embed(task_text)
        if not whole.any():
            raise ZeroVectorError("task text embeds to the zero vector")

        ids = self.agents()
        _, table = self._skill_table()

        def best_for(vec: np.ndarray) -> tuple[str | None, float]:
            rows: Iterable[int] = range(len(ids))
            if len(ids) > SCAN_ROWS:
                rows = shortlist(*table.cosines(vec), 1)
            top_id, top_sim = None, float("-inf")
            for row in rows:
                skill = self._profiles[ids[row]].skill_embedding
                if not skill.any():
                    continue
                sim = cosine_similarity(vec, skill)
                if sim > top_sim:
                    top_id, top_sim = ids[row], sim
            return top_id, top_sim

        single, single_sim = best_for(whole)
        if single is not None and single_sim >= coverage_threshold:
            return [single]

        chain: list[str] = []
        assigned_any = False
        for sub in _split_subtasks(task_text):
            vec = self.embedder.embed(sub)
            if not vec.any():
                continue
            aid, sim = best_for(vec)
            if aid is None or sim < floor:
                continue
            assigned_any = True
            if aid not in chain:
                chain.append(aid)
        if not assigned_any:
            raise NoCapableAgentError(
                f"no agent clears similarity floor {floor} for any sub-task"
            )
        return chain
