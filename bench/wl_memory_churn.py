"""Workload ``memory-churn``: reads beside writes on an HNSW-indexed store.

The node's ``MemoryStore`` is built with an ``HnswIndex``, the index the
README says to plug in for large stores, and seeded with about 500 records
that carry TTLs. One op intercepts one explicitly addressed message and
writes back what it learned: new records with TTLs, an ``EntityStore``
update and an ``Ontology.update`` (new entity names become new terms, so
the ontology grows). Every 25th op also runs ``prune(now)``. The live store
stays near its seeded size while the writes of a pass (3 per op) exceed it
twice over. Some
messages assert a status that conflicts with the tracked one, so grounding
downgrades them to align with corrected text. This is the only workload
that exercises ``ann``.

Kept fault: every 20th op (10th, 30th, ...) refreshes a fact under a stable
record id whose record an earlier prune removed. ``HnswIndex.remove`` only
tombstones, so ``HnswIndex.add`` raises ``duplicate index id``, while the
exact store accepts the same call and keeps the record, unindexed. The ids
are fixed and were all pruned during set-up, so the refresh fails in every
pass whatever the seed.

After each prune a recall probe compares ``retrieve`` for a fixed set of
queries with an exact ranking over the records the benchmark's ledger says
are live. Recall@5 falls as tombstones pile up, but how far depends on the
seed, so it is reported (``ann.search.recall_at_5``) rather than counted as
a failed op.
"""

from __future__ import annotations

from random import Random

import numpy as np

import cogfabric.fabric as fabric
from cogfabric.ann import HnswIndex
from cogfabric.core import HashingEmbedder, make_envelope
from cogfabric.memory import MemoryStore

import oracle

SEEDED, OPS, ENTITIES, FACTS = 500, 400, 60, 10
SMOKE_SIZES = (120, 50, 20, 10)
PRUNE_EVERY, REFRESH_EVERY, REFRESH_AT = 25, 20, 10
WRITES_PER_OP = 3
TTL = (150.0, 200.0)  # TTLs of new records, in ops
PROBES, PROBE_K = 20, 5
ALPHA = 0.1  # Ontology.update's default step
STATUSES = ("healthy", "degraded", "draining", "recovering", "standby")
FAULT = "hnsw-duplicate-id"


def make_inputs(seed: int, sizes: tuple) -> dict:
    n_seeded, n_ops, n_entities, n_facts = sizes
    rng = Random(seed)
    entities = [f"Service-{i}" for i in range(n_entities)]
    status = {e: rng.choice(STATUSES) for e in entities}
    validity = {e: round(rng.uniform(0.8, 1.0), 6) for e in entities}
    seeded = []
    for i in range(n_seeded):
        created = -round(rng.uniform(0.0, 100.0), 6)
        expires = rng.uniform(1.0, TTL[1])
        seeded.append(
            (
                f"s{i:05d}",
                f"Status report {i}: {rng.choice(entities)} was {rng.choice(STATUSES)} "
                f"during the {rng.choice(('morning', 'evening', 'night'))} check.",
                round(rng.random(), 6),
                created,
                expires - created,
            )
        )
    # stable facts: expired before the run starts, pruned during set-up
    facts = [
        (f"fact-{k}", f"Fact {k}: the escalation path of {entities[k]} goes through the duty manager.", 0.5, -50.0, 10.0)
        for k in range(n_facts)
    ]
    ops = []
    for i in range(1, n_ops + 1):
        ent = rng.choice(entities)
        roll = rng.random()
        op = {"now": float(i), "sender": f"monitor-{rng.randrange(4)}", "entity": ent}
        if roll < 0.7:
            op["kind"] = "assert"
            op["conflict"] = roll < 0.35
            op["new"] = None
        else:
            op["kind"] = "mention"
            op["conflict"] = False
            op["new"] = f"Worker-{seed % 1000}-{i}"
        op["pick"] = rng.random()
        op["success"] = rng.random() < 0.8
        op["importance"] = [round(rng.random(), 6) for _ in range(WRITES_PER_OP)]
        op["ttl"] = [round(rng.uniform(*TTL), 6) for _ in range(WRITES_PER_OP)]
        ops.append(op)
    probes = [f"What is the latest status report for {entities[j % n_entities]}?" for j in range(PROBES)]
    return {
        "entities": entities,
        "status": status,
        "validity": validity,
        "seeded": seeded,
        "facts": facts,
        "ops": ops,
        "probes": probes,
    }


def build_node(inputs: dict, seed: int):
    """Set-up: an HNSW-backed store seeded with TTL records, tracked entity
    state and ontology terms; the expired facts are pruned."""
    emb = HashingEmbedder()
    store = MemoryStore(emb, index=HnswIndex(emb.dim, seed=seed))
    node = fabric.FabricNode("churn-0", embedder=emb, memory=store, seed=seed)
    for rid, text, importance, created, ttl in inputs["seeded"] + inputs["facts"]:
        store.add(text, created_at=created, ttl=ttl, importance=importance, record_id=rid)
    for ent in inputs["entities"]:
        node.entity_store.update(ent, {"status": inputs["status"][ent]}, by="seed", at=0.0)
        node.ontology.add_term(ent, validity=inputs["validity"][ent], status="permanent")
    store.prune(0.0)
    return node


class Ledger:
    """The benchmark's own account of what the store, entities and terms hold."""

    def __init__(self, inputs: dict):
        self.emb = oracle.RefEmbedder()
        self.records = {r[0]: r for r in inputs["seeded"]}
        self.status = dict(inputs["status"])
        self.terms = oracle.TermTable(self.emb)
        for ent, v in inputs["validity"].items():
            self.terms.set(ent, v)

    def write(self, rid, text, importance, created, ttl) -> None:
        self.records[rid] = (rid, text, importance, created, ttl)

    def prune(self, now: float) -> None:
        self.records = {rid: r for rid, r in self.records.items() if r[3] + r[4] > now}

    def learn(self, entities: list[str], success: bool) -> None:
        """Mirror Ontology.update: +/- ALPHA, clamped; unknown terms start at 0."""
        delta = ALPHA if success else -ALPHA
        for ent in entities:
            old = self.terms.get(ent)
            self.terms.set(ent, min(1.0, max(0.0, (old or 0.0) + delta)))


def _message(op: dict, ledger: Ledger) -> tuple[str, str | None]:
    """Text of an op's message, and the status it asserts."""
    ent = op["entity"]
    current = ledger.status[ent]
    if op["kind"] == "assert":
        others = [s for s in STATUSES if s != current]
        asserted = others[int(op["pick"] * len(others))] if op["conflict"] else current
        return f"{ent} is {asserted} according to the latest probe.", asserted
    asserted = STATUSES[int(op["pick"] * len(STATUSES))]
    return f"{ent} reports that {op['new']} is {asserted} after the rollout.", asserted


def _op(node, env, op: dict, asserted: str, writes: list, refresh, seen: list):
    """One intercept and its write-back; the refresh comes last."""
    result = node.intercept(env)
    seen.append(result)
    now = op["now"]
    for rid, text, importance, ttl in writes:
        node.memory.add(text, created_at=now, ttl=ttl, importance=importance, record_id=rid)
    subject = op["new"] or op["entity"]
    node.entity_store.update(subject, {"status": asserted}, by=env.sender, at=now)
    entities = [op["entity"]] + ([op["new"]] if op["new"] else [])
    node.ontology.update([(entities, op["success"] and result.delivered)])
    if now % PRUNE_EVERY == 0:
        node.memory.prune(now)
    if refresh is not None:
        rid, text, importance, ttl = refresh
        node.memory.add(text, created_at=now, ttl=ttl, importance=importance, record_id=rid)
    return result


def check_result(node, ledger: Ledger, op: dict, result, live_texts: set) -> list[str]:
    """Grounding against the ledger's terms, the conflict correction, and
    injection from live records only."""
    problems = []
    decision = result.grounding
    if decision is None:
        return [f"no grounding decision (reason {result.reason!r})"]
    entities = [op["entity"]] + ([op["new"]] if op["new"] else [])
    if decision.entities != entities:
        problems.append(f"entities {decision.entities}, expected {entities}")
    ref = ledger.terms.score(entities)
    problems += oracle.check_grounding(
        decision.verdict.value, decision.score, ref, node.tau_valid, node.tau_soft, op["conflict"]
    )
    verdict = oracle.gate(ref, node.tau_valid, node.tau_soft)
    if verdict == "reject":
        return problems
    if not result.delivered:
        return problems + [f"grounded message stopped: {result.reason!r}"]
    if op["conflict"]:
        tracked = ledger.status[op["entity"]]
        if decision.verdict.value != "align":
            problems.append(f"conflicting assertion delivered as {decision.verdict.value}")
        if f"{op['entity']} status is {tracked}" not in result.payload.text:
            problems.append(f"corrected text does not name the tracked status {tracked!r}")
    problems += oracle.check_live_injection(result.transform.injected, live_texts)
    return problems


def recall_probe(node, ledger: Ledger, probes: list[str]) -> float:
    """Mean recall@5 of retrieve against an exact ranking over live records."""
    rows = [(rid, r[1], r[2], r[3]) for rid, r in ledger.records.items()]
    table = oracle.RecordTable(ledger.emb, rows)
    recalls = []
    for text in probes:
        q = ledger.emb.text(text)
        want = {table.ids[i] for i, _ in table.top_k(q, PROBE_K, float("-inf"))}
        got = {rec.id for rec, _ in node.memory.retrieve(q, PROBE_K)}
        recalls.append(len(want & got) / max(len(want), 1))
    return float(np.mean(recalls))


def _check_op(node, ledger, inputs, op, asserted, seen, err, writes, refresh, recalls):
    """Problems and kept fault of one op; advances the ledger past it."""
    problems, fault = [], None
    if err is not None:
        duplicate = isinstance(err, ValueError) and "duplicate index id" in str(err)
        if refresh is not None and duplicate:
            fault = FAULT
        else:
            problems.append(f"op raised {err!r}")
    if seen:
        live_texts = {r[1] for r in ledger.records.values()}
        problems += check_result(node, ledger, op, seen[0], live_texts)
    now = op["now"]
    for rid, text, importance, ttl in writes + ([refresh] if refresh else []):
        ledger.write(rid, text, importance, now, ttl)
    entities = [op["entity"]] + ([op["new"]] if op["new"] else [])
    ledger.learn(entities, op["success"] and bool(seen) and seen[0].delivered)
    ledger.status[op["new"] or op["entity"]] = asserted
    if now % PRUNE_EVERY == 0:
        ledger.prune(now)
        held = {r.id for r in node.memory.records()}
        if held != set(ledger.records):
            problems.append(
                f"after prune at {now}: {len(held - set(ledger.records))} extra, "
                f"{len(set(ledger.records) - held)} missing"
            )
        recalls.append(recall_probe(node, ledger, inputs["probes"]))
    return problems, fault


def run(rec, seed: int, seconds: float, smoke: bool) -> None:
    sizes = SMOKE_SIZES if smoke else (SEEDED, OPS, ENTITIES, FACTS)
    recalls: list[float] = []
    passes = 0
    while True:
        pass_seed = seed * 1000 + passes
        inputs = make_inputs(pass_seed, sizes)
        ledger = Ledger(inputs)
        with rec.setup():
            node = build_node(inputs, pass_seed)
        facts = inputs["facts"]
        rec.start()
        for i, op in enumerate(inputs["ops"], start=1):
            text, asserted = _message(op, ledger)
            env = make_envelope(op["sender"], text, to="operator")
            subject = op["new"] or op["entity"]
            writes = [
                (f"w{i:04d}-{j}", f"Observation {i}.{j}: {subject} {asserted} at step {i}.",
                 op["importance"][j], op["ttl"][j])
                for j in range(WRITES_PER_OP)
            ]
            refresh = None
            if i % REFRESH_EVERY == REFRESH_AT:
                rid, ftext, importance, _, _ = facts[(i // REFRESH_EVERY) % len(facts)]
                refresh = (rid, f"{ftext} Refreshed at step {i}.", importance, 12.0)
            seen: list = []
            _, err = rec.call(_op, node, env, op, asserted, writes, refresh, seen)
            with rec.paused():
                rec.settle(*_check_op(node, ledger, inputs, op, asserted, seen, err, writes, refresh, recalls))
        rec.end_pass()
        passes += 1
        if smoke or (passes >= 3 and rec.timed_s >= seconds):
            break
    rec.notes["ann.search.recall_at_5"] = float(np.mean(recalls)) if recalls else 0.0
    rec.notes["recall_at_5_min"] = float(np.min(recalls)) if recalls else 0.0
