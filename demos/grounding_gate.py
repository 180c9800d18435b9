"""Semantic grounding: validity gating, translation, and ghost references.

Messages are scored against a shared ontology before delivery. Scores at
or above tau_valid pass untouched, scores in the soft band get aligned,
and anything below tau_soft is rejected. A message citing an artifact
nobody has ever registered bounces back to the sender with the closest
known name suggested.
"""

from cogfabric import (
    EntityStore,
    FabricNode,
    HashingEmbedder,
    Ontology,
    extract_entities,
    gate,
    ground,
    make_envelope,
    translate,
)

emb = HashingEmbedder()

print("entity extraction:")
text = 'Archive "Q3_Report.csv" after the Payment-Gateway review.'
print(f"  {text}")
print(f"  -> {extract_entities(text)}")

print("\ngate verdicts by validity score:")
for g in (0.9, 0.55, 0.2):
    print(f"  g={g:.2f} -> {gate(g).value}")

print("\nschema translation between dialects:")
print("  " + translate("Deploy the app, then deploy the worker.", {"deploy": "kubectl apply"}))

ontology = Ontology(emb)
ontology.add_term("db-01", validity=1.0, status="permanent")
entities = EntityStore()
entities.update("db-01", {"status": "offline"}, by="watchdog", at=3.0)
decision = ground("The server db-01 is online.", ontology, entity_store=entities)
print("\na claim contradicting tracked entity state is downgraded:")
print(f"  verdict   {decision.verdict.value}")
print(f"  corrected {decision.corrected_text!r}")

node = FabricNode("n0", embedder=emb)
node.ontology.add_term("Q3_Report.csv", validity=0.9, status="permanent")
node.ontology.add_term("Q3_Report_Archived.zip", validity=0.9, status="permanent")
node.manifest.add("Q3_Report_Archived.zip")
result = node.intercept(
    make_envelope("analyst", 'Fetch "Q3_Report.csv" and summarize it.', to="worker")
)
print("\nghost reference ('Q3_Report.csv' is not in the manifest):")
print(f"  delivered  {result.delivered}")
print(f"  reason     {result.reason}")
print(f"  suggestion {result.ghost.suggestions}")
print(f"  receiver invocations: {node.invocations.get('worker', 0)}")
print(f"  modeled latency: {result.latency.total:.1f} units")
