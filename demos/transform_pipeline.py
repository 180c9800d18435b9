"""The outbound transform pipeline: inject, sanitize, translate.

Context from memory is prepended under a token budget, then the combined
text is sanitized (so stored secrets cannot leak through injection), then
vocabulary is translated into the receiver's dialect. Benign traffic with
nothing to add passes through byte for byte.
"""

from cogfabric import (
    HashingEmbedder,
    MemoryStore,
    SecurityEngine,
    Transformer,
    compute_loss,
)

emb = HashingEmbedder()

memory = MemoryStore(emb)
memory.add("Error check: Payment-Gateway returned 503 at 09:15.")
memory.add("Customer claim record: SSN 123-45-6789 attached to claim forty.")

t = Transformer(memory=memory, security=SecurityEngine(emb))

print("plain text with no relevant memory is untouched:")
result = t.transform("Please review the weekly plan.")
print(f"  {result.text!r} (tokens added: {result.tokens_added})")

print("\nrelevant context is injected, and its PII is redacted on the way out:")
result = t.transform("Summarize the customer claim record.")
print(f"  {result.text}")
print(f"  tokens added: {result.tokens_added}, injected records: {len(result.injected)}")

print("\nvocabulary translates into the receiver's dialect:")
result = Transformer().transform(
    "Deploy the container.", schema_map={"deploy": "kubectl apply"}
)
print(f"  {result.text!r}")

print("\nthe loss ties reward to how much text we added:")
for tokens in (0, 8, 32):
    print(f"  reward=1.0, tokens_added={tokens:>2} -> loss {compute_loss(1.0, tokens):.3f}")
