"""How sparse evidence turns into probabilities and uncertainty.

Walks the core quantities: normalizing an evidence vector, the digamma-based
expected entropy of accumulating evidence, and the Shannon entropy of a
mixed categorical distribution.
"""

import math

from voxeland.evidence import expected_entropy, probabilities, shannon_entropy

print("=== Normalizing evidence ===")
evidence = {"chair": 3.0, "table": 1.0}
dist = probabilities(evidence)
print(f"evidence {evidence} -> probabilities {dist}")

print()
print("=== Expected entropy shrinks as evidence concentrates ===")
print("evidence (n vs 1)   expected entropy (nats)")
for n in (1, 2, 5, 10, 50, 100):
    h = expected_entropy({"a": float(n), "b": 1.0})
    print(f"  {n:>3} vs 1          {h:.4f}")

print()
print("=== ... and grows toward ln(m) for balanced evidence ===")
for m in (2, 3, 5):
    h = expected_entropy({i: 10_000.0 for i in range(m)})
    print(f"  {m} equal hypotheses: {h:.4f}  (ln {m} = {math.log(m):.4f})")

print()
print("=== Shannon entropy of a mixed category belief ===")
mixed = {"bed": 0.48, "couch": 0.46, "chair": 0.06}
print(f"p = {mixed}")
print(f"H = {shannon_entropy(mixed):.4f} nats (high: this object needs a second opinion)")
certain = {"chair": 1.0}
print(f"p = {certain} -> H = {shannon_entropy(certain):.4f} nats")
