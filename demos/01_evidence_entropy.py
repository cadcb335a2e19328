"""How sparse evidence turns into probabilities and uncertainty.

Walks the core quantities: normalizing an evidence vector, the digamma-based
expected entropy of accumulating evidence (one call scores many groups of
masses), and the Shannon entropy of a voxel's mixed category distribution in
the semantic layer.
"""

import math

import numpy as np

from voxeland.evidence import expected_entropy, probabilities
from voxeland.uncertainty import semantic_entropy_map
from voxeland.voxelmap import MapState, pack_keys

print("=== Normalizing evidence ===")
evidence = {"chair": 3.0, "table": 1.0}
dist = probabilities(evidence)
print(f"evidence {evidence} -> probabilities {dist}")

print()
print("=== Expected entropy shrinks as evidence concentrates ===")
print("evidence (n vs 1)   expected entropy (nats)")
ns = (1, 2, 5, 10, 50, 100)
# one group of two masses per n, laid end to end
for n, h in zip(ns, expected_entropy([mass for n in ns for mass in (float(n), 1.0)], [2] * len(ns))):
    print(f"  {n:>3} vs 1          {h:.4f}")

print()
print("=== ... and grows toward ln(m) for balanced evidence ===")
ms = (2, 3, 5)
for m, h in zip(ms, expected_entropy([10_000.0] * sum(ms), ms)):
    print(f"  {m} equal hypotheses: {h:.4f}  (ln {m} = {math.log(m):.4f})")

print()
print("=== Shannon entropy of a mixed voxel in the semantic layer ===")
state = MapState(voxel_size=0.02)
for beta, key, count in (
    ({"bed": 4.8, "couch": 0.2}, (0, 0, 0), 3),
    ({"couch": 4.6, "chair": 0.6}, (0, 0, 0), 2),
    ({"chair": 1.0}, (1, 0, 0), 4),
):
    record = state.instances[state.new_instance()]
    record.category_evidence = beta
    state.cells.add_evidence(pack_keys(np.array([key])), record.id, np.array([count]))
    print(f"instance {record.id}: category evidence {beta}, {count} points in voxel {key}")
# the layer's values come in key order: voxel (0, 0, 0), then (1, 0, 0)
mixed, alone = semantic_entropy_map(state).values.values()
print(f"voxel (0, 0, 0), mixing instances 1 and 2 by 3:2: H = {mixed:.4f} nats "
      "(high: this voxel needs a second opinion)")
print(f"voxel (1, 0, 0), instance 3 alone: H = {alone:.4f} nats")
