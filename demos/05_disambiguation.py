"""Resolving an ambiguous instance through the external decision client.

An instance with a near-even bed/couch evidence split is flagged, a request
with candidates, geometry summary and views is built, and a scripted mock
answers like an external vision-language service would.  Picking the plain
argmax would label it bed; the second opinion corrects it to couch.
"""

import numpy as np

from voxeland.disambiguation import ArgmaxClient, MockClient, build_request, disambiguate_all
from voxeland.uncertainty import declare_categories
from voxeland.voxelmap import MapState, Observation, pack_keys


def ambiguous_map():
    state = MapState(voxel_size=0.02)
    instance_id = state.new_instance()
    state.instances[instance_id].category_evidence = {"bed": 4.8, "couch": 4.6, "chair": 0.6}
    for label in ("bed", "couch", "chair"):
        state.register_category(label)
    keys = pack_keys(np.array([(i, 0, 0) for i in range(8)]))
    state.add_cells(keys)
    state.instances[instance_id].add_evidence(keys, np.full(8, 3))
    for frame in range(6):
        label = "bed" if frame % 2 == 0 else "couch"
        state.instances[instance_id].observations.append(
            Observation(frame_id=frame, category=label, confidence=0.8, pixel_bbox=(0, 0, 30, 30))
        )
    declare_categories(state, entropy_threshold=0.5)
    return state, instance_id


state, instance_id = ambiguous_map()
record = state.instances[instance_id]
print(f"instance {instance_id} evidence: {record.category_evidence}")
print(f"flagged for disambiguation: {record.flagged}")

request = build_request(record)
print(f"\ncandidates: {request.candidates}")
print(f"views attached: {len(request.views)}")
print("--- prompt ---")
print(request.prompt)
print("--------------")

scripted = MockClient({str(instance_id): "The object category is couch"})
report = disambiguate_all(state, scripted)
print(f"\nscripted client decision: {report.decisions[0].chosen_category}")
print(f"final category: {state.instances[instance_id].final_category} "
      "(overrides the bed argmax)")

baseline, baseline_id = ambiguous_map()
disambiguate_all(baseline, ArgmaxClient())
print(f"identity client (top-1 baseline) would have said: "
      f"{baseline.instances[baseline_id].final_category}")
