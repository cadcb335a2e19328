"""External disambiguation of instances with ambiguous category evidence.

Flagged instances are turned into requests bundling the category evidence,
a textual summary of the reconstructed geometry, and up to M of the
instance's observations per candidate category as its views.  Requests go
to a pluggable decision client; the scripted mock keeps tests hermetic, the
HTTP client talks to any service accepting ``{"prompt": ..., "images":
[...]}`` and answering ``{"text": ...}``.
Decisions only ever set an instance's final category -- accumulated evidence
is never rewritten.
"""

from __future__ import annotations

import base64
import json
import os
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import reading
from .evidence import probabilities
from .voxelmap import InstanceRecord, MapState, Observation, VoxelKey, unpack_key_array, unpack_keys

PROMPT_TEMPLATE = (
    "Please, help me to disambiguate the correct category of this object. "
    "Here, I provide you with my current evidence (in the form of a probability "
    "distribution over the potential categories), its 3D geometry through a "
    "voxel-based reconstruction, and a set of views of the object. Given this "
    "information, you have to provide an answer in the form of "
    '"The object category is <object_category>", where only the potential '
    "categories provided in the evidence are valid."
)

ANSWER_PHRASE = "the object category is"

GEOMETRY_VOXEL_CAP = 16

DEFAULT_MIN_PROB = 0.15
DEFAULT_VIEWS_PER_CANDIDATE = 3


class DisambiguationError(ValueError):
    """A request cannot be built for this instance."""


class DecisionParseError(ValueError):
    """The client response does not contain a usable decision."""


class ClientError(RuntimeError):
    """Transport-level failure while querying the decision client."""


@dataclass
class GeometrySummary:
    voxel_count: int
    bbox_min: VoxelKey
    bbox_max: VoxelKey
    voxels: list[VoxelKey]  # the prompt's sample, at most GEOMETRY_VOXEL_CAP


@dataclass
class DisambiguationRequest:
    instance_id: int
    evidence: dict[str, float]  # the category distribution, over every label with evidence
    candidates: list[str]  # descending probability, >= 2 entries
    geometry: GeometrySummary
    views: list[Observation]
    prompt: str = ""


@dataclass
class DisambiguationDecision:
    instance_id: int
    chosen_category: str
    raw_response: str


@dataclass
class DisambiguationReport:
    decisions: list[DisambiguationDecision] = field(default_factory=list)
    parse_failures: list[tuple[int, str]] = field(default_factory=list)
    client_failures: list[tuple[int, str]] = field(default_factory=list)


def select_candidates(evidence: dict[str, float], min_prob: float = DEFAULT_MIN_PROB) -> list[str]:
    """Candidate categories of a category distribution: everything at or
    above min_prob, at least the top 2.

    Ordered by descending probability; ties by label.
    """
    ranked = sorted(evidence, key=lambda label: (-evidence[label], label))
    selected = [label for label in ranked if evidence[label] >= min_prob]
    return selected if len(selected) >= 2 else ranked[:2]


def select_views(
    record: InstanceRecord,
    candidates: list[str],
    views_per_candidate: int = DEFAULT_VIEWS_PER_CANDIDATE,
) -> list[Observation]:
    """Per candidate, the highest-confidence observations of that category.

    Observations are ranked by confidence, then frame id.  The first of each
    source frame comes before any same-frame duplicate, so duplicates are
    used only when no other frame remains.  Returns fewer views when fewer
    exist, and none for a negative ``views_per_candidate``.
    """
    views: list[Observation] = []
    for candidate in candidates:
        matching = [obs for obs in record.observations if obs.category == candidate]
        matching.sort(key=lambda obs: (-obs.confidence, obs.frame_id))
        firsts: list[Observation] = []
        duplicates: list[Observation] = []
        frames: set[int] = set()
        for obs in matching:
            (duplicates if obs.frame_id in frames else firsts).append(obs)
            frames.add(obs.frame_id)
        views.extend((firsts + duplicates)[: max(views_per_candidate, 0)])
    return views


def summarize_geometry(keys: np.ndarray, cap: int = GEOMETRY_VOXEL_CAP) -> GeometrySummary:
    """Bounds and a sample of at most ``cap`` voxels of a footprint given as
    sorted packed keys, evenly strided from its first key to its last."""
    if not len(keys):
        return GeometrySummary(voxel_count=0, bbox_min=(0, 0, 0), bbox_max=(0, 0, 0), voxels=[])
    unpacked = unpack_key_array(keys)
    count = min(len(keys), cap)
    return GeometrySummary(
        voxel_count=len(keys),
        bbox_min=tuple(unpacked.min(axis=0).tolist()),  # type: ignore[arg-type]
        bbox_max=tuple(unpacked.max(axis=0).tolist()),  # type: ignore[arg-type]
        voxels=unpack_keys(keys[np.arange(count) * (len(keys) - 1) // max(count - 1, 1)]),
    )


def build_prompt(request: DisambiguationRequest) -> str:
    """Template followed by a machine-readable appendix with the evidence."""
    lines = [PROMPT_TEMPLATE, "", "Evidence (probability per potential category):"]
    for label in request.candidates:
        lines.append(f"- {label}: {request.evidence[label]:.4f}")
    geometry = request.geometry
    lines.append(
        f"Geometry: {geometry.voxel_count} occupied voxels, "
        f"bounds {list(geometry.bbox_min)} to {list(geometry.bbox_max)}, "
        f"sample: {[list(v) for v in geometry.voxels]}"
    )
    lines.append(f"Views ({len(request.views)}):")
    for view in request.views:
        lines.append(
            f"- frame {view.frame_id}, predicted {view.category} "
            f"({view.confidence:.2f}): {view.view_path or f'frame:{view.frame_id}'}"
        )
    return "\n".join(lines)


def build_request(
    record: InstanceRecord,
    min_prob: float = DEFAULT_MIN_PROB,
    views_per_candidate: int = DEFAULT_VIEWS_PER_CANDIDATE,
) -> DisambiguationRequest:
    """Request for one instance: its candidates, geometry and views.

    Raises DisambiguationError for an instance with no category evidence
    or a single candidate.
    """
    if not record.category_evidence:
        raise DisambiguationError("nothing to disambiguate")
    evidence = probabilities(record.category_evidence)
    candidates = select_candidates(evidence, min_prob)
    if len(candidates) < 2:
        raise DisambiguationError(
            f"instance {record.id} has a single candidate category; nothing to disambiguate"
        )
    request = DisambiguationRequest(
        instance_id=record.id,
        evidence=evidence,
        candidates=candidates,
        geometry=summarize_geometry(record.keys),
        views=select_views(record, candidates, views_per_candidate),
    )
    request.prompt = build_prompt(request)
    return request


def parse_decision(response: str, request: DisambiguationRequest) -> DisambiguationDecision:
    """Extract the category following the answer phrase, case-insensitively.

    The extracted category must be one of the request's candidates; anything
    else is a parse error and the caller keeps the instance flagged.
    """
    lowered = response.lower()
    position = lowered.find(ANSWER_PHRASE)
    if position < 0:
        raise DecisionParseError(f"answer phrase not found in {response!r}")
    tail = response[position + len(ANSWER_PHRASE):].strip().strip('"').strip()
    tail_lower = tail.lower()
    for candidate in sorted(request.candidates, key=len, reverse=True):
        lowered_candidate = candidate.lower()
        if tail_lower.startswith(lowered_candidate):
            rest = tail_lower[len(lowered_candidate):]
            if rest == "" or not rest[0].isalnum():
                return DisambiguationDecision(
                    instance_id=request.instance_id,
                    chosen_category=candidate,
                    raw_response=response,
                )
    raise DecisionParseError(f"no candidate category found in {response!r}")


class MockClient:
    """Scripted decision client keyed by instance id."""

    def __init__(self, responses: dict[str, str]) -> None:
        self.responses = {str(key): value for key, value in responses.items()}

    @classmethod
    def from_fixture_file(cls, path: Path | str) -> "MockClient":
        """The client of a JSON object from instance ids to response strings;
        any other file content is a ValueError naming the file."""
        with reading(path):
            responses = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(responses, dict) or not all(isinstance(value, str) for value in responses.values()):
                raise ValueError("fixtures must be a JSON object from instance ids to response strings")
        return cls(responses)

    def query(self, request: DisambiguationRequest) -> str:
        key = str(request.instance_id)
        if key not in self.responses:
            raise ClientError(f"no scripted response for instance {key}")
        return self.responses[key]


class ArgmaxClient:
    """Always answers the top-probability candidate (the top-1 baseline)."""

    def query(self, request: DisambiguationRequest) -> str:
        return f"The object category is {request.candidates[0]}"


@dataclass
class HttpClient:
    """Minimal JSON-over-HTTP decision client.

    Sends ``{"prompt": str, "images": [base64, ...]}`` and expects
    ``{"text": str}`` back.  A view's image is attached when the
    observation has an archived ``view_path`` that is a file.
    """

    endpoint: str
    api_key_env: str = ""
    model: str = ""
    timeout_s: float = 30.0

    def query(self, request: DisambiguationRequest) -> str:
        images = [
            base64.b64encode(Path(view.view_path).read_bytes()).decode("ascii")
            for view in request.views
            if view.view_path and Path(view.view_path).is_file()
        ]
        body: dict = {"prompt": request.prompt, "images": images}
        if self.model:
            body["model"] = self.model
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            token = os.environ.get(self.api_key_env, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        http_request = urllib.request.Request(
            self.endpoint, data=json.dumps(body).encode("utf-8"), headers=headers
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout_s) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ClientError(str(exc)) from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
            raise ClientError(f"response is not an object with a string 'text': {payload!r}")
        return payload["text"]


def disambiguate_all(
    state: MapState,
    client,
    min_prob: float = DEFAULT_MIN_PROB,
    views_per_candidate: int = DEFAULT_VIEWS_PER_CANDIDATE,
) -> DisambiguationReport:
    """Resolve every flagged instance through the client.

    Successful decisions set final_category and clear the flag; failures of
    any kind leave the instance flagged and are recorded per instance.
    Evidence is never mutated.
    """
    report = DisambiguationReport()
    flagged = [
        (instance_id, record)
        for instance_id, record in sorted(state.instances.items())
        if not record.is_unknown and record.flagged
    ]
    for instance_id, record in flagged:
        try:
            request = build_request(record, min_prob, views_per_candidate)
        except DisambiguationError as exc:
            report.parse_failures.append((instance_id, str(exc)))
            continue
        try:
            response = client.query(request)
        except Exception as exc:  # transport failures are never fatal to the batch
            report.client_failures.append((instance_id, str(exc)))
            continue
        if not isinstance(response, str):
            report.client_failures.append((instance_id, f"response is not a string: {response!r}"))
            continue
        try:
            decision = parse_decision(response, request)
        except DecisionParseError as exc:
            report.parse_failures.append((instance_id, str(exc)))
            continue
        record.final_category = decision.chosen_category
        record.flagged = False
        report.decisions.append(decision)
    return report
