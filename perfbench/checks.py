"""Correctness checks on what a user of voxeland reads.

The checks look only at the eval report, the PLY files and their JSON
sidecars, snapshot files, the entropy layers the uncertainty calls return,
and the instance registry (``category_evidence``, ``flagged``,
``final_category``).  Each one compares against ground truth, an
independent recomputation, or a property the method must have -- never
against a stored copy of an earlier output -- and raises :class:`CheckError`
naming what is wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from scipy.special import digamma

THRESHOLD_EXEMPTION = 1e-9
ENTROPY_TOLERANCE = 1e-9


class CheckError(AssertionError):
    """An output of the program is wrong."""


def expected_entropy(evidence: dict[str, float]) -> float:
    """psi(S) - sum_k (m_k / S) psi(m_k) over the positive masses, in nats."""
    masses = [m for m in evidence.values() if m > 0]
    total = math.fsum(masses)
    return float(digamma(total)) - math.fsum((m / total) * float(digamma(m)) for m in masses)


def top_category(evidence: dict[str, float]) -> str:
    """The highest-probability category; ties go to the smallest label."""
    total = math.fsum(evidence.values())
    return min(evidence, key=lambda label: (-(evidence[label] / total), label))


def registry(state) -> dict[int, dict]:
    """The user-visible registry fields of every instance except the unknown one."""
    return {
        instance_id: {
            "category_evidence": dict(record.category_evidence),
            "flagged": record.flagged,
            "final_category": record.final_category,
        }
        for instance_id, record in state.instances.items()
        if not record.is_unknown
    }


def check_flags(entries: dict[int, dict], threshold: float) -> None:
    """An instance is flagged if and only if its expected entropy reaches the threshold.

    Instances without category evidence must be flagged; those within
    THRESHOLD_EXEMPTION of the threshold are exempt.
    """
    for instance_id, entry in sorted(entries.items()):
        evidence = entry["category_evidence"]
        if not evidence:
            if not entry["flagged"]:
                raise CheckError(f"instance {instance_id} has no category evidence but is not flagged")
            continue
        entropy = expected_entropy(evidence)
        if abs(entropy - threshold) <= THRESHOLD_EXEMPTION:
            continue
        if entry["flagged"] != (entropy >= threshold):
            raise CheckError(
                f"instance {instance_id}: expected entropy {entropy:.12f} vs threshold "
                f"{threshold} but flagged={entry['flagged']}"
            )


def check_no_flags(entries: dict[int, dict]) -> None:
    flagged = sorted(i for i, entry in entries.items() if entry["flagged"])
    if flagged:
        raise CheckError(f"noiseless scene has flagged instances {flagged}")


def check_disambiguation(
    before: dict[int, dict], after: dict[int, dict], failed: set[int] = frozenset()
) -> None:
    """After ArgmaxClient, every formerly flagged instance carries its top category.

    Category evidence is never rewritten.  Instances whose request failed
    (``failed``, counted as failed operations) must stay flagged; no other
    instance may.
    """
    if sorted(before) != sorted(after):
        raise CheckError("disambiguation changed the set of instances")
    for instance_id in sorted(before):
        old, new = before[instance_id], after[instance_id]
        if new["category_evidence"] != old["category_evidence"]:
            raise CheckError(f"instance {instance_id}: disambiguation changed its category evidence")
        if not old["flagged"]:
            continue
        if instance_id in failed:
            if not new["flagged"]:
                raise CheckError(f"instance {instance_id}: its request failed but it is no longer flagged")
            continue
        expected = top_category(old["category_evidence"])
        if new["flagged"] or new["final_category"] != expected:
            raise CheckError(
                f"instance {instance_id}: after disambiguation flagged={new['flagged']}, "
                f"final_category={new['final_category']!r}, expected {expected!r}"
            )


def file_digest(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def check_same_file(reference: Path, reference_digest: str, other: Path, what: str) -> None:
    """``other`` holds the same bytes as ``reference``, whose digest is given.

    The files are compared chunk by chunk only when the digests differ, to
    name the first offset where they do.
    """
    if file_digest(other) == reference_digest:
        return
    offset = 0
    with open(reference, "rb") as a, open(other, "rb") as b:
        while True:
            chunk_a, chunk_b = a.read(1 << 20), b.read(1 << 20)
            if chunk_a != chunk_b:
                offset += next(
                    (i for i, (x, y) in enumerate(zip(chunk_a, chunk_b)) if x != y),
                    min(len(chunk_a), len(chunk_b)),
                )
                break
            if not chunk_a:
                break
            offset += len(chunk_a)
    raise CheckError(
        f"{what}: {Path(other).stat().st_size} bytes differ from the first save's "
        f"{Path(reference).stat().st_size} at offset {offset}"
    )


def ply_vertex_count(path: Path) -> int:
    """Vertex count of an ASCII PLY file, after checking its body matches its header."""
    data = Path(path).read_bytes()
    header, sep, body = data.partition(b"end_header\n")
    if not sep or not header.startswith(b"ply\nformat ascii 1.0\n"):
        raise CheckError(f"{path.name}: not an ASCII PLY file")
    declared = [line for line in header.split(b"\n") if line.startswith(b"element vertex ")]
    if len(declared) != 1:
        raise CheckError(f"{path.name}: no single vertex element in the header")
    count = int(declared[0].split()[2])
    lines = body.split(b"\n")
    if lines[-1] != b"":
        raise CheckError(f"{path.name}: body does not end with a newline")
    rows = lines[:-1]
    if len(rows) != count:
        raise CheckError(f"{path.name}: header declares {count} vertices, body has {len(rows)}")
    for row in (rows[0], rows[-1]) if rows else ():
        if len(row.split()) != 6:
            raise CheckError(f"{path.name}: vertex row {row!r} does not have 6 fields")
    return count


def check_exports(
    geometric: Path, semantic: Path, instances: Path, semantics: Path, categories: int
) -> int:
    """The four PLY files agree on vertex count and the entropy sidecars are in range.

    Returns the common vertex count.
    """
    counts = {path.name: ply_vertex_count(path) for path in (geometric, semantic, instances, semantics)}
    if len(set(counts.values())) != 1:
        raise CheckError(f"PLY vertex counts differ: {counts}")
    count = next(iter(counts.values()))
    h_max = math.log(categories)
    for path, low, high in ((geometric, 0.0, math.inf), (semantic, 0.0, h_max)):
        sidecar = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
        values = [entry["entropy"] for entry in sidecar["values"]]
        if len(values) != count:
            raise CheckError(f"{path.name}.json holds {len(values)} values for {count} vertices")
        bad = [v for v in values if not (low - ENTROPY_TOLERANCE <= v <= high + ENTROPY_TOLERANCE)]
        if bad:
            raise CheckError(f"{path.name}.json: {len(bad)} values outside [{low}, {high}], e.g. {bad[0]}")
    return count


def check_layer_values(geometric: dict, semantic: dict, categories: int) -> None:
    """In-memory entropy layers: geometric never negative, semantic within [0, ln K]."""
    h_max = math.log(categories)
    if any(v < -ENTROPY_TOLERANCE for v in geometric.values()):
        raise CheckError("negative geometric entropy")
    if any(not (-ENTROPY_TOLERANCE <= v <= h_max + ENTROPY_TOLERANCE) for v in semantic.values()):
        raise CheckError(f"semantic entropy outside [0, ln {categories}]")


def check_eval_report(path: Path, exact_map: float | None) -> float:
    """The report's mAP is the mean of its per-class APs, each in [0, 1].

    With ``exact_map`` set, mAP must equal it exactly.  Returns the mAP.
    """
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    per_class = report["per_class_ap"]
    score = report["map_score"]
    if not per_class or any(not (0.0 <= ap <= 1.0) for ap in per_class.values()):
        raise CheckError(f"per-class AP missing or outside [0, 1]: {per_class}")
    if abs(score - math.fsum(per_class.values()) / len(per_class)) > 1e-12:
        raise CheckError(f"mAP {score} is not the mean of {per_class}")
    if exact_map is not None and score != exact_map:
        raise CheckError(f"mAP {score!r}, expected exactly {exact_map!r}")
    return score
