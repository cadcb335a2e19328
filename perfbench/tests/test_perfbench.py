"""Tests of the benchmark itself.

A tiny version of each workload runs to its end and passes its checks, and
each check fails on a deliberately corrupted output.  Run from the root of
the checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench
import checks
from tracing import Tracer, self_times
from workloads import WORKLOADS

from voxeland.config import PipelineConfig
from voxeland.voxelmap import MapState

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    """The workload with few frames."""
    workload = WORKLOADS[name]
    frames = {"orbit-vga": 8, "clutter-qvga": 4, "query-qvga": 6}[name]
    return dataclasses.replace(
        workload,
        frames=frames,
        config={**workload.config, "refine_every": frames // 2},
        query_every=3 if workload.query_every else 0,
    )


@pytest.fixture(autouse=True)
def single_round(monkeypatch):
    """With no time to fill, a run maps a single round, with one round trip."""
    monkeypatch.setattr(bench, "MIN_FRAMES", 1)
    monkeypatch.setattr(bench, "ROUND_TRIPS", 1)


# -- tiny workloads end to end ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    result = bench.run(tiny(name), 3, 0.0, trace=False)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = bench.run(tiny("clutter-qvga"), 3, 0.0, trace=True)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["disambiguation.requests"] > 0
    assert values["fusion.refine.calls"] == 2  # 4 frames, refine_every 2, one traced round
    assert values["frames.decode_rle_mask.calls"] > 0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "orbit-vga", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- every check fails on a corrupted output -------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The files and registries of a tiny clutter run, kept for corruption."""
    work = tmp_path_factory.mktemp("outputs")
    workload = tiny("clutter-qvga")
    config = PipelineConfig(**workload.config)
    log = bench.RunLog()
    samples = bench.Samples()
    records, dataset, _ = bench.set_up(workload, 5, work, None)
    *_, kept = bench.one_round(records, workload, config, work, samples, log)
    bench.export_checked(kept, work, log)
    declared = bench.evaluate_kept(kept, workload, config, dataset, work, log)
    assert log.errors == []
    loaded = MapState.load_snapshot(work / "map.json")
    bench.finalize(loaded, config, log)
    return {
        "work": work,
        "declared": declared,
        "after": checks.registry(loaded),
        "categories": len(loaded.categories),
        "threshold": config.entropy_threshold,
    }


def _flagged(outputs) -> int:
    flagged = [i for i, entry in outputs["declared"].items() if entry["flagged"]]
    assert flagged, "the tiny clutter map should have flagged instances"
    return flagged[0]


def _exports(outputs, target: Path) -> list[Path]:
    names = ("geom_entropy.ply", "sem_entropy.ply", "instances.ply", "semantics.ply")
    for name in names:
        shutil.copy(outputs["work"] / name, target / name)
        if (outputs["work"] / f"{name}.json").exists():
            shutil.copy(outputs["work"] / f"{name}.json", target / f"{name}.json")
    return [target / name for name in names]


def test_flag_check_fails_on_one_flipped_flag(outputs):
    declared = json.loads(json.dumps(outputs["declared"]))
    checks.check_flags(outputs["declared"], outputs["threshold"])
    victim = str(_flagged(outputs))
    declared[victim]["flagged"] = False
    with pytest.raises(checks.CheckError, match="flagged"):
        checks.check_flags(declared, outputs["threshold"])


def test_flag_check_uses_its_own_entropy():
    evidence = {"chair": 2.0, "table": 1.0}
    entropy = checks.expected_entropy(evidence)
    assert entropy == pytest.approx(1.5 - 2 / 3, abs=1e-12)  # psi(3) - 2/3 psi(2) - 1/3 psi(1)
    checks.check_flags({1: {"category_evidence": evidence, "flagged": True}}, entropy - 0.01)
    with pytest.raises(checks.CheckError):
        checks.check_flags({1: {"category_evidence": evidence, "flagged": True}}, entropy + 0.01)
    # within 1e-9 of the threshold either answer is accepted
    checks.check_flags({1: {"category_evidence": evidence, "flagged": True}}, entropy + 1e-10)


def test_no_flag_check_fails_on_a_flag(outputs):
    with pytest.raises(checks.CheckError, match="flagged instances"):
        checks.check_no_flags(outputs["declared"])


def test_disambiguation_check_fails_on_a_wrong_category(outputs):
    checks.check_disambiguation(outputs["declared"], outputs["after"])
    victim = _flagged(outputs)
    evidence = outputs["declared"][victim]["category_evidence"]
    wrong = next(label for label in sorted(evidence) if label != checks.top_category(evidence))
    after = {i: dict(entry) for i, entry in outputs["after"].items()}
    after[victim]["final_category"] = wrong
    with pytest.raises(checks.CheckError, match="expected"):
        checks.check_disambiguation(outputs["declared"], after)


def test_disambiguation_check_fails_on_changed_evidence(outputs):
    victim = _flagged(outputs)
    after = {i: dict(entry) for i, entry in outputs["after"].items()}
    after[victim]["category_evidence"] = {**after[victim]["category_evidence"], "chair": 99.0}
    with pytest.raises(checks.CheckError, match="evidence"):
        checks.check_disambiguation(outputs["declared"], after)


def test_disambiguation_check_keeps_failed_requests_flagged(outputs):
    victim = _flagged(outputs)
    after = {i: dict(entry) for i, entry in outputs["after"].items()}
    after[victim].update(flagged=True, final_category=None)
    checks.check_disambiguation(outputs["declared"], after, {victim})
    with pytest.raises(checks.CheckError, match="expected"):
        checks.check_disambiguation(outputs["declared"], after)
    with pytest.raises(checks.CheckError, match="request failed"):
        checks.check_disambiguation(outputs["declared"], outputs["after"], {victim})


def test_top_category_breaks_ties_by_label():
    assert checks.top_category({"table": 1.0, "chair": 1.0, "lamp": 0.5}) == "chair"


def test_snapshot_check_fails_on_one_changed_byte(outputs, tmp_path):
    reference = outputs["work"] / "map.json"
    digest = checks.file_digest(reference)
    copy = tmp_path / "copy.json"
    shutil.copyfile(reference, copy)
    checks.check_same_file(reference, digest, copy, "save")
    corrupt = bytearray(reference.read_bytes())
    offset = len(corrupt) - 5
    corrupt[offset] ^= 0x01
    copy.write_bytes(bytes(corrupt))
    with pytest.raises(checks.CheckError, match=f"offset {offset}"):
        checks.check_same_file(reference, digest, copy, "save")
    copy.write_bytes(bytes(corrupt[:offset]))
    with pytest.raises(checks.CheckError, match=f"offset {offset}"):
        checks.check_same_file(reference, digest, copy, "save")


def test_export_check_fails_on_a_truncated_ply(outputs, tmp_path):
    paths = _exports(outputs, tmp_path)
    checks.check_exports(*paths, outputs["categories"])
    data = paths[2].read_bytes()
    paths[2].write_bytes(data[: len(data) - 40])
    with pytest.raises(checks.CheckError, match="instances.ply"):
        checks.check_exports(*paths, outputs["categories"])


def test_export_check_fails_on_unequal_vertex_counts(outputs, tmp_path):
    paths = _exports(outputs, tmp_path)
    header, _, body = paths[3].read_bytes().partition(b"end_header\n")
    rows = body.split(b"\n")[:-2]
    count = len(rows)
    header = header.replace(f"element vertex {count + 1}".encode(), f"element vertex {count}".encode())
    paths[3].write_bytes(header + b"end_header\n" + b"\n".join(rows) + b"\n")
    with pytest.raises(checks.CheckError, match="vertex counts differ"):
        checks.check_exports(*paths, outputs["categories"])


@pytest.mark.parametrize("layer, value", [(0, -0.25), (1, "above")])
def test_export_check_fails_on_entropy_out_of_range(outputs, tmp_path, layer, value):
    paths = _exports(outputs, tmp_path)
    sidecar_path = Path(str(paths[layer]) + ".json")
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["values"][0]["entropy"] = math.log(outputs["categories"]) + 0.01 if value == "above" else value
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_exports(*paths, outputs["categories"])


def test_layer_value_check_fails_out_of_range():
    checks.check_layer_values({(0, 0, 0): 0.0}, {(0, 0, 0): math.log(3)}, 3)
    with pytest.raises(checks.CheckError):
        checks.check_layer_values({(0, 0, 0): -0.1}, {}, 3)
    with pytest.raises(checks.CheckError):
        checks.check_layer_values({}, {(0, 0, 0): math.log(3) + 0.01}, 3)


def test_eval_check_fails_on_a_wrong_map(outputs, tmp_path):
    report = json.loads((outputs["work"] / "eval.json").read_text())
    score = checks.check_eval_report(outputs["work"] / "eval.json", None)
    assert score < 1.0
    with pytest.raises(checks.CheckError, match="expected exactly 1.0"):
        checks.check_eval_report(outputs["work"] / "eval.json", 1.0)
    report["map_score"] = score + 0.01
    corrupt = tmp_path / "eval.json"
    corrupt.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="not the mean"):
        checks.check_eval_report(corrupt, None)


# -- tracing -------------------------------------------------------------------------


class Owner:
    @classmethod
    def build(cls, n):
        return [n] * n


def test_tracer_wraps_and_restores():
    module = types.SimpleNamespace(outer=None, inner=lambda n: n + 1)
    module.outer = lambda n: module.inner(n) * 2
    original = module.inner, module.outer, Owner.__dict__["build"]
    tracer = Tracer()
    tracer.wrap(module, "inner", "m.inner", {"calls": lambda a, k, r: 1})
    tracer.wrap(module, "outer", "m.outer")
    tracer.wrap(Owner, "build", "m.build", {"items": lambda a, k, r: len(r)})
    tracer.wrap(module, "missing", "m.missing")
    tracer.count_calls(module, "inner", "m.inner.counted")
    assert module.outer(3) == 8
    assert Owner.build(4) == [4, 4, 4, 4]
    tracer.uninstall()
    assert (module.inner, module.outer, Owner.__dict__["build"]) == original
    assert tracer.counts == {"m.inner.calls": 1, "m.build.items": 4, "m.inner.counted": 1}
    assert tracer.absent == ["m.missing"]
    names = [record["name"] for record in tracer.records("test")]
    assert names == ["m.outer", "m.inner", "m.build"]
    assert tracer.records("test")[1]["parent"] == 0


def test_self_time_subtracts_children():
    records = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 5.0, "end": 6.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert self_times(records) == {"a": 6.0, "b": 3.0, "c": 1.0}
