"""One benchmark run: set-up, mapping rounds, finalize, export, snapshot I/O and checks.

The run drives voxeland only through its public API, the way ``voxeland
build`` does: ``generate_synthetic`` (in a separate process), ``load_manifest``,
``load_frame`` and ``Pipeline.process_frame`` per frame, then the
uncertainty, disambiguation, export and snapshot calls.

Each round maps the whole dataset into a fresh map, saves it, and loads,
re-saves and finalizes the saved copy.  Every round therefore builds the same
map whichever round it is and however fast the rounds run, and the samples
behind save_s, load_s and finalize_s are spread over the whole run rather
than taken back to back, so a few seconds of a slow machine move one sample,
not the median.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from voxeland import disambiguation, evaluation, export, frames, fusion, opinions, uncertainty, voxelmap
from voxeland.config import PipelineConfig
from voxeland.voxelmap import MapState

import checks
from tracing import Tracer, read_jsonl, self_times
from workloads import MIN_FRAMES, ROUND_TRIPS, TAIL_PERCENTILE, Workload

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SYNTH_TIMEOUT_S = 170

# Stage names in Pipeline.timer.report(), by per-layer metric name.
STAGES = {
    "fusion.stage.opinions_ms": "Opinions generation",
    "fusion.stage.association_ms": "Data association",
    "fusion.stage.integration_ms": "Map integration",
    "fusion.stage.refinement_ms": "Map refinement",
}


@dataclass
class RunLog:
    """What one run measured and how many operations it attempted."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, function, *args) -> None:
        try:
            function(*args)
        except checks.CheckError as exc:
            self.errors.append(str(exc))


def _timed(function, *args, **kwargs):
    gc.collect()
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


# -- set-up -------------------------------------------------------------------


def set_up(workload: Workload, seed: int, work: Path, trace_out: Path | None):
    """Generate the dataset in its own process and open its manifest.

    Returns the frame records, the dataset's directory and the set-up time.
    """
    dataset = work / "dataset"
    command = [
        sys.executable, str(HERE / "synth.py"),
        "--workload", workload.name, "--frames", str(workload.frames),
        "--seed", str(seed), "--out", str(dataset),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    start = time.perf_counter()
    subprocess.run(command, check=True, timeout=SYNTH_TIMEOUT_S, stdout=subprocess.DEVNULL)
    records = frames.load_manifest(dataset / "manifest.jsonl")
    return records, dataset, time.perf_counter() - start


# -- mapping ------------------------------------------------------------------


def map_round(records, workload: Workload, config: PipelineConfig, work: Path, log: RunLog):
    """Map every frame into a fresh map.

    Returns the map, the pipeline's stage timer report and the per-frame times.
    """
    state = MapState(voxel_size=config.voxel_size, occupancy=config.occupancy_params())
    pipeline = fusion.Pipeline(
        state,
        clustering=config.clustering_params(),
        association=config.association_config(),
        max_range=config.max_range,
        carve=config.carve_free_space,
        carve_stride=config.carve_stride,
    )
    checkpoint = work / "checkpoint.json"
    times = []
    gc.collect()
    for number, record in enumerate(records, start=1):
        start = time.perf_counter()
        pipeline.process_frame(frames.load_frame(record))
        layers = None
        if workload.query_every and number % workload.query_every == 0:
            uncertainty.declare_categories(state, config.entropy_threshold)
            layers = (uncertainty.geometric_entropy_map(state), uncertainty.semantic_entropy_map(state))
            state.save_snapshot(checkpoint)
        times.append(time.perf_counter() - start)
        log.attempted += 1
        if layers is not None:
            log.attempted += 2  # the query and the checkpoint
            log.check(checks.check_flags, checks.registry(state), config.entropy_threshold)
            log.check(checks.check_layer_values, layers[0].values, layers[1].values, len(state.categories))
    return state, pipeline.timer.report(), times


# -- finalize, export, snapshot I/O ---------------------------------------------


@dataclass
class Samples:
    """Timed samples of the calls after mapping, and the first save every later one must equal.

    The first save is kept on disk, not in memory, so that its bytes do not
    count toward the mapping process's peak memory.
    """

    saves: list[float] = field(default_factory=list)
    loads: list[float] = field(default_factory=list)
    finalizes: list[float] = field(default_factory=list)
    reference: Path | None = None
    reference_digest: str = ""

    def saved(self, seconds: float, path: Path, what: str, log: RunLog) -> None:
        self.saves.append(seconds)
        log.attempted += 1
        if self.reference is None:
            self.reference = path.with_name("first_save.json")
            shutil.copyfile(path, self.reference)
            self.reference_digest = checks.file_digest(self.reference)
        else:
            log.check(checks.check_same_file, self.reference, self.reference_digest, path, what)


def finalize(state, config: PipelineConfig, log: RunLog):
    """Declare categories, compute both entropy layers, disambiguate with ArgmaxClient.

    Returns the time spent in those calls, the two layers, and the registry
    as it stood after declaration.
    """
    declare_s, _ = _timed(uncertainty.declare_categories, state, config.entropy_threshold)
    layers_s, layers = _timed(
        lambda: (uncertainty.geometric_entropy_map(state), uncertainty.semantic_entropy_map(state))
    )
    declared = checks.registry(state)
    disambiguate_s, report = _timed(
        disambiguation.disambiguate_all,
        state,
        disambiguation.ArgmaxClient(),
        min_prob=config.min_prob,
        views_per_candidate=config.views_per_candidate,
    )
    failures = report.parse_failures + report.client_failures
    log.attempted += 1 + len(report.decisions) + len(failures)
    log.failed += len(failures)
    log.check(checks.check_flags, declared, config.entropy_threshold)
    log.check(checks.check_disambiguation, declared, checks.registry(state), {i for i, _ in failures})
    return declare_s + layers_s + disambiguate_s, layers, declared


def round_trip(snapshot: Path, config: PipelineConfig, work: Path, samples: Samples, log: RunLog, resave: bool):
    """Load the snapshot, save the loaded map again if ``resave``, and finalize it."""
    load_s, loaded = _timed(MapState.load_snapshot, snapshot)
    samples.loads.append(load_s)
    log.attempted += 1
    if resave:
        path = work / "resave.json"
        save_s, _ = _timed(loaded.save_snapshot, path)
        samples.saved(save_s, path, "save after load", log)
    finalize_s, layers, declared = finalize(loaded, config, log)
    samples.finalizes.append(finalize_s)
    return loaded, layers, declared


def one_round(records, workload: Workload, config: PipelineConfig, work: Path, samples: Samples, log: RunLog):
    """Map a round, save its map, then round-trip the snapshot ROUND_TRIPS times.

    Only the first round trip saves its loaded copy again: two saves per
    round are enough samples for save_s, and a run stays short enough for a
    full measurement.

    Every save in a run must give the same bytes, which also checks that
    every round built the same map.  Returns the frame times, the stage
    timer report, the map's cell and instance counts, and the last round
    trip's result.
    """
    state, report, times = map_round(records, workload, config, work, log)
    sizes = {"voxelmap.instances": len(state.instances)}
    if hasattr(state, "cells"):
        sizes["voxelmap.cells"] = len(state.cells)
    snapshot = work / "map.json"
    save_s, _ = _timed(state.save_snapshot, snapshot)
    samples.saved(save_s, snapshot, "save of a later round's map", log)
    del state  # only one map is alive while the next one is built
    kept = None
    for trip in range(ROUND_TRIPS):
        kept = None  # free the previous copy before loading the next
        kept = round_trip(snapshot, config, work, samples, log, resave=trip == 0)
    return times, report, sizes, kept


def export_layers(state, layers, work: Path) -> tuple[float, dict[str, Path]]:
    """The four PLY exports that ``voxeland build`` writes."""
    paths = {
        "geometric": work / "geom_entropy.ply",
        "semantic": work / "sem_entropy.ply",
        "instances": work / "instances.ply",
        "semantics": work / "semantics.ply",
    }

    def write_all() -> None:
        export.export_entropy_layer(state, layers[0], paths["geometric"])
        export.export_entropy_layer(state, layers[1], paths["semantic"])
        export.export_instance_map(state, paths["instances"])
        export.export_semantic_map(state, paths["semantics"])

    seconds, _ = _timed(write_all)
    return seconds, paths


def export_checked(kept, work: Path, log: RunLog) -> float:
    """Export a round trip's finalized map, check the files, and return the export time."""
    loaded, layers, _ = kept
    export_s, paths = export_layers(loaded, layers, work)
    log.attempted += len(paths)
    log.check(
        checks.check_exports,
        paths["geometric"], paths["semantic"], paths["instances"], paths["semantics"], len(loaded.categories),
    )
    return export_s


def evaluate_kept(kept, workload: Workload, config: PipelineConfig, dataset: Path, work: Path, log: RunLog):
    """Evaluate a round trip's finalized map against ground truth; returns its declared registry."""
    loaded, _, declared = kept
    if workload.noiseless:
        log.check(checks.check_no_flags, declared)
    gt = frames.load_ground_truth(dataset / "ground_truth.json")
    report = evaluation.evaluate(
        loaded, gt, evaluation.EvalConfig(iou_threshold=config.iou_threshold, classes=config.eval_classes)
    )
    report_path = work / "eval.json"
    report.save(report_path)
    log.attempted += 1
    log.check(checks.check_eval_report, report_path, 1.0 if workload.noiseless else None)
    return declared


# -- tracing ------------------------------------------------------------------


def _one(args, kwargs, result) -> int:
    return 1


def _distinct_voxels(args, kwargs, result) -> int:
    """Distinct map voxels an integrated opinion touches, keyed as the map keys them.

    The keys are those ``fusion.opinion_voxel_counts`` builds, without its
    per-voxel dict, which raised the tracing overhead on orbit-vga from 7%
    to 25%.
    """
    keys = voxelmap.pack_keys(voxelmap.points_to_keys(args[0].points, args[2].voxel_size))
    return len(np.unique(keys))


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's functions under the names their callers look them up by."""
    tracer.wrap(frames, "load_frame", "frames.load_frame")
    tracer.wrap(frames, "decode_rle_mask", "frames.decode_rle_mask", {"calls": _one})
    tracer.wrap(
        opinions, "backproject_pixels", "frames.backproject_pixels",
        {"points": lambda a, k, r: len(r[0])},
    )
    tracer.wrap(fusion, "build_opinions", "opinions.build_opinions")
    tracer.wrap(opinions, "dbscan", "opinions.dbscan", {"calls": _one, "centers": lambda a, k, r: len(r)})
    tracer.wrap(fusion, "associate", "fusion.associate")
    tracer.wrap(fusion, "integrate_geometric", "fusion.integrate_geometric", {"voxels": _distinct_voxels})
    tracer.wrap(fusion, "integrate_semantic", "fusion.integrate_semantic")
    tracer.wrap(fusion, "refine", "fusion.refine", {"calls": _one, "merges": lambda a, k, r: len(r)})
    tracer.wrap(MapState, "save_snapshot", "voxelmap.save_snapshot")
    tracer.wrap(MapState, "load_snapshot", "voxelmap.load_snapshot")
    tracer.wrap(uncertainty, "declare_categories", "uncertainty.declare_categories")
    tracer.wrap(uncertainty, "geometric_entropy_map", "uncertainty.geometric_entropy_map")
    tracer.wrap(uncertainty, "semantic_entropy_map", "uncertainty.semantic_entropy_map")
    tracer.count_calls(uncertainty, "expected_entropy", "evidence.expected_entropy.calls")
    tracer.wrap(disambiguation, "disambiguate_all", "disambiguation.disambiguate_all")
    tracer.wrap(disambiguation, "summarize_geometry", "disambiguation.summarize_geometry")
    tracer.count_calls(disambiguation, "build_request", "disambiguation.requests")
    tracer.wrap(export, "export_entropy_layer", "export.export_entropy_layer")
    tracer.wrap(export, "export_instance_map", "export.export_instance_map")
    tracer.wrap(export, "export_semantic_map", "export.export_semantic_map")
    tracer.wrap(export, "write_ply", "export.write_ply")


TRACED_TIMES = (
    "synthetic.render_frame", "synthetic.ground_truth_scene", "synthetic.generate_synthetic",
    "frames.load_frame", "frames.decode_rle_mask", "frames.backproject_pixels",
    "opinions.build_opinions", "opinions.dbscan",
    "fusion.associate", "fusion.integrate_geometric", "fusion.integrate_semantic", "fusion.refine",
    "voxelmap.save_snapshot", "voxelmap.load_snapshot",
    "uncertainty.declare_categories", "uncertainty.geometric_entropy_map",
    "uncertainty.semantic_entropy_map",
    "disambiguation.disambiguate_all", "disambiguation.summarize_geometry",
    "export.export_entropy_layer", "export.export_instance_map", "export.export_semantic_map",
    "export.write_ply",
)


def layer_metrics(tracer: Tracer, synth_records: list[dict], stage_reports: list[dict], extra: dict) -> dict:
    """Per-layer metrics: self times, exact counts, and stage means of the untraced rounds."""
    main_records = tracer.records("map")
    seconds = self_times(synth_records)
    seconds.update(self_times(main_records))
    metrics = {}
    for name in TRACED_TIMES:
        if name not in tracer.absent:
            metrics[f"{name}.s"] = (seconds.get(name, 0.0), "s")
    for name, count in sorted(tracer.counts.items()):
        metrics[name] = (count, "count")
    for metric, stage in STAGES.items():
        reports = [report["stages"].get(stage) for report in stage_reports]
        if all(reports):
            runs = sum(r["runs"] for r in reports)
            total = sum(r["mean_ms"] * r["runs"] for r in reports)
            metrics[metric] = (total / runs if runs else 0.0, "ms")
    for name, value in extra.items():
        metrics[name] = (value, "count")
    return metrics


# -- one run ------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of the workload: metrics, operation counts and whether every check passed.

    Rounds repeat until ``seconds`` have passed and ``MIN_FRAMES`` frames
    are mapped.  The first and the last round export their finalized map,
    so that the export samples, like the save, load and finalize ones, come
    from both ends of the run.  A traced run
    then maps and exports one more round with every layer wrapped.
    """
    config = PipelineConfig(**workload.config)
    work = OUT / "work" / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log, samples, tracer = RunLog(), Samples(), Tracer()
    synth_trace = work / "synth_trace.jsonl" if trace else None
    try:
        records, dataset, setup_s = set_up(workload, seed, work, synth_trace)
        frame_times, stage_reports, export_times = [], [], []
        started = time.perf_counter()
        last = False
        while not last:
            times, report, _, kept = one_round(records, workload, config, work, samples, log)
            frame_times += times
            stage_reports.append(report)
            last = time.perf_counter() - started >= seconds and len(frame_times) >= MIN_FRAMES
            if last or len(stage_reports) == 1:
                export_times.append(export_checked(kept, work, log))
            if not last:
                kept = None  # only one map is alive while the next one is built
        if trace:
            kept = None
            install_tracing(tracer)
            round_span = tracer.begin("bench.round")
            traced_times, _, sizes, kept = one_round(records, workload, config, work, samples, log)
            tracer.end(round_span)
            export_checked(kept, work, log)
        declared = evaluate_kept(kept, workload, config, dataset, work, log)
    finally:
        tracer.uninstall()

    if trace:
        trace_path = OUT / "traces" / f"{workload.name}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path, "map")
        with trace_path.open("a", encoding="utf-8") as handle:
            handle.write(synth_trace.read_text(encoding="utf-8"))
        extra = {**sizes, "uncertainty.flagged": sum(1 for entry in declared.values() if entry["flagged"])}
        metrics = layer_metrics(tracer, read_jsonl(synth_trace), stage_reports, extra)
        untraced_hz = len(frame_times) / math.fsum(frame_times)
        traced_hz = len(traced_times) / math.fsum(traced_times)
        metrics["trace.overhead_pct"] = (100.0 * (untraced_hz / traced_hz - 1.0), "%")
    else:
        times_ms = np.asarray(frame_times) * 1000.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "map_hz": (len(frame_times) / math.fsum(frame_times), "frames/s"),
            "frame_ms_p50": (float(np.percentile(times_ms, 50)), "ms"),
            "frame_ms_tail": (float(np.percentile(times_ms, TAIL_PERCENTILE)), "ms"),
            "finalize_s": (statistics.median(samples.finalizes), "s"),
            "export_s": (statistics.median(export_times), "s"),
            "save_s": (statistics.median(samples.saves), "s"),
            "load_s": (statistics.median(samples.loads), "s"),
            "snapshot_bytes": (samples.reference.stat().st_size, "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    shutil.rmtree(work, ignore_errors=True)
    step = workload.frames
    rounds = [round(math.fsum(frame_times[i : i + step]), 3) for i in range(0, len(frame_times), step)]
    print(
        f"{workload.name} seed {seed}: set-up {setup_s:.3f} s, "
        f"rounds {rounds} s, saves {[round(t, 3) for t in samples.saves]} s, "
        f"loads {[round(t, 3) for t in samples.loads]} s, finalizes {[round(t, 3) for t in samples.finalizes]} s, "
        f"exports {[round(t, 3) for t in export_times]} s",
        file=sys.stderr,
    )
    for error in log.errors:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": not log.errors,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
