"""Every input file of the five commands, malformed, fails as one error line naming it.

The sweep draws each input file from hypothesis: a JSON value in place of
the whole document, or a valid document with one value replaced or deleted
(:func:`fuzzing.mutate_one_value`).  Each run of ``voxeland``, in-process,
must succeed (a disambiguation may record a per-instance failure and still
succeed) or exit 1 with exactly one ``error:`` line on stderr.  It must
warn of nothing, print no traceback, write nothing when it fails, and leave
every input file as it was.  When the file's own reader rejects it, the
error line names the file.  A document its reader accepts may still fail
against the other inputs, as a voxel size too fine for the scene's extent
does; that failure is one error line too.

A scene spec asks ``synth`` for work in proportion to its frame count,
image size and extent over voxel size, and so does its reader for the
frame count: its values are drawn at the scene's scale, small integers and
floats of two decimals, so that no run asks for hours or gigabytes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.cli import main
from voxeland.config import PipelineConfig
from voxeland.disambiguation import MockClient
from voxeland.atomic import reading
from voxeland.frames import DatasetError, load_ground_truth, load_manifest, load_predictions
from voxeland.synthetic import load_scene_spec
from voxeland.voxelmap import MapState, SnapshotError

from fuzzing import JSON_VALUES, mutate_one_value
from snapshot_records import read_records, write_records

SPEC = {
    "room": {"min": [-1.5, -1.5, 0], "max": [1.5, 1.5, 1.5]},
    "voxel_size": 0.05,
    "intrinsics": {
        "fx": 40.0, "fy": 40.0, "cx": 24.0, "cy": 18.0, "width": 48, "height": 36, "depth_scale": 0.001,
    },
    "objects": [
        {"id": "o1", "category": "crate", "min": [0.2, 0.2, 0.0], "max": [0.6, 0.6, 0.5]},
        {"id": "o2", "category": "barrel", "min": [-0.6, -0.5, 0.0], "max": [-0.2, -0.1, 0.4]},
    ],
    "trajectory": {
        "orbit": {"center": [0, 0, 0], "radius": 1.2, "height": 0.9, "frames": 2, "target": [0, 0, 0.2]}
    },
    "noise": {"misclassification_rate": 0.5, "mislabel_confidence": 0.6},
}
CONFIG = {
    "voxel_size": 0.05,
    "refine_every": 1,
    "entropy_threshold": 0.0,
    "min_prob": 0.1,
    "views_per_candidate": 1,
    "iou_threshold": 0.5,
    "eval_classes": ["crate", "barrel"],
}
FIXTURES = {"1": "The object category is crate", "2": "The object category is barrel", "3": "no idea"}

# Numbers at the scene's scale: see the module docstring.
SCENE_SCALE_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.floats(-4, 4).map(lambda x: round(x, 2))
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)

# The file each command reads, under the inputs directory.
FILES = {
    "config": "config.json",
    "spec": "spec.json",
    "manifest": "dataset/manifest.jsonl",
    "predictions": "dataset/predictions/00000.json",
    "ground truth": "dataset/ground_truth.json",
    "fixtures": "fixtures.json",
    "timing": "out/timing.json",
    "snapshot header": "out/map.vxl",
}


def read_predictions(path: Path):
    """The predictions file at ``path``, read at the frame size its dataset's manifest gives."""
    intrinsics = load_manifest(path.parents[1] / "manifest.jsonl")[0].intrinsics
    return load_predictions(path, intrinsics.width, intrinsics.height)


# Each file's reader; timing.json has none but the one in ``eval``.
READERS = {
    "config": PipelineConfig.from_file,
    "spec": load_scene_spec,
    "manifest": load_manifest,
    "predictions": read_predictions,
    "ground truth": load_ground_truth,
    "fixtures": MockClient.from_fixture_file,
    "timing": None,
    "snapshot header": MapState.load_snapshot,
}


def argv(command: str, inputs: Path, result: Path) -> list[str]:
    """The command line of ``command`` on the files under ``inputs``, writing under ``result``."""
    snapshot, config = ["--snapshot", f"{inputs}/out/map.vxl"], ["--config", f"{inputs}/config.json"]
    return [command] + {
        "synth": ["--spec", f"{inputs}/spec.json", "--out", f"{result}/dataset"],
        "build": ["--dataset", f"{inputs}/dataset", *config, "--out", f"{result}/out"],
        "eval": [
            *snapshot, "--gt", f"{inputs}/dataset/ground_truth.json", *config, "--out", f"{result}/report.json",
        ],
        "disambiguate": [
            *snapshot, "--client", "mock", "--fixtures", f"{inputs}/fixtures.json", *config,
            "--out", f"{result}/map.vxl",
        ],
        "export": [*snapshot, "--layer", "instances", "--out", f"{result}/instances.ply"],
    }[command]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """A directory of valid inputs: a scene spec, its two-frame dataset, a
    config, the map built from them with its ``timing.json``, and fixtures."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "config.json").write_text(json.dumps(CONFIG))
    (root / "fixtures.json").write_text(json.dumps(FIXTURES))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--spec", f"{root}/spec.json", "--out", f"{root}/dataset"]) == 0
        assert main(argv("build", root, root)) == 0
    assert any(record.flagged for record in MapState.load_snapshot(root / "out/map.vxl").instances.values())
    return root


def read_document(kind: str, path: Path):
    """The parsed document of an input file: a manifest as the list of its
    lines' values, a snapshot as its header."""
    if kind == "manifest":
        return [json.loads(line) for line in path.read_text().splitlines()]
    if kind == "snapshot header":
        return read_records(path)["header"]
    return json.loads(path.read_text())


def write_document(kind: str, path: Path, document) -> None:
    """Write ``document`` where :func:`read_document` read it; a manifest
    that is not a list is one line."""
    if kind == "manifest":
        lines = document if isinstance(document, list) else [document]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    elif kind == "snapshot header":
        records = read_records(path)
        records["header"] = document
        write_records(path, records)
    else:
        path.write_text(json.dumps(document))


def files_under(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def run(command: str, inputs: Path, result: Path) -> tuple[int, str, list[str]]:
    """Run ``command`` in-process; its exit code, its stderr and the warnings
    it raised.  An exception other than the ones ``main`` turns into an
    error line propagates and fails the test."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv(command, inputs, result))
    return code, stderr.getvalue(), [str(warning.message) for warning in caught]


def check_one_run(kind: str, command: str, inputs: Path, result: Path, path: Path) -> tuple[int, str]:
    """Run ``command`` with the input file ``path`` as it is, check the
    outcomes the module docstring allows, and return the exit code and stderr."""
    before = files_under(inputs)
    code, err, caught = run(command, inputs, result)
    assert caught == []
    assert files_under(inputs) == before
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        return code, err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(result.iterdir()) == [], err
    reader = READERS[kind]
    if reader is None or not_read_by(reader, path):
        assert str(path) in err, err
    return code, err


def not_read_by(reader, path: Path) -> bool:
    """Whether ``reader`` rejects the file at ``path`` with a ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            reader(path)
        except ValueError:
            return True
    return False


SWEEP = [
    ("config", "build"),
    ("config", "eval"),
    ("config", "disambiguate"),
    ("spec", "synth"),
    ("manifest", "build"),
    ("predictions", "build"),
    ("ground truth", "eval"),
    ("fixtures", "disambiguate"),
    ("timing", "eval"),
    ("snapshot header", "export"),
]


@pytest.mark.parametrize("kind, command", SWEEP, ids=[f"{kind}-{command}" for kind, command in SWEEP])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_input_succeeds_or_is_one_error_line(inputs, kind, command, data):
    values = SCENE_SCALE_VALUES if kind == "spec" else JSON_VALUES
    with tempfile.TemporaryDirectory() as tmp:
        work, result = Path(tmp, "inputs"), Path(tmp, "result")
        shutil.copytree(inputs, work)
        result.mkdir()
        path = work / FILES[kind]
        document = mutate_one_value(data, copy.deepcopy(read_document(kind, path)), values)
        write_document(kind, path, document)
        check_one_run(kind, command, work, result, path)


# Files that fail in decoding or in a value's type, not in a reader's own
# check of the document's shape: each with its command and its bytes.
FAR = copy.deepcopy(SPEC)
FAR["trajectory"]["orbit"]["radius"] = "far"
UNNAMED = {
    "config-json": ("config", "build", b'{"voxel_size": 0.05,'),
    "spec-utf-8": ("spec", "synth", b'{"room": "\xff"}'),
    "spec-radius": ("spec", "synth", json.dumps(FAR).encode()),
    "manifest-byte": ("manifest", "build", b'{"frame_id": 0, "depth": "\xff"}\n'),
    "timing-json": ("timing", "eval", b'{"stages": '),
}


@pytest.mark.parametrize("kind, command, content", UNNAMED.values(), ids=UNNAMED)
def test_malformed_input_names_its_file(inputs, tmp_path, kind, command, content):
    work, result = tmp_path / "inputs", tmp_path / "result"
    shutil.copytree(inputs, work)
    result.mkdir()
    path = work / FILES[kind]
    path.write_bytes(content)
    code, err = check_one_run(kind, command, work, result, path)
    assert code == 1
    assert err.startswith(f"error: {path}: ") and err.count(str(path)) == 1, err
    if kind == "manifest":
        assert err.startswith(f"error: {path}: line 1: UnicodeDecodeError: "), err


class TestReading:
    """The guard every reader parses inside."""

    def read(self, raising, error=ValueError):
        with pytest.raises(error) as raised, reading("in.json", error):
            raise raising
        return str(raised.value)

    def test_missing_key_is_named_as_such(self):
        assert self.read(KeyError("room")) == "in.json: missing key 'room'"

    def test_own_errors_keep_their_message(self):
        assert self.read(ValueError("radius 'far' is not float")) == "in.json: radius 'far' is not float"
        assert self.read(TypeError("a run is not an integer")) == "in.json: a run is not an integer"
        assert self.read(SnapshotError("trailing bytes"), SnapshotError) == "in.json: trailing bytes"

    @pytest.mark.parametrize(
        "raising", [json.JSONDecodeError("Expecting value", "", 0), OverflowError("too large"), SyntaxError("x")]
    )
    def test_other_errors_show_their_class(self, raising):
        assert self.read(raising, DatasetError).startswith(f"in.json: {type(raising).__name__}: ")

    def test_an_os_error_or_a_bug_passes_through(self):
        for raising in (FileNotFoundError(2, "No such file or directory", "in.json"), RuntimeError("bug")):
            with pytest.raises(type(raising)) as raised, reading("in.json"):
                raise raising
            assert raised.value is raising
