import copy
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from voxeland import fusion, synthetic
from voxeland.cli import main
from voxeland.voxelmap import MapState

from maps import add_evidence
from oracles import oracle_snapshot_dict
from snapshot_records import corrupted_snapshot, declare_shape

SCENE_SPEC = {
    "room": {"min": [-3, -3, 0], "max": [3, 3, 2.4]},
    "voxel_size": 0.02,
    "intrinsics": {
        "fx": 130.0, "fy": 130.0, "cx": 80.0, "cy": 60.0,
        "width": 160, "height": 120, "depth_scale": 0.001,
    },
    "objects": [
        {"id": "o1", "category": "crate", "min": [0.31, 0.31, 0.0], "max": [0.71, 0.71, 0.5]},
        {"id": "o2", "category": "barrel", "min": [-0.69, -0.49, 0.0], "max": [-0.31, -0.11, 0.4]},
    ],
    "trajectory": {
        "orbit": {"center": [0, 0, 0], "radius": 1.9, "height": 1.1, "frames": 8, "target": [0, 0, 0.25]}
    },
}

IDENTITY_ROTATION = [1, 0, 0, 0, 1, 0, 0, 0, 1]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "scene.json"
    spec.write_text(json.dumps(SCENE_SPEC))
    dataset = root / "dataset"
    out = root / "out"
    assert main(["synth", "--spec", str(spec), "--seed", "3", "--out", str(dataset)]) == 0
    config = root / "config.json"
    config.write_text(json.dumps({"refine_every": 4}))
    assert main(["build", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]) == 0
    return root, dataset, out


class TestSynthBuildEval:
    def test_build_artifacts_exist(self, built):
        _, _, out = built
        for name in (
            "map.vxl",
            "timing.json",
            "geom_entropy.ply",
            "geom_entropy.ply.json",
            "sem_entropy.ply",
            "sem_entropy.ply.json",
            "instances.ply",
            "semantics.ply",
        ):
            assert (out / name).exists(), name

    def test_noiseless_eval_reaches_perfect_map(self, built):
        root, dataset, out = built
        report_path = root / "report.json"
        code = main(
            [
                "eval",
                "--snapshot", str(out / "map.vxl"),
                "--gt", str(dataset / "ground_truth.json"),
                "--out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["map_score"] == 1.0
        assert report["per_class_ap"] == {"barrel": 1.0, "crate": 1.0}

    def test_eval_report_embeds_adjacent_timing(self, built):
        root, dataset, out = built
        report_path = root / "timed_report.json"
        assert (
            main(
                [
                    "eval",
                    "--snapshot", str(out / "map.vxl"),
                    "--gt", str(dataset / "ground_truth.json"),
                    "--out", str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["timing"] is not None
        assert "Opinions generation" in report["timing"]["stages"]

    def test_timing_report_covers_stages(self, built, capsys):
        _, _, out = built
        timing = json.loads((out / "timing.json").read_text())
        for stage in (
            "Opinions generation",
            "Data association",
            "Map integration",
            "Map refinement",
        ):
            assert stage in timing["stages"]
        assert timing["stages"]["Map refinement"]["runs"] == 2  # 8 frames / refine_every 4
        for entry in timing["stages"].values():
            assert set(entry) == {"mean_ms", "p50_ms", "p95_ms", "max_ms", "runs"}
            assert 0 < entry["p50_ms"] <= entry["p95_ms"] <= entry["max_ms"]
        assert timing["frame_rate_hz"] > 0
        for merge in timing["merges"]:
            assert set(merge) == {"frame_id", "kept_id", "retired_id", "iou", "ios"}

    def test_eval_without_gt_fails(self, built, capsys):
        root, dataset, out = built
        code = main(
            [
                "eval",
                "--snapshot", str(out / "map.vxl"),
                "--gt", str(root / "missing.json"),
                "--out", str(root / "r.json"),
            ]
        )
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_export_layers(self, built):
        root, _, out = built
        for layer in ("instances", "semantics", "geom-entropy", "sem-entropy"):
            target = root / f"{layer}.ply"
            code = main(
                ["export", "--snapshot", str(out / "map.vxl"), "--layer", layer, "--out", str(target)]
            )
            assert code == 0
            header = target.read_text().splitlines()
            assert header[0] == "ply"
            assert any(line.startswith("element vertex") for line in header)

    def test_rebuild_writes_the_same_files(self, built, tmp_path):
        """A second build of the same dataset writes the snapshot, the four
        PLY files and both sidecars byte for byte as the first."""
        root, dataset, out = built
        again = tmp_path / "again"
        config = root / "config.json"
        assert main(["build", "--dataset", str(dataset), "--config", str(config), "--out", str(again)]) == 0
        for name in (
            "map.vxl",
            "geom_entropy.ply",
            "geom_entropy.ply.json",
            "sem_entropy.ply",
            "sem_entropy.ply.json",
            "instances.ply",
            "semantics.ply",
        ):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_build_failure_removes_created_out_dir(self, tmp_path, capsys):
        out = tmp_path / "fresh_out"
        code = main(["build", "--dataset", str(tmp_path / "nope"), "--out", str(out)])
        assert code != 0
        assert not out.exists()

    def test_programming_error_propagates_and_removes_out_dir(self, built, tmp_path, monkeypatch):
        _, dataset, _ = built

        def broken(self, frame):
            raise RuntimeError("bug in the pipeline")

        monkeypatch.setattr(fusion.Pipeline, "process_frame", broken)
        out = tmp_path / "fresh_out"
        with pytest.raises(RuntimeError, match="bug in the pipeline"):
            main(["build", "--dataset", str(dataset), "--out", str(out)])
        assert not out.exists()

    def test_typed_error_is_one_line_and_removes_out_dir(self, built, tmp_path, capsys):
        _, dataset, _ = built
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p_hit": 1.0}))
        out = tmp_path / "fresh_out"
        code = main(["build", "--dataset", str(dataset), "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "export", "disambiguate"])
    @pytest.mark.parametrize("bad", ["schema-1", "truncated", "huge-shape", "wrong-version", "no-instance-id"])
    def test_bad_snapshot_is_one_error_line(self, built, tmp_path, capsys, command, bad):
        """A schema-1 JSON snapshot, a truncated file, a record declaring far
        more bytes than the file holds or a bad header fails with one error
        line and exit code 1, and nothing is written."""
        _, dataset, out = built
        path = tmp_path / "map.vxl"
        if bad == "schema-1":
            path = tmp_path / "map.json"
            schema_1 = {**oracle_snapshot_dict(MapState.load_snapshot(out / "map.vxl")), "schema_version": 1}
            path.write_text(json.dumps(schema_1, sort_keys=True, separators=(",", ":")))
        elif bad == "truncated":
            saved = (out / "map.vxl").read_bytes()
            path.write_bytes(saved[: len(saved) // 2])
        elif bad == "huge-shape":
            shutil.copyfile(out / "map.vxl", path)
            declare_shape(path, "footprint keys", (9999999999999,))
        else:
            corrupt = {
                "wrong-version": lambda header: header.update(schema_version=99),
                "no-instance-id": lambda header: header["instances"][0].pop("id"),
            }[bad]
            corrupted_snapshot(path, MapState.load_snapshot(out / "map.vxl"), lambda r: corrupt(r["header"]))
        before = path.read_bytes()
        argv = {
            "eval": ["--gt", str(dataset / "ground_truth.json"), "--out", str(tmp_path / "report.json")],
            "export": ["--layer", "instances", "--out", str(tmp_path / "instances.ply")],
            "disambiguate": ["--client", "mock"],
        }[command]
        assert main([command, "--snapshot", str(path), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snapshot" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == [path.name] and path.read_bytes() == before

    def test_ground_truth_of_another_voxel_size_is_one_error_line(self, built, tmp_path, capsys):
        _, dataset, out = built
        gt = json.loads((dataset / "ground_truth.json").read_text())
        gt["voxel_size"] = 0.04
        (tmp_path / "ground_truth.json").write_text(json.dumps(gt))
        report = tmp_path / "report.json"
        argv = ["eval", "--snapshot", str(out / "map.vxl"), "--gt", str(tmp_path / "ground_truth.json")]
        assert main([*argv, "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "voxel size 0.04 is not the map's 0.02" in err
        assert str(tmp_path / "ground_truth.json") in err
        assert str(out / "map.vxl") in err
        assert not report.exists()

    def test_config_value_of_wrong_type_is_one_error_line(self, built, tmp_path, capsys):
        _, dataset, _ = built
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"voxel_size": "0.02"}))
        out = tmp_path / "fresh_out"
        code = main(["build", "--dataset", str(dataset), "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "voxel_size" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", [1e-300, 1e-30, 1e-9, 1e-3, 0.02, 1, 1e3, 1e30, 1e300])
    @pytest.mark.parametrize("key", ["voxel_size", "coarse_voxel", "max_range"])
    def test_extreme_sizes_build_or_fail_with_one_error_line(self, built, tmp_path, capsys, key, value):
        """A voxel size or range far from the scene's scale either maps
        silently or fails with one error line naming the key that was set,
        and no numpy warning: a voxel outside the packable range is caught
        before its key is cast, and a coarse voxel whose squared distances
        overflow when the config is read."""
        _, dataset, _ = built
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["build", "--dataset", str(dataset), "--config", str(config), "--out", str(out)])
        assert [str(warning.message) for warning in caught] == []
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
            assert key in err, err

    @pytest.mark.parametrize("command", ["export", "eval"])
    def test_out_in_a_missing_directory_names_the_out_file(self, built, tmp_path, capsys, command):
        """The error names the file asked for, not the temporary file beside it."""
        _, dataset, out = built
        target = tmp_path / "missing" / "result"
        argv = {
            "export": ["--layer", "instances"],
            "eval": ["--gt", str(dataset / "ground_truth.json")],
        }[command]
        assert main([command, "--snapshot", str(out / "map.vxl"), *argv, "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"No such file or directory: '{target}'" in err and ".tmp" not in err

    def test_non_finite_intrinsics_fail_before_mapping(self, built, tmp_path, capsys):
        _, dataset, _ = built
        copy = tmp_path / "dataset"
        shutil.copytree(dataset, copy)
        lines = (copy / "manifest.jsonl").read_text().splitlines()
        frame = json.loads(lines[3])
        frame["intrinsics"]["fx"] = float("nan")
        lines[3] = json.dumps(frame)
        (copy / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "fresh_out"
        assert main(["build", "--dataset", str(copy), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "manifest.jsonl: line 4: fx nan is not finite" in err
        assert not out.exists()

    def test_synth_failure_cleans_up(self, tmp_path, capsys):
        out = tmp_path / "ds"
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        code = main(["synth", "--spec", str(spec), "--out", str(out)])
        assert code != 0
        assert not out.exists()

    def test_spec_without_a_key_is_one_error_line(self, tmp_path, capsys):
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps({key: value for key, value in SCENE_SPEC.items() if key != "intrinsics"}))
        out = tmp_path / "ds"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "intrinsics" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda spec: spec["objects"][0].update(category=None), "category None is not str"),
            (lambda spec: spec["objects"][0].update(id=7), "id 7 is not str"),
            (lambda spec: spec["trajectory"]["orbit"].update(frames=2.9), "frames 2.9 is not int"),
            (lambda spec: spec["trajectory"]["orbit"].update(frames=0), "at least one pose"),
            (lambda spec: spec["trajectory"]["orbit"].update(radius="1.5"), "radius '1.5' is not int or float"),
            (lambda spec: spec["trajectory"]["orbit"].update(height=True), "height True is not int or float"),
            (lambda spec: spec["trajectory"]["orbit"].update(radius=10**400), "int too large"),
            (lambda spec: spec["trajectory"]["orbit"].update(center=[0, 0]), "center .* is not a list of 3"),
            (lambda spec: spec["trajectory"]["orbit"].update(target=[0, "0", 0]), "target '0' is not int"),
            (lambda spec: spec.update(voxel_size="0.02"), "voxel_size '0.02' is not int or float"),
            (lambda spec: spec.update(voxel_size=0), "voxel_size must be finite and positive, got 0.0"),
            (lambda spec: spec.update(voxel_size=-0.02), "voxel_size must be finite and positive"),
            (lambda spec: spec["room"].update(min=[-3, -3, "0"]), "room min '0' is not int or float"),
            (lambda spec: spec["objects"][1].update(max=[-0.31, -0.11, False]), "max False is not int"),
            (lambda spec: spec.update(noise={"depth_sigma": "0.01"}), "depth_sigma '0.01' is not int"),
            (
                lambda spec: spec.update(trajectory=[{"rotation": IDENTITY_ROTATION, "translation": ["0", 0, 1]}]),
                "translation '0' is not int or float",
            ),
        ],
        ids=[
            "null-category", "int-id", "float-frames", "zero-frames", "string-radius", "bool-height",
            "huge-radius", "short-center", "string-in-target", "string-voxel-size", "zero-voxel-size",
            "negative-voxel-size", "string-in-room", "bool-in-box", "string-noise", "string-in-pose",
        ],
    )
    def test_spec_value_of_wrong_type_is_one_error_line(self, tmp_path, capsys, edit, message):
        spec = copy.deepcopy(SCENE_SPEC)
        edit(spec)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "ds"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(message, err)
        assert not out.exists()

    def test_synth_programming_error_propagates_and_removes_out_dir(self, tmp_path, monkeypatch):
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps(SCENE_SPEC))

        def broken(scene, seed, out_dir):
            Path(out_dir).mkdir(parents=True)
            raise RuntimeError("bug in the renderer")

        monkeypatch.setattr(synthetic, "generate_synthetic", broken)
        out = tmp_path / "ds"
        with pytest.raises(RuntimeError, match="bug in the renderer"):
            main(["synth", "--spec", str(spec), "--out", str(out)])
        assert not out.exists()


class TestDisambiguateCommand:
    def make_flagged_snapshot(self, tmp_path):
        state = MapState(voxel_size=0.02)
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = {"bed": 4.8, "couch": 4.6}
        state.register_category("bed")
        state.register_category("couch")
        for i in range(4):
            add_evidence(state, (i, 0, 0), instance_id, 2)
        state.instances[instance_id].flagged = True
        snapshot = tmp_path / "map.vxl"
        state.save_snapshot(snapshot)
        return snapshot, instance_id

    def test_mock_fixture_applies_decision(self, tmp_path, capsys):
        snapshot, instance_id = self.make_flagged_snapshot(tmp_path)
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({str(instance_id): "The object category is couch"}))
        out = tmp_path / "updated.vxl"
        code = main(
            [
                "disambiguate",
                "--snapshot", str(snapshot),
                "--client", "mock",
                "--fixtures", str(fixtures),
                "--out", str(out),
            ]
        )
        assert code == 0
        updated = MapState.load_snapshot(out)
        assert updated.instances[instance_id].final_category == "couch"
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["decisions"] == [
            {"chosen_category": "couch", "instance_id": instance_id, "raw_response": "The object category is couch"}
        ]

    def test_stdout_is_the_report_as_recorded(self, tmp_path, capsys):
        """Each decision with its raw response, and each failure with its reason."""
        snapshot, first = self.make_flagged_snapshot(tmp_path)
        state = MapState.load_snapshot(snapshot)
        for _ in range(2):
            instance_id = state.new_instance()
            state.instances[instance_id].category_evidence = {"bed": 3.0, "couch": 2.9}
            add_evidence(state, (10 + instance_id, 0, 0), instance_id, 1)
            state.instances[instance_id].flagged = True
        state.save_snapshot(snapshot)
        fixtures = tmp_path / "fixtures.json"
        answer = "Looking at the views: the object category is Couch."
        fixtures.write_text(json.dumps({str(first): answer, str(first + 1): "no idea"}))
        code = main(["disambiguate", "--snapshot", str(snapshot), "--client", "mock", "--fixtures", str(fixtures)])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "decisions": [{"chosen_category": "couch", "instance_id": first, "raw_response": answer}],
            "parse_failures": [[first + 1, "answer phrase not found in 'no idea'"]],
            "client_failures": [[first + 2, f"no scripted response for instance {first + 2}"]],
        }

    @pytest.mark.parametrize("content", ["[]", '{"1": null}', "{"])
    def test_bad_fixture_file_is_one_error_line(self, tmp_path, capsys, content):
        snapshot, _ = self.make_flagged_snapshot(tmp_path)
        before = snapshot.read_bytes()
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(content)
        code = main(["disambiguate", "--snapshot", str(snapshot), "--client", "mock", "--fixtures", str(fixtures)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(fixtures) in line
        assert snapshot.read_bytes() == before

    def test_mock_without_fixtures_is_identity_baseline(self, tmp_path):
        snapshot, instance_id = self.make_flagged_snapshot(tmp_path)
        code = main(["disambiguate", "--snapshot", str(snapshot), "--client", "mock"])
        assert code == 0
        updated = MapState.load_snapshot(snapshot)
        assert updated.instances[instance_id].final_category == "bed"


@pytest.mark.parametrize("argv", [["--help"], ["synth", "--spec", "{spec}", "--out", "{out}"]], ids=["help", "synth"])
def test_command_loads_no_scipy(tmp_path, argv):
    """In a fresh interpreter, ``voxeland --help`` and ``voxeland synth``
    load no scipy module: each command imports only the modules it uses."""
    spec = tmp_path / "scene.json"
    spec.write_text(json.dumps(SCENE_SPEC))
    argv = [arg.format(spec=spec, out=tmp_path / "ds") for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "from voxeland.cli import main\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(synthetic.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
    assert argv == ["--help"] or (tmp_path / "ds" / "manifest.jsonl").is_file()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_cli_pins_blas_threads_unless_set(tmp_path, preset, expected):
    """In a fresh interpreter, a command runs with ``OPENBLAS_NUM_THREADS``
    at 1 when it was unset, and at the user's value otherwise, even when the
    command fails."""
    code = (
        "import contextlib, io, os, sys\n"
        "from voxeland.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main(['export', '--snapshot', {str(tmp_path / 'missing.vxl')!r}, '--layer', 'instances',"
        f" '--out', {str(tmp_path / 'out.ply')!r}])\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.exit(code)\n"
    )
    src = Path(synthetic.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 1, result.stderr
    assert result.stdout.strip() == expected
