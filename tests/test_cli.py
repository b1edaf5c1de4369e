import contextlib
import inspect
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palpmap import cli
from palpmap.cli import CONFIG_SCHEMA, load_config, main
from palpmap.errors import ConfigError
from palpmap.geometry import load_mesh, make_transform
from palpmap.make_demo import write_demo
from palpmap.schema import schema_default
from palpmap.simulator import (PhantomSpec, StiffnessBump, make_surface_mesh,
                               save_phantom)


def small_phantom(path_dir):
    def height(x, y):
        return (4.0 * np.exp(-((x - 4.0) ** 2 + (y - 3.0) ** 2) / 50.0)
                - 3.0 * np.exp(-((x - 9.0) ** 2 + (y - 10.0) ** 2) / 60.0)
                + 0.05 * x + 0.02 * y)

    mesh = make_surface_mesh(-20.0, 32.0, -20.0, 32.0, 4.0, height)
    spec = PhantomSpec(
        mesh=mesh, baseline_stiffness=1.5,
        bumps=(StiffnessBump(center=(6.0, 6.0), amplitude=1.0, radius=3.0),),
        artery=None,
        true_transform=make_transform(1.0, -2.0, 3.0, 4.0, -3.0, 2.0))
    save_phantom(spec, path_dir / "phantom.json")
    return path_dir / "phantom.json"


def write_config(path_dir, **overrides):
    doc = {
        "phantom": "phantom.json",
        "roi": {"xmin": 0.0, "xmax": 12.0, "ymin": 0.0, "ymax": 12.0,
                "spacing": 2.0},
        "budget": 4,
        "strategy": "ei",
        "output_dir": "out",
        "master_seed": 3,
    }
    doc.update(overrides)
    path = path_dir / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        small_phantom(tmp_path)
        cfg = load_config(write_config(tmp_path))
        assert cfg.budget == 4
        assert cfg.strategy == "ei"
        assert cfg.kernel.sigma_f == 1.0
        assert cfg.kernel.length_scale == 3.0
        assert cfg.policy.exploration_period == 5
        assert cfg.cmu.tangent_distance == 1.0
        assert len(cfg.cmu.seed_transforms) == 11
        assert cfg.probe.depth_increment == 0.3
        assert cfg.noise.position_sigma == 0.0

    def test_paths_resolved_against_config_dir(self, tmp_path):
        small_phantom(tmp_path)
        cfg = load_config(write_config(tmp_path))
        assert cfg.phantom_path == tmp_path / "phantom.json"
        assert cfg.output_dir == tmp_path / "out"

    def test_unknown_top_key(self, tmp_path):
        small_phantom(tmp_path)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, extra=1))

    def test_unknown_nested_key(self, tmp_path):
        small_phantom(tmp_path)
        path = write_config(tmp_path, noise={"sigma": 0.3})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_strategy(self, tmp_path):
        small_phantom(tmp_path)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, strategy="random"))

    def test_bad_budget(self, tmp_path):
        small_phantom(tmp_path)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, budget=-1))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, budget=2.5))

    def test_roi_required(self, tmp_path):
        small_phantom(tmp_path)
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        del doc["roi"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_values_are_config_errors(self, tmp_path):
        small_phantom(tmp_path)
        path = write_config(tmp_path, kernel={"length_scale_mm": -3.0})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{]")
        with pytest.raises(ConfigError):
            load_config(path)


NUMERIC_KEYS = [(section, key) for section, _, keys in CONFIG_SCHEMA for key in keys]


class TestConfigSchema:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("section,key", NUMERIC_KEYS,
                             ids=[f"{s}.{k}" for s, k in NUMERIC_KEYS])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys,
                                               section, key, value):
        small_phantom(tmp_path)
        doc = json.loads(write_config(tmp_path).read_text())
        doc.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))  # writes NaN / Infinity literals
        assert main(["run", str(path)]) == 2
        assert f"'{section}.{key}'" in capsys.readouterr().err

    def test_ground_truth_nan_spacing(self, tmp_path, capsys):
        phantom = small_phantom(tmp_path)
        assert main(["ground-truth", str(phantom), "--spacing", "nan"]) == 2
        assert "--spacing" in capsys.readouterr().err

    def test_docs_tables_match_schema(self):
        """docs/config_schema.md lists each section's keys with the code's defaults."""
        text = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
        targets = {}
        for section, target, keys in CONFIG_SCHEMA:
            for key, name in keys.items():
                targets.setdefault(section, {})[key] = (target, name)
        for section, keys in targets.items():
            block = text.split(f"## `{section}`\n", 1)[1].split("\n## ", 1)[0]
            lines = [line for line in block.splitlines() if line.startswith("|")]
            header = [cell.strip() for cell in lines[0].strip("|").split("|")]
            rows = {}
            for line in lines[2:]:
                cells = [cell.strip() for cell in line.strip("|").split("|")]
                rows[cells[0].strip("`")] = dict(zip(header, cells))
            assert set(rows) == set(keys), section
            for key, (target, name) in keys.items():
                default = schema_default(target, name)
                row = rows[key]
                assert row["type"] == ("int" if isinstance(default, int) else "float")
                if "default" in row:
                    assert float(row["default"]) == default, f"{section}.{key}"
                elif default is inspect.Parameter.empty:
                    assert row["required"] == "yes", f"{section}.{key}"
                else:
                    found = re.fullmatch(r"no, default (\S+)", row["required"])
                    assert found and float(found.group(1)) == default, f"{section}.{key}"

    def test_grid_node_cap(self, tmp_path, capsys):
        phantom = small_phantom(tmp_path)
        roi = {"xmin": 0.0, "xmax": 12.0, "ymin": 0.0, "ymax": 12.0, "spacing": 1e-9}
        assert main(["run", str(write_config(tmp_path, roi=roi))]) == 2
        assert main(["ground-truth", str(phantom), "--spacing", "1e-9"]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 2 and all("1,000,000 grid nodes" in line for line in err)
        assert err[1].startswith("config error: --spacing")

    def test_one_depth_step_is_config_error(self, tmp_path, capsys):
        small_phantom(tmp_path)
        probe = {"depth_increment_mm": 0.5, "max_depth_mm": 0.5}
        assert main(["run", str(write_config(tmp_path, probe=probe))]) == 2
        assert "'probe': max_depth must be 2 or more whole" in capsys.readouterr().err

    @pytest.mark.parametrize("increment", [1e-320, 1e-12])
    def test_depth_step_cap(self, tmp_path, capsys, increment):
        small_phantom(tmp_path)
        probe = {"depth_increment_mm": increment, "max_depth_mm": 3.0}
        assert main(["run", str(write_config(tmp_path, probe=probe))]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and "more than 1,000 depth steps" in err[0]

    def test_removed_probe_keys_are_unknown(self, tmp_path, capsys):
        small_phantom(tmp_path)
        for key in ("probe_radius_mm", "contact_force_n"):
            assert main(["run", str(write_config(tmp_path, probe={key: 1.0}))]) == 2
            assert "unknown key" in capsys.readouterr().err


# mesh files that are not a readable document: (file name, bytes, stderr text)
BAD_MESH_FILES = [
    ("ragged.json", b'{"vertices": [[0, 0, 0], [1, 0]], "faces": [[0, 1, 2]]}',
     "'mesh.vertices[1]' must have 3 entries"),
    ("latin1.json", b'{"vertices": [], "faces": [], "name": "caf\xe9"}', "bad mesh file"),
    ("latin1.obj", b"# caf\xe9\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "bad mesh file"),
]


class TestMeshFiles:
    @pytest.mark.parametrize("name,content,message", BAD_MESH_FILES,
                             ids=[row[0] for row in BAD_MESH_FILES])
    def test_bad_mesh_file_is_config_error(self, tmp_path, capsys, name, content, message):
        (tmp_path / name).write_bytes(content)
        assert main(["mesh-check", str(tmp_path / name)]) == 2
        small_phantom(tmp_path)
        phantom = json.loads((tmp_path / "phantom.json").read_text())
        (tmp_path / "phantom.json").write_text(json.dumps({**phantom, "mesh": name}))
        assert main(["run", str(write_config(tmp_path))]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 2 and all(line.startswith("config error: ") for line in err)
        assert all(message in line for line in err)

    @pytest.mark.parametrize("name,content", [
        ("huge.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999999\n"),
        ("huge.json", b'{"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], '
                      b'"faces": [[0, 1, 99999999999999999999999]]}'),
        ("past_float.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 1" + b"0" * 400 + b"\n"),
    ], ids=["obj", "json", "obj-past-float"])
    @pytest.mark.filterwarnings("error")  # numpy warns on an out-of-range int64 cast
    def test_face_index_past_int64_is_out_of_range(self, tmp_path, capfd, name, content):
        (tmp_path / name).write_bytes(content)
        assert main(["mesh-check", str(tmp_path / name)]) == 3
        small_phantom(tmp_path)
        phantom = json.loads((tmp_path / "phantom.json").read_text())
        (tmp_path / "phantom.json").write_text(json.dumps({**phantom, "mesh": name}))
        assert main(["run", str(write_config(tmp_path))]) == 2
        err = capfd.readouterr().err.strip().split("\n")
        assert len(err) == 2 and all("face index out of range" in line for line in err)


def _leaves(doc, path=()):
    """Paths to every scalar (null included) of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


_DELETE = object()
_BAD_LEAVES = [float("nan"), float("inf"), float("-inf"), "4", True, None, [1.0],
               {"a": 1.0}, _DELETE]


def _documents(directory, json_mesh=False):
    """A valid config and phantom (artery included), and the mesh as a JSON
    document when `json_mesh`, keyed by file name; the OBJ mesh is written."""
    small_phantom(directory)
    docs = {"config.json": json.loads(write_config(
        directory, budget=2, noise={"position_sigma_mm": 0.1, "rng_seed": 1},
        roi={"xmin": 0.0, "xmax": 12.0, "ymin": 0.0, "ymax": 12.0,
             "spacing": 4.0}).read_text())}
    docs["phantom.json"] = json.loads((directory / "phantom.json").read_text())
    docs["phantom.json"]["artery"] = {"polyline": [[0.0, 0.0], [8.0, 6.0]],
                                      "half_width": 2.0, "amplitude": 1.0}
    if json_mesh:
        docs["phantom.json"]["mesh"] = "mesh.json"
        docs["mesh.json"] = load_mesh(directory / "mesh.obj").to_json_dict()
    return docs


def _replace_leaf(data, doc):
    path = data.draw(st.sampled_from(_leaves(doc)))
    value = data.draw(st.sampled_from(_BAD_LEAVES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def _write_documents(directory, docs):
    for doc_name, doc in docs.items():
        (directory / doc_name).write_text(json.dumps(doc))


def _run_exits_cleanly(directory) -> bool:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["run", str(directory / "config.json")]) in (0, 2, 3, 4)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_raise(tmp_path_factory, data):
    """One leaf of a valid config or phantom, replaced or deleted: a clean exit."""
    directory = tmp_path_factory.mktemp("mutated")
    docs = _documents(directory)
    _replace_leaf(data, docs[data.draw(st.sampled_from(sorted(docs)))])
    _write_documents(directory, docs)
    assert _run_exits_cleanly(directory)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_mesh_files_never_raise(tmp_path_factory, data):
    """One leaf of a JSON mesh replaced or deleted, or one byte of any input
    file, the OBJ mesh included, made non-UTF-8: a clean exit."""
    directory = tmp_path_factory.mktemp("mutated-mesh")
    json_mesh = data.draw(st.booleans())
    docs = _documents(directory, json_mesh)
    leaf = json_mesh and data.draw(st.booleans())
    if leaf:
        _replace_leaf(data, docs["mesh.json"])
    _write_documents(directory, docs)
    if not leaf:
        name = data.draw(st.sampled_from(sorted(docs) + ([] if json_mesh else ["mesh.obj"])))
        text = (directory / name).read_bytes()
        at = data.draw(st.integers(0, len(text) - 1))
        (directory / name).write_bytes(text[:at] + b"\xff" + text[at + 1:])
    assert _run_exits_cleanly(directory)


# names bench/tracing.py and bench/run.py patch on palpmap.cli; the engine
# must reach them through cli's module globals for the benchmark to see them
BENCHMARK_HOOKS = ("probe", "load_phantom", "estimate_stiffness", "cmu_register",
                   "gp_fit", "gp_predict", "select_next", "_ground_truth_map",
                   "write_run_outputs", "execute_experiment")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_engine_calls_benchmark_hooks_through_cli(tmp_path, monkeypatch, command):
    calls = dict.fromkeys(BENCHMARK_HOOKS, 0)
    for name in BENCHMARK_HOOKS:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    small_phantom(tmp_path)
    assert main([command, str(write_config(tmp_path))]) == 0
    assert [name for name, count in calls.items() if count == 0] == []


class TestRunCommand:
    def test_run_writes_all_outputs(self, tmp_path, capsys):
        small_phantom(tmp_path)
        cfg_path = write_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in ("report.json", "probe_log.csv", "stiffness_map.csv",
                     "registration_trace.csv", "heatmap.pgm", "timing.txt"):
            assert (out / name).exists(), name

        report = json.loads((out / "report.json").read_text())
        assert report["strategy"] == "ei"
        assert report["probe_count"] == 23
        assert "wall_clock" not in json.dumps(report)
        assert set(report["true_transform"]) == {"translation_mm", "rotation_deg"}

        probe_lines = (out / "probe_log.csv").read_text().strip().split("\n")
        assert len(probe_lines) == 1 + 23 * 10
        map_lines = (out / "stiffness_map.csv").read_text().strip().split("\n")
        assert len(map_lines) == 1 + 7 * 7

        header = (out / "heatmap.pgm").read_bytes()[:20]
        assert header.startswith(b"P5\n7 7\n255\n")

        trace_lines = (out / "registration_trace.csv").read_text().strip().split("\n")
        assert len(trace_lines) == 1 + 5  # 4 in-loop updates plus the final one

        stdout = capsys.readouterr().out
        assert "probes: 23" in stdout

    def test_run_deterministic_bytes(self, tmp_path):
        small_phantom(tmp_path)
        noise = {"position_sigma_mm": 0.2, "force_sigma_n": 0.05, "rng_seed": 9}
        cfg_a = write_config(tmp_path, noise=noise, output_dir="out_a")
        assert main(["run", str(cfg_a)]) == 0
        cfg_b = tmp_path / "config_b.json"
        doc = json.loads(cfg_a.read_text())
        doc["output_dir"] = "out_b"
        cfg_b.write_text(json.dumps(doc))
        assert main(["run", str(cfg_b)]) == 0
        for name in ("report.json", "probe_log.csv", "stiffness_map.csv"):
            a = (tmp_path / "out_a" / name).read_bytes()
            b = (tmp_path / "out_b" / name).read_bytes()
            assert a == b, name

    def test_registration_seeding_policy(self, tmp_path):
        """All configured seeds at the first update, the previous winner alone
        at every later update in the loop, and both at the final update."""
        small_phantom(tmp_path)
        roi = {"xmin": 0.0, "xmax": 12.0, "ymin": 0.0, "ymax": 12.0, "spacing": 1.0}
        config = load_config(write_config(tmp_path, roi=roi, budget=30))
        trace = cli.execute_experiment(config).trace
        configured = len(config.cmu.seed_transforms)
        assert len(trace) == 30 + 1
        first, *in_loop, final = [len(reg.per_seed) for _, reg in trace]
        assert first == configured
        assert in_loop == [1] * 29
        assert final == configured + 1

    def test_uniform_strategy(self, tmp_path):
        small_phantom(tmp_path)
        cfg_path = write_config(tmp_path, strategy="uniform")
        assert main(["run", str(cfg_path)]) == 0
        trace = (tmp_path / "out" / "registration_trace.csv").read_text()
        assert len(trace.strip().split("\n")) == 2  # single final update

    def test_exploration_exhaustion_breaks_cleanly(self, tmp_path):
        small_phantom(tmp_path)
        cfg_path = write_config(
            tmp_path,
            roi={"xmin": 0.0, "xmax": 4.0, "ymin": 0.0, "ymax": 4.0,
                 "spacing": 2.0},
            budget=10)
        assert main(["run", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        # 3x3 grid, 5 nodes coincide with startup targets, 4 left for EI
        assert report["probe_count"] == 23

    def test_compare_command(self, tmp_path):
        small_phantom(tmp_path)
        cfg_path = write_config(tmp_path)
        assert main(["compare", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert (out / "ei" / "report.json").exists()
        assert (out / "uniform" / "report.json").exists()
        summary = json.loads((out / "comparison.json").read_text())
        assert set(summary["ei"]) == {"map_rmse", "map_pearson",
                                      "top_decile_rmse", "rms_mm"}
        assert summary["budget"] == 4

    def test_run_warns_when_registration_is_capped(self, tmp_path, capsys):
        small_phantom(tmp_path)
        assert main(["run", str(write_config(tmp_path))]) == 0
        assert "warning" not in capsys.readouterr().err

        cfg_path = write_config(tmp_path, cmu={"max_iterations": 1})
        assert main(["run", str(cfg_path)]) == 0
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["warning: ei: final registration stopped at the "
                       "1-iteration cap without converging"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "converged" not in json.dumps(report)

    def test_compare_warns_per_capped_strategy(self, tmp_path, capsys):
        small_phantom(tmp_path)
        cfg_path = write_config(tmp_path, cmu={"max_iterations": 1})
        assert main(["compare", str(cfg_path)]) == 0
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"warning: {strategy}: final registration stopped at the "
                       "1-iteration cap without converging"
                       for strategy in ("ei", "uniform")]

    def test_config_error_exit_code(self, tmp_path, capsys):
        small_phantom(tmp_path)
        cfg_path = write_config(tmp_path, extra=True)
        assert main(["run", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_phantom_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path)  # no phantom.json written
        assert main(["run", str(cfg_path)]) == 4


class TestOtherCommands:
    def test_mesh_check_ok(self, tmp_path, capsys):
        small_phantom(tmp_path)
        assert main(["mesh-check", str(tmp_path / "mesh.obj")]) == 0
        assert "mesh OK" in capsys.readouterr().out

    def test_mesh_check_missing_file(self, tmp_path):
        assert main(["mesh-check", str(tmp_path / "absent.obj")]) == 4

    def test_mesh_check_malformed(self, tmp_path):
        bad = tmp_path / "bad.obj"
        bad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        assert main(["mesh-check", str(bad)]) == 3

    def test_ground_truth_command(self, tmp_path):
        phantom = small_phantom(tmp_path)
        out = tmp_path / "gt"
        assert main(["ground-truth", str(phantom), "--spacing", "4",
                     "--out", str(out)]) == 0
        lines = (out / "ground_truth_map.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 14 * 14  # mesh bounds span 52mm, spacing 4
        assert (out / "ground_truth.pgm").exists()

    def test_ground_truth_bad_spacing(self, tmp_path):
        phantom = small_phantom(tmp_path)
        assert main(["ground-truth", str(phantom), "--spacing", "0"]) == 2


class TestMakeDemo:
    def test_writes_loadable_bundle(self, tmp_path):
        out = write_demo(tmp_path / "demo")
        cfg = load_config(out / "config.json")
        assert cfg.phantom_path.exists()
        assert cfg.budget == 100
        assert cfg.kernel.jitter == pytest.approx(0.01)
