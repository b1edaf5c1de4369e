import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palpmap import cli
from palpmap.acquisition import expected_improvement
from palpmap.care import (CMUConfig, ProbeMeasurement, cmu_register, collect_sets,
                          estimate_stiffness)
from palpmap.cli import ExperimentConfig, load_config, main
from palpmap.errors import ConfigError, InvalidInputError
from palpmap.geometry import RigidTransform, load_mesh, make_transform
from palpmap.gp import gp_predict
from palpmap.make_demo import write_demo
from palpmap.schema import REQUIRED, keys, schema_default
from palpmap.simulator import (PhantomSpec, ProbeConfig, StiffnessBump, _transform_from_json,
                               load_phantom, make_surface_mesh, save_phantom)


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
        assert cfg.kernel.length_scale_mm == 3.0
        assert cfg.policy.exploration_period == 5
        assert cfg.cmu.tangent_distance_mm == 1.0
        assert len(cfg.cmu.seed_transforms) == 11
        assert cfg.probe.depth_increment_mm == 0.3
        assert cfg.noise.position_sigma_mm == 0.0

    def test_paths_resolved_against_config_dir(self, tmp_path):
        small_phantom(tmp_path)
        cfg = load_config(write_config(tmp_path))
        assert cfg.phantom == tmp_path / "phantom.json"
        assert cfg.output_dir == tmp_path / "out"

    def test_every_document_key_is_a_field(self, tmp_path):
        """Each leaf of a config with every key away from its default, and of
        a phantom with bumps and an artery, is the same attribute path of the
        loaded object; paths compare after resolution against the document's
        directory. The phantom's mesh and transform are built by `load_phantom`."""
        docs = _documents(tmp_path)
        config_doc = docs["config.json"]
        config_doc.update(
            phantom="./phantom.json", budget=7, strategy="uniform", output_dir="results",
            roi=dict(config_doc["roi"], spacing=3.0),
            probe={"depth_increment_mm": 0.25, "max_depth_mm": 2.0},
            noise={"position_sigma_mm": 0.1, "force_sigma_n": 0.05},
            kernel={"sigma_f": 2.0, "length_scale_mm": 4.0, "jitter": 1e-6},
            policy={"exploration_period": 3, "uncertainty_fraction": 0.5},
            cmu={"tangent_distance_mm": 1.5, "normal_angle_deg": 12.0,
                 "min_force_difference_n": 0.1, "max_iterations": 40,
                 "convergence_tolerance_mm": 0.002, "random_seeds": 4,
                 "max_translation_mm": 5.0, "max_rotation_deg": 10.0})
        _write_documents(tmp_path, docs)
        config = load_config(tmp_path / "config.json")
        phantom = load_phantom(tmp_path / "phantom.json")

        def attribute(obj, path):
            for key in path:
                obj = obj[key] if isinstance(obj, (dict, list, tuple)) else getattr(obj, key)
            return obj

        sections = dict(CONFIG_SECTIONS)
        assert sorted(_leaves(config_doc)) == sorted(
            [(key,) for key in keys(ExperimentConfig) if key not in sections] + NUMERIC_KEYS)
        for path in _leaves(config_doc):
            value = attribute(config_doc, path)
            target = sections[path[0]] if len(path) > 1 else ExperimentConfig
            assert value != schema_default(target, path[-1]), path
            if path[-1] in ("phantom", "output_dir"):
                value = tmp_path / value
            assert attribute(config, path) == value, path
        assert len(config.cmu.seed_transforms) == 4 + 1
        leaves = [path for path in _leaves(docs["phantom.json"])
                  if path[0] not in ("mesh", "true_transform")]
        assert {path[0] for path in leaves} == {"baseline_stiffness", "bumps", "artery"}
        for path in leaves:
            assert attribute(phantom, path) == attribute(docs["phantom.json"], path), path

    def test_config_is_validated_however_it_is_built(self, tmp_path):
        """`dataclasses.replace` runs the same checks as `load_config`."""
        small_phantom(tmp_path)
        config = load_config(write_config(tmp_path))
        for change in ({"budget": -1}, {"budget": cli.MAX_BUDGET + 1},
                       {"strategy": "random"}, {"master_seed": -1}):
            with pytest.raises(ConfigError):
                dataclasses.replace(config, **change)
        for key in ("budget", "master_seed"):
            for value in (4.5, 3.0, True, "4"):
                with pytest.raises(ConfigError, match=f"'{key}' must be an integer >= 0"):
                    dataclasses.replace(config, **{key: value})
        assert dataclasses.replace(config, budget=np.int64(3)).budget == 3
        with pytest.raises(InvalidInputError, match="random_seeds"):
            CMUConfig(random_seeds=-1)

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

    def test_budget_cap(self, tmp_path, capsys):
        """A budget past the grid-node cap is refused before any lattice is laid out."""
        small_phantom(tmp_path)
        assert load_config(write_config(tmp_path, budget=1_000_000)).budget == 1_000_000
        config = write_config(tmp_path, strategy="uniform", budget=10 ** 12)
        with pytest.raises(ConfigError):
            load_config(config)
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["config error: 'budget' must be at most 1,000,000"]

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


def document_sections(root):
    """(section, target) of each object a `root` document holds, read from
    `root`'s annotations: a field annotated with a dataclass, a `Tuple` of one
    or an `Optional` one."""
    hints = typing.get_type_hints(root)
    return [(key, target) for key in keys(root)
            for target in (hints[key], *typing.get_args(hints[key]))
            if dataclasses.is_dataclass(target)]


CONFIG_SECTIONS = document_sections(ExperimentConfig)
NUMERIC_KEYS = [(section, key) for section, target in CONFIG_SECTIONS for key in keys(target)]
# (section, key, value out of range) for every config key whose check reads
# that key alone; the ROI bounds are checked in pairs
OUT_OF_RANGE = [
    ("roi", "spacing", 0.0), ("probe", "depth_increment_mm", 0.0),
    ("probe", "max_depth_mm", 0.0), ("noise", "position_sigma_mm", -1.0),
    ("noise", "force_sigma_n", -1.0), ("kernel", "sigma_f", 0.0),
    ("kernel", "length_scale_mm", 0.0), ("kernel", "jitter", -1.0),
    ("policy", "exploration_period", 0), ("policy", "uncertainty_fraction", 2.0),
    ("cmu", "random_seeds", -1), ("cmu", "max_translation_mm", -1.0),
    ("cmu", "max_rotation_deg", -1.0), ("cmu", "tangent_distance_mm", 0.0),
    ("cmu", "normal_angle_deg", 0.0), ("cmu", "min_force_difference_n", 0.0),
    ("cmu", "max_iterations", 0), ("cmu", "convergence_tolerance_mm", 0.0),
]


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

    @pytest.mark.parametrize("section,key,value", OUT_OF_RANGE,
                             ids=[f"{s}.{k}" for s, k, _ in OUT_OF_RANGE])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, section, key, value):
        """A value outside its key's range exits 2 with one line naming the key."""
        paired = {("roi", bound) for bound in ("xmin", "xmax", "ymin", "ymax")}
        assert {(s, k) for s, k, _ in OUT_OF_RANGE} == set(NUMERIC_KEYS) - paired
        small_phantom(tmp_path)
        doc = json.loads(write_config(tmp_path).read_text())
        doc.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and f"'{section}': {key} " in err[0], err

    def test_ground_truth_nan_spacing(self, tmp_path, capsys):
        phantom = small_phantom(tmp_path)
        for spacing in ("nan", "inf"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["ground-truth", str(phantom), "--spacing", spacing]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"config error: --spacing {spacing}: ")
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_docs_tables_match_schema(self):
        """docs/config_schema.md lists the top level's keys and each section's
        with the code's types, required flags and defaults."""
        text = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()

        def table(title):
            block = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
            lines = [line for line in block.splitlines() if line.startswith("|")]
            header = [cell.strip() for cell in lines[0].strip("|").split("|")]
            rows = {}
            for line in lines[2:]:
                cells = [cell.strip() for cell in line.strip("|").split("|")]
                rows[cells[0].strip("`")] = dict(zip(header, cells))
            return rows

        top = table("Top level")
        hints = typing.get_type_hints(ExperimentConfig)
        assert list(top) == list(keys(ExperimentConfig))
        for key, row in top.items():
            default, hint = schema_default(ExperimentConfig, key), hints[key]
            kind = ("object" if dataclasses.is_dataclass(hint)
                    else {str: "string", Path: "string", int: "int"}[hint])
            assert row["type"] == kind, key
            if default is REQUIRED:
                assert (row["required"], row["default"]) == ("yes", ""), key
            else:
                shown = ("{}" if dataclasses.is_dataclass(default) else
                         f'"{default}"' if isinstance(default, (str, Path)) else str(default))
                assert (row["required"], row["default"].strip("`")) == ("no", shown), key

        for section, target in CONFIG_SECTIONS:
            rows = table(f"`{section}`")
            assert set(rows) == set(keys(target)), section
            for key in keys(target):
                default = schema_default(target, key)
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
        assert "'probe': max_depth_mm must be 2 or more whole" in capsys.readouterr().err

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

    @pytest.mark.parametrize("section,key", [("noise", "rng_seed"), ("policy", "rng_seed"),
                                             ("cmu", "seed_rng_seed")])
    def test_removed_seed_keys_are_unknown(self, tmp_path, capsys, section, key):
        small_phantom(tmp_path)
        assert main(["run", str(write_config(tmp_path, **{section: {key: 1}}))]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"config error: unknown key(s) in '{section}': ['{key}']"]

    @pytest.mark.parametrize("key,value,message", [
        ("max_rotation_deg", -5.0, "max_rotation_deg must lie in [0, 8.99e+307]"),
        ("max_translation_mm", -5.0, "max_translation_mm must lie in [0, 1e+06]"),
        ("max_translation_mm", 1e308, "max_translation_mm must lie in [0, 1e+06]"),
        ("max_translation_mm", 1e160, "max_translation_mm must lie in [0, 1e+06]"),
        ("random_seeds", -1, "random_seeds must be an integer in [0, 1,000]"),
        ("random_seeds", 1001, "random_seeds must be an integer in [0, 1,000]"),
    ], ids=["rotation-negative", "translation-negative", "translation-overflows",
            "translation-over-cap", "count-negative", "count-over-cap"])
    def test_bad_restart_option_is_config_error(self, tmp_path, capsys, key, value, message):
        small_phantom(tmp_path)
        assert main(["run", str(write_config(tmp_path, cmu={key: value}))]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"config error: 'cmu': {message}"]

    def test_docs_list_the_accepted_keys(self):
        """The README's config example and docs/config_schema.md's key columns
        name exactly the keys `load_config` accepts, as dotted paths."""
        accepted = set(keys(ExperimentConfig))
        accepted |= {f"{section}.{key}" for section, target in CONFIG_SECTIONS
                     for key in keys(target)}
        root = Path(__file__).parents[1]

        readme = (root / "README.md").read_text().split("### Config schema\n", 1)[1]
        example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        assert set(example) | {f"{section}.{key}" for section, value in example.items()
                               if isinstance(value, dict) for key in value} == accepted

        documented = set()
        text = (root / "docs" / "config_schema.md").read_text().split("\n## Phantom JSON", 1)[0]
        for block in text.split("\n## ")[1:]:
            title, body = block.split("\n", 1)
            prefix = "" if title == "Top level" else title.strip("`") + "."
            documented |= {prefix + line.split("|")[1].strip().strip("`")
                           for line in body.splitlines()[2:] if line.startswith("| `")}
        assert documented == accepted


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
        directory, budget=2, noise={"position_sigma_mm": 0.1},
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


def _section(docs, document, section):
    """The object of `docs[document]` that holds the keys of schema section `section`."""
    doc = docs[document]
    if document == "config.json":
        return doc.setdefault(section, {})
    if section == "phantom":
        return doc
    if section == "bumps":
        return doc["bumps"][0]
    return doc[section]


def _float_fields():
    """(document, section, key, default) of every float or float-tuple schema field."""
    rows = [("config.json", section, target) for section, target in CONFIG_SECTIONS]
    # `load_phantom` builds the transform itself, from `_transform_from_json`'s keys
    phantom = dict([("phantom", PhantomSpec), *document_sections(PhantomSpec)],
                   true_transform=_transform_from_json)
    rows += [("phantom.json", section, target) for section, target in phantom.items()]

    def holds_float(hint):
        return hint is float or any(holds_float(arg) for arg in typing.get_args(hint))

    return [(document, section, key, schema_default(target, key))
            for document, section, target in rows
            for key in keys(target) if holds_float(typing.get_type_hints(target)[key])]


def _filled(value, number):
    """`value` with every entry, nested ones included, set to `number`."""
    if isinstance(value, (list, tuple)):
        return [_filled(item, number) for item in value]
    return number


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_extreme_schema_floats_exit_cleanly(tmp_path, capsys):
    """Every float field of the config and phantom schemas at 1e300, then at
    1e-300: `run` returns 0, 2 or 3, writes at most one non-warning line, and
    every JSON file it wrote is strict JSON, without NaN or Infinity."""
    fields = _float_fields()
    assert len(fields) == 28
    for document, section, key, default in fields:
        for number in (1e300, 1e-300):
            docs = _documents(tmp_path)
            holder = _section(docs, document, section)
            holder[key] = _filled(holder.get(key, default), number)
            _write_documents(tmp_path, docs)
            code = main(["run", str(tmp_path / "config.json")])
            err = [line for line in capsys.readouterr().err.splitlines()
                   if not line.startswith("warning:")]
            assert code in (0, 2, 3) and len(err) <= 1, (section, key, number, code, err)
            for written in (tmp_path / "out").rglob("*.json"):
                json.loads(written.read_text(), parse_constant=_strict_constant)


def test_far_bump_and_artery_run_without_warnings(tmp_path, capsys, recwarn):
    """A bump center and an artery polyline at 1e300: their distances overflow
    to inf, whose stiffness term is 0, so the run exits 0 and numpy prints no
    warning."""
    docs = _documents(tmp_path)
    phantom = docs["phantom.json"]
    phantom["bumps"][0]["center"] = _filled(phantom["bumps"][0]["center"], 1e300)
    phantom["artery"]["polyline"] = _filled(phantom["artery"]["polyline"], 1e300)
    _write_documents(tmp_path, docs)
    assert main(["run", str(tmp_path / "config.json")]) == 0
    capsys.readouterr()
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


# a stiffness scale whose map is finite but whose squared error overflows:
# (document, section, key)
OVERFLOWING_SCORES = [
    ("config.json", "noise", "force_sigma_n"),
    ("phantom.json", "phantom", "baseline_stiffness"),
    ("phantom.json", "bumps", "amplitude"),
    ("phantom.json", "artery", "amplitude"),
]


@pytest.mark.parametrize("document,section,key", OVERFLOWING_SCORES,
                         ids=[".".join(row[1:]) for row in OVERFLOWING_SCORES])
def test_overflowing_score_is_numerical_error(tmp_path, capsys, recwarn, document, section,
                                              key):
    docs = _documents(tmp_path)
    _section(docs, document, section)[key] = 1e300
    _write_documents(tmp_path, docs)
    assert main(["run", str(tmp_path / "config.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the ei run's map_rmse is "), err
    assert not (tmp_path / "out" / "report.json").exists()
    assert [str(w.message) for w in recwarn] == []  # no numpy warning reaches stderr


# a length whose square overflows or underflows: (document, section, key, value)
LENGTH_CASES = [
    ("config.json", "kernel", "length_scale_mm", 1e300),
    ("config.json", "kernel", "length_scale_mm", 1e-300),
    ("config.json", "cmu", "tangent_distance_mm", 1e300),
    ("phantom.json", "bumps", "radius", 1e300),
    ("phantom.json", "artery", "half_width", 1e300),
]


@pytest.mark.parametrize("document,section,key,value", LENGTH_CASES,
                         ids=[f"{row[2]}-{row[3]:g}" for row in LENGTH_CASES])
def test_length_with_no_finite_square_is_config_error(tmp_path, capsys,
                                                      document, section, key, value):
    docs = _documents(tmp_path)
    _section(docs, document, section)[key] = value
    _write_documents(tmp_path, docs)
    assert main(["run", str(tmp_path / "config.json")]) == 2
    if document == "phantom.json":
        assert main(["ground-truth", str(tmp_path / "phantom.json"),
                     "--out", str(tmp_path / "gt")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("config error: ") and key.removesuffix("_mm") in line
                       and "with a positive finite square" in line for line in err)
    assert len(err) == (2 if document == "phantom.json" else 1)


@pytest.mark.parametrize("document", ["config.json", "phantom.json"])
def test_ray_origins_past_the_query_bound_are_errors(tmp_path, capsys, document):
    """A ROI or a true transform far out puts the probe rays' origins past
    what the ray cast's k-d tree can measure: one error line, exit 3."""
    docs = _documents(tmp_path)
    if document == "config.json":
        docs[document]["roi"] = {"xmin": -1e300, "xmax": 1e300, "ymin": 0.0, "ymax": 12.0,
                                 "spacing": 1e299}
    else:
        docs[document]["true_transform"]["translation_mm"] = [1e300, 0.0, 0.0]
    _write_documents(tmp_path, docs)
    assert main(["run", str(tmp_path / "config.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: origins must be finite and at most 6.7e+153 in magnitude"]


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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_one_ground_truth_map_per_command(tmp_path, monkeypatch, command):
    calls = []
    original = cli._ground_truth_map
    monkeypatch.setattr(cli, "_ground_truth_map",
                        lambda *args: calls.append(args) or original(*args))
    small_phantom(tmp_path)
    assert main([command, str(write_config(tmp_path))]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("field", ["phantom", "roi"])
def test_evaluate_rejects_runs_of_another_phantom_or_roi(tmp_path, field):
    small_phantom(tmp_path)
    config = load_config(write_config(tmp_path, budget=0))
    art = cli.execute_experiment(config)
    changed = {"phantom": tmp_path / "other.json",
               "roi": dataclasses.replace(config.roi, spacing=3.0)}[field]
    other = dataclasses.replace(art, config=dataclasses.replace(config, **{field: changed}))
    assert len(cli.evaluate([art, art])) == 2
    with pytest.raises(InvalidInputError, match="one phantom and ROI"):
        cli.evaluate([art, other])


@pytest.mark.parametrize("kernel", [{}, {"jitter": 0.0, "length_scale_mm": 1000.0}],
                         ids=["default-kernel", "escalated-jitter"])
def test_the_kept_fit_is_the_one_the_run_reports(tmp_path, kernel):
    """`RunArtifacts.model` is the final fit: the prediction, the report's
    jitter and the written EI column all come from it."""
    small_phantom(tmp_path)
    config = load_config(write_config(tmp_path, kernel=kernel))
    art = cli.execute_experiment(config)
    assert art.model.training.outputs.tolist() == [
        s.stiffness for s in art.samples if not s.degenerate]
    fresh = gp_predict(art.model, art.grid)
    np.testing.assert_allclose(fresh.mean, art.prediction.mean, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(fresh.variance, art.prediction.variance, rtol=0.0, atol=1e-9)

    [report] = cli.evaluate([art])
    assert report.gp_jitter_used == art.model.jitter_used
    assert (art.model.jitter_used != config.kernel.jitter) == bool(kernel)

    out = cli.write_run_outputs(art, report, tmp_path / "out")
    written = np.loadtxt(out / "stiffness_map.csv", delimiter=",", skiprows=1)
    ei = expected_improvement(art.prediction.mean, art.prediction.std,
                              float(art.model.training.outputs.max()))
    assert written[:, 4].tolist() == ei.tolist()


def test_noise_and_exploration_streams_are_independent(tmp_path, monkeypatch):
    """The noise and exploration generators start in different states.

    Each state is read at the first call that receives its generator, before
    either has drawn anything.
    """
    states = {}
    for name in ("probe", "select_next"):
        def recorded(*args, _name=name, _original=getattr(cli, name), **kwargs):
            rng = next(arg for arg in args if isinstance(arg, np.random.Generator))
            states.setdefault(_name, rng.bit_generator.state)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, recorded)
    small_phantom(tmp_path)
    assert main(["run", str(write_config(tmp_path))]) == 0
    assert set(states) == {"probe", "select_next"}
    assert states["probe"] != states["select_next"]


def test_benchmark_traced_hooks_run_and_uninstall(tmp_path, monkeypatch):
    """The benchmark's traced mode, on a small run and compare.

    bench/tracing.py is imported as it stands (only sys.path is touched).
    Its after-hooks read `select_next` and `cmu_register` arguments by
    position; a hook that raised would surface from `main` as an exception
    or a non-zero exit. care keeps `rigid_fit_svd` only for the wrapper,
    so that layer alone records no calls.
    """
    from palpmap import care, geometry
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import ProbeClock, Tracer, install_layers

    owners = (cli, care, care.SetCollector, geometry.TriMesh)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    wrapped = []
    wrap = tracer.wrap

    def recording_wrap(owner, attr, name, **kwargs):
        wrapped.append(name)
        wrap(owner, attr, name, **kwargs)

    tracer.wrap = recording_wrap
    install_layers(tracer, ProbeClock())
    try:
        small_phantom(tmp_path)
        config = write_config(tmp_path)
        assert main(["run", str(config)]) == 0
        assert main(["compare", str(config)]) == 0
    finally:
        tracer.uninstall()
    assert [name for name in wrapped
            if tracer.counters[f"{name}.calls"] == 0] == ["geometry.rigid_fit_svd"]
    for owner, names in zip(owners, before):
        assert [name for name, value in names.items()
                if vars(owner).get(name) is not value] == []


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

    def test_probe_log_rows_carry_their_own_sets_stiffness(self, tmp_path):
        """Probe 0 is split across two sets; probe 1 holds the last member of
        the second set, a singleton and a degenerate set."""
        up = np.array([0.0, 0.0, 1.0])
        rows = [((0.0, -0.5), 1.0), ((0.0, -1.0), 2.0),   # set 0: slope 2
                ((5.0, -1.5), 3.0), ((5.0, -2.0), 4.5),   # set 1: slope 3
                ((5.0, -2.5), 6.0),                       # ... set 1 again
                ((20.0, -0.5), 1.0),                      # a singleton
                ((40.0, -1.0), 1.0), ((40.0, -1.0), 2.0)]  # zero depth span
        measurements = [ProbeMeasurement(np.array([x, 0.0, z]), force, up)
                        for (x, z), force in rows]
        sets = collect_sets(measurements, CMUConfig())
        samples = [estimate_stiffness(cset, measurements) for cset in sets]
        assert [s.member_indices for s in sets] == [(0, 1), (2, 3, 4), (6, 7)]
        assert [s.degenerate for s in samples] == [False, False, True]
        art = types.SimpleNamespace(
            config=types.SimpleNamespace(
                probe=ProbeConfig(depth_increment_mm=0.5, max_depth_mm=2.0)),
            samples=samples, measurements=measurements,
            probe_targets=[np.zeros(2), np.array([5.0, 0.0])])
        cli._write_probe_log(art, tmp_path / "probe_log.csv")
        lines = (tmp_path / "probe_log.csv").read_text().splitlines()[1:]
        stiffness = [float(line.split(",")[-1]) for line in lines]
        nan = float("nan")
        assert stiffness == pytest.approx([2.0, 2.0, 3.0, 3.0, 3.0, nan, nan, nan],
                                          nan_ok=True)

    def test_written_tables_read_back_bit_for_bit(self, tmp_path):
        """Every column of the three run tables reads back, with `float` or
        `int`, as exactly the run's value."""
        small_phantom(tmp_path)
        noise = {"position_sigma_mm": 0.2, "force_sigma_n": 0.05}
        config = load_config(write_config(tmp_path, noise=noise))
        art = cli.execute_experiment(config)
        [report] = cli.evaluate([art])
        out = cli.write_run_outputs(art, report, tmp_path / "out")

        def columns(name, *kinds):
            lines = (out / name).read_text().splitlines()[1:]
            rows = [line.split(",") for line in lines]
            return [[kind(row[i]) for row in rows] for i, kind in enumerate(kinds)]

        def same(read, expected):
            return np.array_equal(np.asarray(read, dtype=float),
                                  np.asarray(expected, dtype=float), equal_nan=True)

        x, y, mean, std, ei = columns("stiffness_map.csv", *[float] * 5)
        expected = [art.grid[:, 0], art.grid[:, 1], art.prediction.mean, art.prediction.std,
                    expected_improvement(art.prediction.mean, art.prediction.std,
                                         float(art.model.training.outputs.max()))]
        for read, values in zip((x, y, mean, std, ei), expected):
            assert same(read, values)

        steps = config.probe.steps
        index, tx, ty, k, depth, force, stiffness = columns(
            "probe_log.csv", int, float, float, int, float, float, float)
        rows = range(len(art.probe_targets) * steps)
        assert len(index) == len(art.measurements) == len(rows)
        assert index == [row // steps for row in rows]
        assert k == [row % steps + 1 for row in rows]
        assert same(tx, [art.probe_targets[row // steps][0] for row in rows])
        assert same(ty, [art.probe_targets[row // steps][1] for row in rows])
        assert same(depth, [(row % steps + 1) * config.probe.depth_increment_mm
                            for row in rows])
        assert same(force, [m.force for m in art.measurements])
        expected = [np.nan] * len(rows)
        for s in art.samples:
            for member in s.cset.member_indices:
                expected[member] = np.nan if s.degenerate else s.stiffness
        assert same(stiffness, expected)

        read = columns("registration_trace.csv", int, int, *[float] * 7)
        assert len(read[0]) == len(art.trace)
        for i, (probes_used, reg) in enumerate(art.trace):
            assert [read[0][i], read[1][i]] == [probes_used, reg.iterations]
            assert same([column[i] for column in read[2:]],
                        [reg.objective, *reg.transform.translation,
                         *reg.transform.euler_deg()])

    def test_run_deterministic_bytes(self, tmp_path):
        small_phantom(tmp_path)
        noise = {"position_sigma_mm": 0.2, "force_sigma_n": 0.05}
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

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        """The GP's grid products run on threaded BLAS, which may split their
        sums differently: runs with one and with two OpenBLAS threads pick the
        same probes, and their maps agree to rounding."""
        small_phantom(tmp_path)
        roi = {"xmin": 0.0, "xmax": 12.0, "ymin": 0.0, "ymax": 12.0, "spacing": 0.4}
        noise = {"position_sigma_mm": 0.2, "force_sigma_n": 0.05}
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runner = "import sys; from palpmap.cli import main; sys.exit(main(sys.argv[1:]))"
        for threads in ("1", "2"):
            config = write_config(tmp_path, roi=roi, budget=12, noise=noise,
                                  output_dir=f"out_{threads}")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            subprocess.run([sys.executable, "-c", runner, "run", str(config)], env=env,
                           check=True, capture_output=True)
        one, two = tmp_path / "out_1", tmp_path / "out_2"
        for name in ("probe_log.csv", "registration_trace.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        map_one, map_two = (np.loadtxt(out / "stiffness_map.csv", delimiter=",", skiprows=1)
                            for out in (one, two))
        assert map_one.shape == (31 * 31, 5)
        np.testing.assert_allclose(map_one, map_two, rtol=0.0, atol=1e-9)

    def test_registration_seeding_policy(self, tmp_path, monkeypatch):
        """All configured seeds at the first and the final update, the previous
        winner alone at every update between them. The final result is a fresh
        search of the final samples from the configured seeds: the loop's warm
        chain does not reach it."""
        small_phantom(tmp_path)
        roi = {"xmin": 0.0, "xmax": 12.0, "ymin": 0.0, "ymax": 12.0, "spacing": 1.0}
        config = load_config(write_config(tmp_path, roi=roi, budget=30))
        art = cli.execute_experiment(config)
        configured = len(config.cmu.seed_transforms)
        assert len(art.trace) == 30 + 1
        first, *in_loop, final = [len(reg.per_seed) for _, reg in art.trace]
        assert first == configured
        assert in_loop == [1] * 29
        assert final == configured

        def exact(reg):
            outcomes = (reg, *reg.per_seed)
            return [(o.transform.rotation.tobytes(), o.transform.translation.tobytes(),
                     o.objective, o.iterations, o.converged) for o in outcomes]

        fresh = cmu_register(art.samples, art.phantom.mesh, art.measurements,
                             config.cmu.seed_transforms, config.cmu)
        assert exact(art.trace[-1][1]) == exact(fresh)

        register = cli.cmu_register

        def cold(samples, mesh, measurements, seeds, cmu, previous=None):
            if len(seeds) == 1:
                seeds = (RigidTransform.identity(),)
            return register(samples, mesh, measurements, seeds, cmu, previous=previous)

        monkeypatch.setattr(cli, "cmu_register", cold)
        rerun = cli.execute_experiment(config).trace
        assert [exact(reg) for _, reg in rerun[1:-1]] != \
            [exact(reg) for _, reg in art.trace[1:-1]]
        assert exact(rerun[-1][1]) == exact(fresh)

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

    def test_warns_when_gp_jitter_escalates(self, tmp_path, capsys):
        # at jitter 0, a 1 m length scale leaves K singular in double precision
        small_phantom(tmp_path)
        cfg_path = write_config(tmp_path, kernel={"jitter": 0.0, "length_scale_mm": 1000.0})
        assert main(["run", str(cfg_path)]) == 0
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["warning: ei: GP jitter escalated from 0 to 1e-08"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "jitter" not in json.dumps(report)
        assert main(["compare", str(cfg_path)]) == 0
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"warning: {strategy}: GP jitter escalated from 0 to 1e-08"
                       for strategy in ("ei", "uniform")]

    def test_demo_config_prints_no_warning(self, tmp_path, capsys):
        assert main(["run", str(write_demo(tmp_path) / "config.json")]) == 0
        assert capsys.readouterr().err == ""

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
        assert len(lines) == 1 + 14 * 14  # tool-frame mesh bounds span 52-53 mm, spacing 4
        assert (out / "ground_truth.pgm").exists()

    def test_ground_truth_rows_are_the_scored_map(self, tmp_path):
        """Each row holds the map `evaluate` scores against, at the row's tool-frame (x, y)."""
        write_demo(tmp_path)
        out = tmp_path / "gt"
        assert main(["ground-truth", str(tmp_path / "phantom.json"), "--out", str(out)]) == 0
        rows = np.array([[float(v) for v in line.split(",")] for line in
                         (out / "ground_truth_map.csv").read_text().strip().split("\n")[1:]])
        spec = load_phantom(tmp_path / "phantom.json")
        assert np.array_equal(rows[:, 2], cli._ground_truth_map(spec, rows[:, :2]),
                              equal_nan=True)
        misses = np.isnan(rows[:, 2])
        assert 0 < misses.sum() < len(rows) / 2
        pixels = np.frombuffer((out / "ground_truth.pgm").read_bytes().split(b"\n", 3)[3],
                               dtype=np.uint8)
        assert np.all(pixels[misses] == 0) and pixels[~misses].max() == 255
        lo = rows[~misses, 2].min()
        assert np.all(pixels[~misses][rows[~misses, 2] == lo] == 0)

    def test_ground_truth_bad_spacing(self, tmp_path):
        phantom = small_phantom(tmp_path)
        assert main(["ground-truth", str(phantom), "--spacing", "0"]) == 2

    def test_ground_truth_collapsed_phantom_blames_the_transform(self, tmp_path, capsys):
        phantom = small_phantom(tmp_path)
        doc = json.loads(phantom.read_text())
        doc["true_transform"]["translation_mm"] = [1e300, 0.0, 0.0]
        phantom.write_text(json.dumps(doc))
        for spacing in ("1", "1e-9"):
            assert main(["ground-truth", str(phantom), "--spacing", spacing,
                         "--out", str(tmp_path / "gt")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: "), err
            assert "true_transform" in err[0] and "--spacing" not in err[0]


class TestMakeDemo:
    def test_writes_loadable_bundle(self, tmp_path):
        out = write_demo(tmp_path / "demo")
        cfg = load_config(out / "config.json")
        assert cfg.phantom.exists()
        assert cfg.budget == 100
        assert cfg.kernel.jitter == pytest.approx(0.01)
