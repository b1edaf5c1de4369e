"""tools/golden_digest.py's listing and comparison, on two roots written by
hand: no experiment is run."""

import hashlib
import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "golden_digest", Path(__file__).parents[1] / "tools" / "golden_digest.py")
golden_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_digest)


def _root(path: Path, rmse=0.5, last_x="2.0", extra=False) -> Path:
    """A run directory: a CSV map, a JSON report, a timing file and a note."""
    (path / "ei").mkdir(parents=True)
    (path / "ei" / "map.csv").write_text(f"x_mm,y_mm,label\n1.0,0.0,a\n{last_x},0.5,b\n")
    report = {"strategy": "ei", "map_rmse": rmse}
    (path / "ei" / "report.json").write_text(json.dumps(report))
    (path / "timing.txt").write_text(f"{path.name}: 1.0 s\n")  # differs between roots
    (path / "a_note.txt").write_text("notes\n")
    if extra:
        (path / "ei" / "extra.csv").write_text("x_mm\n1.0\n")
    return path


def test_digest_leaves_out_timing_and_sorts_by_path(tmp_path):
    root = _root(tmp_path / "run")
    listing = golden_digest.digest(root)
    assert [line.split("  ", 1)[1] for line in listing] == [
        "a_note.txt", "ei/map.csv", "ei/report.json"]
    sha = hashlib.sha256((root / "ei" / "map.csv").read_bytes()).hexdigest()
    assert listing[1] == f"{sha}  ei/map.csv"


def test_compare_equal_roots(tmp_path, capsys):
    old, new = _root(tmp_path / "old"), _root(tmp_path / "new")
    assert golden_digest.compare(old, new) == 0
    assert capsys.readouterr().out == ""


def test_compare_prints_each_changed_column_and_leaf(tmp_path, capsys):
    old = _root(tmp_path / "old")
    new = _root(tmp_path / "new", rmse=0.75, last_x="2.25")
    assert golden_digest.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ei/map.csv", "  x_mm  0.25",
        "ei/report.json", "  map_rmse  0.25",
    ]


def test_compare_names_a_one_sided_file(tmp_path, capsys):
    old, new = _root(tmp_path / "old"), _root(tmp_path / "new", extra=True)
    assert golden_digest.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines() == [f"ei/extra.csv: only in {new}"]
