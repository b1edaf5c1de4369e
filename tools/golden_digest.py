"""Print a sha256 for every artifact of the canonical palpmap runs.

Usage: python tools/golden_digest.py [--seed N] [--workdir DIR]
       python tools/golden_digest.py --compare OLD_DIR NEW_DIR

Runs, at master seed N (default 1), the scenarios

  demo-run         `palpmap run` on the make_demo bundle (noisy, 1 mm grid)
  demo-compare     `palpmap compare` on the same bundle
  artery-compare   `palpmap compare` on the artery phantom (1.5 mm grid)
  scaled-run       `palpmap run`, noise-free, budget 300, 0.5 mm grid
  ground-truth     `palpmap ground-truth --spacing 1` on the make_demo phantom

with the palpmap in this checkout's `src/`, and prints one line per file
they wrote, inputs included: `<sha256>  <scenario>/<path>`, sorted.
`timing.txt` holds wall-clock time and is left out. Two checkouts run the
same seed produce identical listings exactly when every other artifact is
byte-identical, so a golden comparison is one `diff` of two listings.
OpenBLAS runs one thread unless OPENBLAS_NUM_THREADS is already set: the
map means depend on BLAS's thread count in their last bits.

`--compare` runs nothing: it reads two directories kept with `--workdir`
(the same seed, two checkouts) and, for each file that differs, prints the
file and the max absolute difference of every numeric CSV column and JSON
leaf that differs. It exits 1 when any file differs, like `diff`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# before NumPy loads OpenBLAS, which reads it once
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from palpmap.cli import main as palpmap_main  # noqa: E402
from palpmap.make_demo import write_demo  # noqa: E402
from palpmap.simulator import artery_phantom, save_phantom  # noqa: E402

_SKIPPED = {"timing.txt"}


def _demo(directory: Path, seed: int, **changes) -> Path:
    write_demo(directory)
    path = directory / "config.json"
    doc = json.loads(path.read_text())
    doc.update(changes, master_seed=seed)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _scaled(directory: Path, seed: int) -> Path:
    path = _demo(directory, seed, budget=300)
    doc = json.loads(path.read_text())
    # noise-free with the default kernel jitter, as bench/'s multimodal-scaled
    del doc["noise"], doc["kernel"]
    doc["roi"]["spacing"] = 0.5
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _artery(directory: Path, seed: int) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    save_phantom(artery_phantom(), directory / "phantom.json")
    doc = {"phantom": "phantom.json",
           "roi": {"xmin": 0.0, "xmax": 60.0, "ymin": 0.0, "ymax": 60.0, "spacing": 1.5},
           "budget": 100, "strategy": "ei", "output_dir": "out", "master_seed": seed}
    path = directory / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _ground_truth(directory: Path, seed: int) -> list:
    """The make_demo bundle; the map it writes does not depend on the seed."""
    write_demo(directory)
    return [directory / "phantom.json", "--spacing", "1", "--out", directory / "out"]


# name: (palpmap command, writer of the scenario's inputs returning the command's arguments)
SCENARIOS = {
    "demo-run": ("run", lambda directory, seed: [_demo(directory, seed)]),
    "demo-compare": ("compare", lambda directory, seed: [_demo(directory, seed)]),
    "artery-compare": ("compare", lambda directory, seed: [_artery(directory, seed)]),
    "scaled-run": ("run", lambda directory, seed: [_scaled(directory, seed)]),
    "ground-truth": ("ground-truth", _ground_truth),
}


def digest(root: Path) -> list[str]:
    """`<sha256>  <path>` for every file under root except timing.txt, sorted by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in _SKIPPED]


def _hashes(root: Path) -> dict:
    """The listing of `digest`, as {path: sha256}."""
    return {path: sha for sha, path in (line.split("  ", 1) for line in digest(root))}


def _leaves(value, path=""):
    """(dotted path, value) of every leaf of a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _csv_columns(path: Path) -> dict:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _as_floats(values):
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        return None


def _differences(old: Path, new: Path) -> list[str]:
    """`<name>  <max |difference|>` for each CSV column or JSON leaf that differs."""
    if old.suffix == ".json":
        before, after = dict(_leaves(json.loads(old.read_text()))), \
            dict(_leaves(json.loads(new.read_text())))
        pairs = {key: ([before.get(key)], [after.get(key)]) for key in {**before, **after}}
    elif old.suffix == ".csv":
        before, after = _csv_columns(old), _csv_columns(new)
        pairs = {key: (before.get(key, []), after.get(key, [])) for key in {**before, **after}}
    else:
        return ["  differs (neither CSV nor JSON)"]
    lines = []
    for key in sorted(pairs):
        a, b = pairs[key]
        if a == b:
            continue
        fa, fb = _as_floats(a), _as_floats(b)
        if (fa is None or fb is None or len(fa) != len(fb)
                or any(isinstance(v, bool) for v in a + b)):
            lines.append(f"  {key}  not numeric, or of different length: differs")
        else:
            lines.append(f"  {key}  {max(abs(x - y) for x, y in zip(fa, fb)):.3g}")
    return lines


def compare(old_root: Path, new_root: Path) -> int:
    """Print each differing file under the two roots with its differences; 1 if any."""
    old, new = _hashes(old_root), _hashes(new_root)
    status = 0
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) == new.get(name):
            continue
        status = 1
        if name not in new or name not in old:
            print(f"{name}: only in {old_root if name in old else new_root}")
            continue
        print(name)
        for line in _differences(old_root / name, new_root / name):
            print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    parser.add_argument("--workdir", type=Path,
                        help="keep the runs' files here, to inspect a mismatch "
                             "(default: a temporary directory)")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                        help="run nothing; print the numeric differences between "
                             "two kept work directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    with contextlib.ExitStack() as stack:
        workdir = args.workdir or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for name, (command, write_inputs) in SCENARIOS.items():
            arguments = write_inputs(workdir / name, args.seed)
            with contextlib.redirect_stdout(io.StringIO()):
                status = palpmap_main([command, *map(str, arguments)])
            if status != 0:
                print(f"{name}: palpmap {command} exited {status}", file=sys.stderr)
                return status
        for line in digest(workdir):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
