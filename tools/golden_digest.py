"""Print a sha256 for every artifact of the canonical palpmap runs.

Usage: python tools/golden_digest.py [--seed N] [--workdir DIR]

Runs, at master seed N (default 1), the scenarios

  demo-run         `palpmap run` on the make_demo bundle (noisy, 1 mm grid)
  demo-compare     `palpmap compare` on the same bundle
  artery-compare   `palpmap compare` on the artery phantom (1.5 mm grid)
  scaled-run       `palpmap run`, noise-free, budget 300, 0.5 mm grid

with the palpmap in this checkout's `src/`, and prints one line per file
they wrote, inputs included: `<sha256>  <scenario>/<path>`, sorted.
`timing.txt` holds wall-clock time and is left out. Two checkouts run the
same seed produce identical listings exactly when every other artifact is
byte-identical, so a golden comparison is one `diff` of two listings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

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


# name: (palpmap command, writer of the scenario's inputs)
SCENARIOS = {
    "demo-run": ("run", _demo),
    "demo-compare": ("compare", _demo),
    "artery-compare": ("compare", _artery),
    "scaled-run": ("run", _scaled),
}


def digest(root: Path) -> list[str]:
    """`<sha256>  <path>` for every file under root except timing.txt, sorted by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in _SKIPPED]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    parser.add_argument("--workdir", type=Path,
                        help="keep the runs' files here, to inspect a mismatch "
                             "(default: a temporary directory)")
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        workdir = args.workdir or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for name, (command, write_inputs) in SCENARIOS.items():
            config = write_inputs(workdir / name, args.seed)
            with contextlib.redirect_stdout(io.StringIO()):
                status = palpmap_main([command, str(config)])
            if status != 0:
                print(f"{name}: palpmap {command} exited {status}", file=sys.stderr)
                return status
        for line in digest(workdir):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
