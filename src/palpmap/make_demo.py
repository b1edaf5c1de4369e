"""Write a ready-to-run demo: phantom files plus a matching experiment config.

Usage: python -m palpmap.make_demo <directory>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .simulator import multimodal_phantom, save_phantom


def write_demo(directory) -> Path:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    spec = multimodal_phantom()
    save_phantom(spec, out / "phantom.json")
    config = {
        "phantom": "phantom.json",
        "roi": {"xmin": 0.0, "xmax": 40.0, "ymin": 0.0, "ymax": 40.0,
                "spacing": 1.0},
        "noise": {"position_sigma_mm": 0.3, "force_sigma_n": 0.1},
        # with noisy probes the GP needs a noise floor on the kernel diagonal,
        # roughly the measurement-noise variance; keep the default (1e-8) only
        # for noise-free data
        "kernel": {"jitter": 0.01},
        "budget": 100,
        "strategy": "ei",
        "output_dir": "out",
        "master_seed": 1,
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m palpmap.make_demo <directory>", file=sys.stderr)
        return 2
    out = write_demo(argv[0])
    print(f"wrote {out / 'mesh.obj'}, {out / 'phantom.json'}, {out / 'config.json'}")
    print(f"run it with: palpmap run {out / 'config.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
