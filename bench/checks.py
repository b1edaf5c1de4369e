"""Output checks run on every experiment the benchmark makes.

A failed check counts the experiment as failed. The bounds are the
acceptance criteria's; nothing here is tuned to the benchmark's runs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import List

CSV_FILES = ("stiffness_map.csv", "probe_log.csv", "registration_trace.csv")
# probe_log rows of measurements outside every compatible set, or whose set
# fit is degenerate, carry no stiffness: NaN by design
NAN_BY_DESIGN = {("probe_log.csv", "stiffness_n_per_mm")}
JSON_FILES = ("report.json",)


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def check_csv(path: Path) -> List[str]:
    problems = []
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        return [f"{path.name}: no data rows"]
    header = rows[0]
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            problems.append(f"{path.name}:{lineno}: {len(row)} fields, expected {len(header)}")
            continue
        for column, text in zip(header, row):
            if (path.name, column) in NAN_BY_DESIGN:
                continue
            try:
                value = float(text)
            except ValueError:
                problems.append(f"{path.name}:{lineno}: {column}={text!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"{path.name}:{lineno}: {column}={text}")
        if len(problems) > 5:
            break
    return problems


def check_pgm(path: Path) -> List[str]:
    data = path.read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        return [f"{path.name}: not an 8-bit binary PGM"]
    try:
        nx, ny = (int(v) for v in parts[1].split())
    except ValueError:
        return [f"{path.name}: bad size line {parts[1]!r}"]
    if len(parts[3]) != nx * ny:
        return [f"{path.name}: {len(parts[3])} pixels, expected {nx * ny}"]
    return []


def check_run_dir(out: Path) -> List[str]:
    """Every artifact of one strategy run exists and holds finite values."""
    problems = []
    for name in CSV_FILES + ("heatmap.pgm",) + JSON_FILES:
        if not (out / name).is_file():
            problems.append(f"{out.name}/{name}: missing")
    if problems:
        return problems
    for name in CSV_FILES:
        problems += check_csv(out / name)
    problems += check_pgm(out / "heatmap.pgm")
    for name in JSON_FILES:
        if not _finite_json(json.loads((out / name).read_text())):
            problems.append(f"{name}: non-finite value")
    return problems


def check_comparison(path: Path) -> List[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    if not _finite_json(json.loads(path.read_text())):
        return [f"{path.name}: non-finite value"]
    return []


def check_reports(reports, probes: int, rms_bound_mm: float) -> List[str]:
    """Probe counts and registration accuracy of every strategy run."""
    problems = []
    for report in reports:
        if report.probe_count != probes:
            problems.append(f"{report.strategy}: {report.probe_count} probes, "
                            f"expected {probes}")
        if not report.rms_mm <= rms_bound_mm:
            problems.append(f"{report.strategy}: rms {report.rms_mm:.4f} mm "
                            f"above {rms_bound_mm} mm")
    return problems
