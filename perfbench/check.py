"""Output checks for one CLI run. Every problem found counts the run as failed."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import ALPHA_COUNT, Workload


def snapshot(out_dir: Path) -> dict:
    """Relative path -> SHA-256 of every file under ``out_dir``."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _grid_problems(path: Path, resolution: int) -> list:
    rows = _rows(path)
    if len(rows) != resolution * resolution:
        return [f"{path.name}: {len(rows)} cells, expected {resolution ** 2}"]
    total = math.fsum(float(r[4]) for r in rows)
    if abs(total - 1.0) > 1e-12:
        return [f"{path.name}: densities sum to {total!r}, not 1 within 1e-12"]
    return []


def check_run(workload: Workload, exit_code: int, out_dir: Path, files: dict) -> list:
    """Problems with one run's exit code and outputs (``files`` from ``snapshot``)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if "manifest.json" not in files:
        return ["no manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    data_files = sorted(f for f in files if f != "manifest.json")
    problems = []
    if manifest.get("outputs") != data_files:
        problems.append(f"manifest outputs {manifest.get('outputs')} != files {data_files}")
    if workload.command == "taildep":
        rows = _rows(out_dir / "tail_curve.csv")
        if len(rows) != ALPHA_COUNT:
            problems.append(f"tail_curve.csv: {len(rows)} rows, expected {ALPHA_COUNT}")
        if not all(0.0 <= float(v) <= 1.0 for r in rows for v in r[1:]):
            problems.append("tail_curve.csv: tail value outside [0, 1]")
    elif workload.command == "diff":
        rows = _rows(out_dir / "difference.csv")
        total = math.fsum(float(r[4]) for r in rows) / 1000.0
        if abs(total) > 1e-9:
            problems.append(f"difference.csv: cells sum to {total!r}, not 0 within 1e-9")
    elif workload.command == "dynamics":
        grids = [f for f in data_files if f.startswith("windows/")]
        if len(grids) != workload.windows:
            problems.append(f"{len(grids)} window grids, expected {workload.windows}")
        for name in grids:
            problems += _grid_problems(out_dir / name, manifest["config"]["grid"])
        rows = _rows(out_dir / "relation.csv")
        if len(rows) != workload.windows * ALPHA_COUNT:
            problems.append(
                f"relation.csv: {len(rows)} rows, expected {workload.windows} x {ALPHA_COUNT}"
            )
    elif workload.command == "synth":
        rows = (out_dir / "prices.csv").read_bytes().count(b"\n") - 1
        if rows != workload.rows:
            problems.append(f"prices.csv: {rows} rows, expected {workload.rows}")
    return problems


def same_outputs(reference: dict, files: dict, ignore=()) -> list:
    """Problems if two snapshots differ, apart from the files in ``ignore``."""
    a = {k: v for k, v in reference.items() if k not in ignore}
    b = {k: v for k, v in files.items() if k not in ignore}
    if a == b:
        return []
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return [f"outputs differ from the first run: {', '.join(differ[:5])}"]
