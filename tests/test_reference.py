"""
The committed reference artifacts (`tests/reference`) against a fresh run
of `tools/make_reference.py`: every number agrees to 1e-9 absolute and
every other field exactly, so a change that moves any default-grid row,
the USA grid, a storms report or an `estimate.json` fails here, while the
last-bit differences between Python and numpy builds do not.
"""

from __future__ import annotations

import csv
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference"
TOL = 1e-9


def _make_reference():
    spec = importlib.util.spec_from_file_location("make_reference", ROOT / "tools" / "make_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_reference


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _diff_json(ref, new, where: str, out: list) -> None:
    if _number(ref) and _number(new):
        if not abs(ref - new) <= TOL:
            out.append(f"{where}: {ref!r} -> {new!r}")
    elif isinstance(ref, dict) and isinstance(new, dict):
        if ref.keys() != new.keys():
            out.append(f"{where}: keys {sorted(ref.keys() ^ new.keys())} differ")
        for key in ref.keys() & new.keys():
            _diff_json(ref[key], new[key], f"{where}.{key}", out)
    elif isinstance(ref, list) and isinstance(new, list) and len(ref) == len(new):
        for i, (r, n) in enumerate(zip(ref, new)):
            _diff_json(r, n, f"{where}[{i}]", out)
    elif type(ref) is not type(new) or ref != new:
        out.append(f"{where}: {ref!r} -> {new!r}")


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _diff_csv(ref_path: Path, new_path: Path, out: list) -> None:
    with open(ref_path, newline="") as fr, open(new_path, newline="") as fn:
        ref, new = list(csv.reader(fr)), list(csv.reader(fn))
    if len(ref) != len(new):
        out.append(f"{ref_path.name}: {len(ref)} -> {len(new)} lines")
    for line, (r_row, n_row) in enumerate(zip(ref, new), start=1):
        if len(r_row) != len(n_row):
            out.append(f"{ref_path.name}:{line}: {r_row} -> {n_row}")
            continue
        for r, n in zip(r_row, n_row):
            rf, nf = _float(r), _float(n)
            moved = r != n if rf is None or nf is None else not abs(rf - nf) <= TOL
            if moved:
                out.append(f"{ref_path.name}:{line}: {r} -> {n}")


def diff_artifacts(ref_dir: Path, new_dir: Path) -> list[str]:
    """Every difference between two artifact trees, beyond 1e-9 for numbers."""
    ref_files = sorted(p.relative_to(ref_dir) for p in ref_dir.rglob("*") if p.is_file())
    new_files = sorted(p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file())
    out = []
    if ref_files != new_files:
        out.append(f"files {sorted(set(map(str, ref_files)) ^ set(map(str, new_files)))} "
                   "are in one tree only")
    for rel in sorted(set(ref_files) & set(new_files)):
        if rel.suffix == ".csv":
            _diff_csv(ref_dir / rel, new_dir / rel, out)
        else:
            _diff_json(json.loads((ref_dir / rel).read_text()),
                       json.loads((new_dir / rel).read_text()), str(rel), out)
    return out


def test_a_fresh_run_matches_the_committed_reference(tmp_path):
    _make_reference()(tmp_path)
    diffs = diff_artifacts(REFERENCE, tmp_path)
    assert not diffs, f"{len(diffs)} difference(s); the first: " + "\n".join(diffs[:20])


def test_the_comparison_sees_a_moved_number_a_changed_field_and_a_missing_key(tmp_path):
    ref, new = tmp_path / "ref", tmp_path / "new"
    for d in (ref, new):
        d.mkdir()
    (ref / "rows.csv").write_text("method,x,error\nmle,0.5,\nmle,1.0,\n")
    (new / "rows.csv").write_text("method,x,error\nmle,0.5000000000001,\nmle,1.1,boom\n")
    (ref / "a.json").write_text('{"k": 1.0, "gone": true, "v": [1, "s"]}')
    (new / "a.json").write_text('{"k": 1.0000000000001, "v": [1, "t"]}')
    diffs = diff_artifacts(ref, new)
    assert diffs == ["a.json: keys ['gone'] differ", "a.json.v[1]: 's' -> 't'",
                     "rows.csv:3: 1.0 -> 1.1", "rows.csv:3:  -> boom"]
