"""
Write the reference artifacts that `tests/test_reference.py` compares a
fresh run against:

    PYTHONPATH=src python tools/make_reference.py [out_dir]

writes to `tests/reference` by default (the PYTHONPATH is not needed once
the package is installed). Every artifact is made through
the `tmsm` command line in this process, from fixed seeds:

- the rows and summary of the three default benchmark grids;
- a USA `vmf_unknown_kappa` grid (`usa/`): tmsm_haversine, tmsm_projected
  and mle at n 100 and 400, 20 replicates, truth 25N 75W outside the
  outline;
- `storms_report.json` at the default drop axis and at axes 1 and 3
  (`storms/default`, `storms/axis1`, `storms/axis3`), on 500 USA draws of
  that truth (seed 8) written as lat/lon events to 6 decimals, as the CI
  storms step writes them;
- `estimate.json` for that USA sample (`estimate/usa`) and for a
  `kent_frame` fit of 500 Kent draws on the hemisphere (`estimate/kent`).

The samples and events behind the last two items go to a temporary
directory and are not kept. Regenerating the committed reference changes
test data: it is done only when a change moves these results on purpose.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import tmsm
from tmsm.bench import EXPERIMENTS
from tmsm.cli import main

OUTLINE = str(Path(tmsm.__file__).parent / "data" / "usa_outline.csv")
# criterion 8's truth, 25N 75W with kappa 6, outside the USA outline
USA_MU = (1.1344640137963142, -1.3089969389957472)
USA_TRUTH = ["--mu-a", repr(USA_MU[0]), "--mu-b", repr(USA_MU[1]), "--kappa", "6"]
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "tests" / "reference"


def _tmsm(*argv: str) -> None:
    """Run one tmsm command in process, its printout dropped; fail unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"tmsm {' '.join(argv)} exited {code}")


def _write_events(samples: Path, events: Path) -> None:
    """The samples CSV as lat/lon events to 6 decimals, as an event database holds them."""
    with open(samples, newline="") as src, open(events, "w", newline="") as dst:
        out = csv.writer(dst)
        out.writerow(["event_id", "lat", "lon"])
        for i, row in enumerate(csv.DictReader(src)):
            lat = 90.0 - math.degrees(float(row["a_rad"]))
            lon = (math.degrees(float(row["b_rad"])) + 180.0) % 360.0 - 180.0
            out.writerow([i, f"{lat:.6f}", f"{lon:.6f}"])


def make_reference(out_dir) -> None:
    """Write every reference artifact under `out_dir`."""
    out = Path(out_dir)
    for experiment in EXPERIMENTS:
        _tmsm("benchmark", "--experiment", experiment, "--out-dir", str(out))
    with tempfile.TemporaryDirectory() as tmp:
        usa, hemi = Path(tmp) / "usa", Path(tmp) / "hemi"
        config = Path(tmp) / "usa_grid.json"
        config.write_text(json.dumps({
            "experiment": "vmf_unknown_kappa",
            "boundary": {"type": "polyline_csv", "path": OUTLINE},
            "truth": {"mu_a": USA_MU[0], "mu_b": USA_MU[1]},
            "methods": ["tmsm_haversine", "tmsm_projected", "mle"],
            "n_grid": [100, 400],
            "replicates": 20,
        }))
        _tmsm("benchmark", "--config", str(config), "--out-dir", str(out / "usa"))
        _tmsm("simulate", "--boundary-csv", OUTLINE, *USA_TRUTH, "--n", "500", "--seed", "8",
              "--out-dir", str(usa))
        _write_events(usa / "samples.csv", usa / "events.csv")
        for name, axis in (("default", ()), ("axis1", ("--drop-axis", "1")),
                           ("axis3", ("--drop-axis", "3"))):
            _tmsm("storms", "--events", str(usa / "events.csv"), "--boundary-csv", OUTLINE,
                  *axis, "--out-dir", str(out / "storms" / name))
        _tmsm("estimate", "--boundary-csv", OUTLINE, "--data", str(usa / "samples.csv"),
              "--out-dir", str(out / "estimate" / "usa"))
        _tmsm("simulate", "--model", "kent", "--n", "500", "--seed", "8", "--out-dir", str(hemi))
        _tmsm("estimate", "--data", str(hemi / "samples.csv"), "--model-kind", "kent_frame",
              "--fixed-kappa", "10", "--fixed-alpha", "3", "--out-dir", str(out / "estimate" / "kent"))


if __name__ == "__main__":
    make_reference(sys.argv[1] if len(sys.argv) > 1 else DEFAULT_OUT)
