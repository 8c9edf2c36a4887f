"""
Command-line interface.

Subcommands:
    simulate   draw a truncated sample and write it to CSV
    estimate   fit a model to a dataset file
    benchmark  replicate experiment -> rows CSV + summary JSON; the
               vmf_unknown_kappa rows and summary carry the concentration
               error |kappa_hat - kappa_true|
    storms     fit mean direction of geolocated events in a border

Every subcommand reads its settings the same way (`_settings`): an
optional JSON file (--config) whose keys are the ExperimentConfig keys the
subcommand reads (`_READS`), overlaid with every flag given on the command
line, validated by ExperimentConfig.from_dict as `benchmark` does, so a
key the subcommand does not read or a bad value fails with exit code 2
whichever subcommand reads it. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    EXPERIMENTS,
    AllReplicatesFailed,
    ConfigError,
    DataError,
    ExperimentConfig,
    _method_report,
    _write_json,
    build_boundary,
    ingest_events,
    run_benchmark,
    run_storms,
    truth_params,
)
from .estimator import Dataset, estimate
from .geometry import to_spherical
from .sampling import sample_truncated, substream_rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# flags that set a config key of the same name, and those that set a truth key
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))
_TRUTH_FLAGS = ("model", "mu_a", "mu_b", "kappa", "alpha")


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _name_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--out-dir", help="artifact directory (default out)")


def _seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="base seed (default 0)")


def _replicate_flags(parser: argparse.ArgumentParser) -> None:
    _common_flags(parser)
    _seed_flag(parser)
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--n-grid", type=_int_list, help="comma-separated sample sizes")
    parser.add_argument("--methods", type=_name_list, help="comma-separated method names")
    parser.add_argument("--workers", type=int, help="parallel replicate workers (default 1)")
    parser.add_argument("--timings", action="store_true",
                        help="record wall times (breaks byte-identical reruns); a Kent "
                             "tmsm row gets its stats time plus an equal share of its "
                             "block's joint fit")


def _boundary_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a0", type=float, help="colatitude boundary angle (radians)")
    parser.add_argument("--side", choices=("greater", "less"),
                        help="which side of a0 is observed (default greater)")
    parser.add_argument("--boundary-csv", help="polyline boundary CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsm",
        description="Truncated score matching on the unit sphere: "
                    "samplers, estimators, and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a truncated sample to CSV")
    _common_flags(p)
    _seed_flag(p)
    _boundary_flags(p)
    p.add_argument("--model", choices=("vmf", "kent"), help="truth model (default vmf)")
    p.add_argument("--mu-a", type=float, help="truth polar angle (default pi/2)")
    p.add_argument("--mu-b", type=float, help="truth azimuth (default pi)")
    p.add_argument("--kappa", type=float, help="truth concentration")
    p.add_argument("--alpha", type=float, help="truth ovalness (kent)")
    p.add_argument("--n", type=int, default=1000, help="observed sample size")
    p.add_argument("--max-draw-factor", type=int, help="raw-draw cap multiplier")
    p.add_argument("--out", help="output CSV (default <out-dir>/samples.csv)")

    p = sub.add_parser("estimate", help="fit a model to a dataset file")
    _common_flags(p)
    _boundary_flags(p)
    p.add_argument("--data", required=True, help="dataset CSV (a_rad,b_rad)")
    p.add_argument("--g", choices=("haversine", "projected", "unit"), dest="g_kind",
                   default="haversine", help="scaling function variant (default haversine)")
    p.add_argument("--degrees", action="store_true",
                   help="ingest --data as latitude/longitude degree columns")
    p.add_argument("--model-kind", default="vmf_mu_kappa",
                   choices=("vmf_mu_only", "vmf_mu_kappa", "kent_frame"))
    p.add_argument("--fixed-kappa", type=float, help="known concentration")
    p.add_argument("--fixed-alpha", type=float, help="known ovalness (kent)")
    p.add_argument("--drop-axis", type=int, choices=(1, 2, 3),
                   help="coordinate number (x1..x3) zeroed by --g projected (default 2 "
                   "for a colatitude region, else the axis most aligned with the interior)")

    p = sub.add_parser("benchmark", help="replicate experiment -> CSV/JSON")
    _replicate_flags(p)
    p.add_argument("--experiment", choices=EXPERIMENTS)

    p = sub.add_parser("storms", help="fit mean direction of events in a border")
    _common_flags(p)
    _seed_flag(p)
    p.add_argument("--events", required=True, help="events CSV with lat/lon columns")
    p.add_argument("--boundary-csv", required=True, help="border polyline CSV")
    p.add_argument("--drop-axis", type=int, choices=(1, 2, 3))

    return parser


# the config-file keys each subcommand reads; any other key exits 2
_READS = {
    "simulate": ("seed", "boundary", "truth", "out_dir", "max_draw_factor"),
    "estimate": ("boundary", "out_dir", "drop_axis"),
    "benchmark": _CONFIG_KEYS,
    "storms": ("seed", "out_dir", "drop_axis"),
}


def _settings(args: argparse.Namespace) -> ExperimentConfig:
    """
    The command's ExperimentConfig: the --config file's keys, each one
    the command reads, overlaid with every flag that is given. A flag
    named after a config key sets it; --model, --mu-a, --mu-b, --kappa and
    --alpha set keys of `truth`; --boundary-csv, or else --a0 and --side,
    set `boundary`.
    """
    raw: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or not isinstance(raw.get("truth", {}), dict):
            raise ConfigError(f"config file {args.config} and its truth must be JSON objects")
        unread = sorted(set(raw) - set(_READS[args.command]))
        if unread:
            raise ConfigError(f"{args.command} does not read config key(s) {unread}")
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            raw[key] = value
    truth = {k: getattr(args, k) for k in _TRUTH_FLAGS if getattr(args, k, None) is not None}
    if truth:
        raw["truth"] = {**raw.get("truth", {}), **truth}
    colatitude = {k: getattr(args, k) for k in ("a0", "side") if getattr(args, k, None) is not None}
    if getattr(args, "boundary_csv", None):
        raw["boundary"] = {"type": "polyline_csv", "path": args.boundary_csv}
    elif colatitude:
        raw["boundary"] = {"type": "colatitude", **colatitude}
    return ExperimentConfig.from_dict(raw)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    config = _settings(args)
    params = truth_params(config)
    boundary = build_boundary(config.boundary)
    sample = sample_truncated(
        params, boundary, args.n, substream_rng(config.seed, args.n), config.max_draw_factor
    )
    out_path = Path(args.out) if args.out else Path(config.out_dir) / "samples.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    Dataset(sample.x).to_csv(out_path)
    print(f"wrote {sample.x.shape[0]} samples to {out_path} "
          f"(acceptance rate {sample.acceptance_rate:.4f})")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _settings(args)
    # each reader's message names the file once; a DataError is a ValueError
    try:
        data = ingest_events(args.data)[0] if args.degrees else Dataset.from_csv(args.data)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    boundary = build_boundary(config.boundary)
    fixed = {k: v for k, v in (("kappa", args.fixed_kappa), ("alpha", args.fixed_alpha))
             if v is not None}
    try:
        result = estimate(
            data, boundary, g_kind=args.g_kind, model_kind=args.model_kind,
            fixed=fixed, drop_axis=config.drop_axis,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    a, b = to_spherical(result.params.mu)
    report = {
        "model_kind": args.model_kind,
        "g_kind": args.g_kind,
        "n": data.n,
        "mu_a_rad": float(a),
        "mu_b_rad": float(b),
        **_method_report(result.params.mu, result.params.kappa),
        "objective": result.objective,
        "converged": result.converged,
        "iterations": result.iterations,
        "restarts_used": result.restarts_used,
    }
    if args.model_kind == "kent_frame":
        report["gamma1"] = [float(v) for v in result.params.gamma1]
        report["gamma2"] = [float(v) for v in result.params.gamma2]
        report["alpha"] = float(result.params.alpha)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report, out_dir / "estimate.json")
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_benchmark(args: argparse.Namespace) -> int:
    result = run_benchmark(_settings(args))
    print(f"wrote {len(result.rows)} rows to {result.csv_path}")
    print(f"summary: {result.json_path}")
    return EXIT_OK


def cmd_storms(args: argparse.Namespace) -> int:
    config = _settings(args)
    report = run_storms(
        args.events, config.boundary["path"], out_dir=config.out_dir,
        seed=config.seed, drop_axis=config.drop_axis,
    )
    print(json.dumps(report["fits"], indent=2, sort_keys=True))
    print(f"report: {Path(config.out_dir) / 'storms_report.json'}")
    return EXIT_OK


_DISPATCH = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "benchmark": cmd_benchmark,
    "storms": cmd_storms,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (AllReplicatesFailed, RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
