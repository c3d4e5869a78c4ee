"""Command-line interface.

Subcommands: gen (synthetic traces), build (offline table construction),
run (online replay), compare (method cost comparison), inspect-table.
Every subcommand is deterministic given --seed. A --config file line
key=value (key spelled with _ or -) is the flag --key=value: it may set
any flag of its subcommand that takes a value, flags on the command line
override it, and an unknown key or bad value exits 2 before any work. Keys
and flags are spelled in full: an abbreviation of a flag is unknown.
--log-level (debug, info, warning or error; default warning) sets which
log records reach stderr; it changes no output file.

Exit codes: 0 success, 2 build/usage/parse error, 3 table-catalog
fingerprint mismatch.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

import numpy as np

from .clustering import (DegenerateModelError, ahc, davies_bouldin, dunn, save_dendrogram,
                         save_index_table)
from .demand import demand_patterns
from .engine import (
    DEFAULT_K_RANGE,
    BuildError,
    MissPolicy,
    build_offline,
    evaluate_methods,
    run_online,
)
from .lookup import FingerprintMismatchError, load_table, save_table
from .packing import GaParams, load_vm_catalog
from .workload import (
    DEFAULT_PERIOD_SECONDS,
    ServiceCatalog,
    SyntheticSpec,
    WorkloadTrace,
    generate_trace,
    load_catalog,
    load_trace,
    save_trace,
)


def _config_flags(path) -> list:
    """A --config file's key=value lines as the flags --key=value."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    flags = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise argparse.ArgumentTypeError(f"{path}: line {lineno}: expected key=value")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _given(args, *names, **renamed) -> dict:
    """Keyword arguments for the settings that a flag or config line sets,
    each of names as itself and each renamed key from the args attribute it
    names; unset ones are left out, so the callee's own defaults apply."""
    renamed.update(zip(names, names))
    return {key: getattr(args, name) for key, name in renamed.items()
            if getattr(args, name) is not None}


_GA_SETTINGS = ("population", "generations")
CENTER_RANGE = (20, 200)   # inclusive range of gen's integer mode centers
SIGMA_FRACTION = 0.05


def _ga_params(args) -> GaParams:
    return GaParams(**_given(args, *_GA_SETTINGS), seed=args.seed)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    """Write a synthetic trace: args.modes planted modes of integer centers
    drawn from CENTER_RANGE, each period one mode plus Gaussian noise of
    sigma SIGMA_FRACTION times the mean center; --seed draws both."""
    if args.periods < 1:
        raise ValueError("--periods must be >= 1")
    if args.services < 1 or args.modes < 1:
        raise ValueError("--services and --modes must be >= 1")
    rng = np.random.default_rng(args.seed)
    low, high = CENTER_RANGE
    centers = rng.integers(low, high + 1, size=(args.modes, args.services)).astype(float)
    sigma = SIGMA_FRACTION * float(centers.mean())
    # The generator only needs the service count; unit costs are irrelevant here.
    catalog = ServiceCatalog(np.ones((args.services, 1)))
    spec = SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                         periods=args.periods, seed=args.seed)
    trace = generate_trace(spec, catalog)
    trace = WorkloadTrace(trace.counts, period_seconds=args.period_seconds)
    save_trace(trace, args.out)
    print(f"wrote {args.periods}x{args.services} trace to {args.out}")
    return 0


def cmd_build(args) -> int:
    catalog = load_catalog(args.catalog)
    vm_catalog = load_vm_catalog(args.vm_catalog)
    trace = load_trace(args.trace, catalog)
    table, report = build_offline(
        trace, catalog, vm_catalog,
        k_range=(args.k_min, args.k_max),
        ga_params=_ga_params(args),
        # float("inf") disables the magnitude guard; "--magnitude-ratio inf" parses fine.
        **_given(args, "threshold", "magnitude_ratio"),
        seed=args.seed,
    )
    # The dendrogram needs O(n^2) memory for n periods, so the library build
    # leaves it out; it runs before any file is written, so a degenerate
    # tree still leaves no artifact behind.
    patterns = demand_patterns(trace, catalog)
    ahc_model, dendrogram = ahc(patterns, report.best_k)
    try:
        ahc_db = davies_bouldin(ahc_model, patterns)
    except DegenerateModelError:
        ahc_db = None
    ahc_scores = (ahc_db, dunn(ahc_model, patterns))
    out = _outdir(args)
    save_table(table, out / "table.json")
    report.to_csv(out / "offline_report.csv", ahc_scores)
    save_index_table(report.index_rows, out / "index_table.csv")
    save_dendrogram(dendrogram, out / "dendrogram.csv")
    print(f"built table with {len(table.entries)} entries (k={report.best_k}) in {out}")
    return 0


def cmd_run(args) -> int:
    catalog = load_catalog(args.catalog)
    vm_catalog = load_vm_catalog(args.vm_catalog)
    trace = load_trace(args.trace, catalog)
    table = load_table(args.table, catalog, vm_catalog, trace.period_seconds)
    policy = MissPolicy(
        **_given(args, buffer_size="miss_buffer"),
        ga_params=_ga_params(args),
        k_range=(args.k_min, args.k_max),
        seed=args.seed,
    )
    report = run_online(table, trace, catalog, vm_catalog, miss_policy=policy)
    out = _outdir(args)
    report.to_csv(out / "simulation.csv")
    print(f"replayed {len(report.records)} periods: hit_rate={report.hit_rate:.3f} "
          f"total_cost={report.total_cost:.6g} reclusters={report.recluster_events}")
    return 0


def cmd_compare(args) -> int:
    catalog = load_catalog(args.catalog)
    vm_catalog = load_vm_catalog(args.vm_catalog)
    trace = load_trace(args.trace, catalog)
    table = load_table(args.table, catalog, vm_catalog, trace.period_seconds)
    report = evaluate_methods(trace, catalog, vm_catalog, table,
                              ga_params=_ga_params(args))
    out = _outdir(args)
    report.to_csv(out / "comparison.csv")
    totals = ", ".join(f"{m}={t:.6g}" for m, t in zip(report.methods, report.totals))
    print(f"compared {len(report.rows)} periods: {totals}")
    return 0


def cmd_inspect_table(args) -> int:
    catalog = load_catalog(args.catalog)
    vm_catalog = load_vm_catalog(args.vm_catalog)
    table = load_table(args.table, catalog, vm_catalog)
    print(f"table: {args.table}")
    print(f"similarity: {table.similarity}  threshold: {table.threshold:.6g}  "
          f"magnitude_ratio: {table.magnitude_ratio:.6g}")
    print(f"fingerprint: {table.fingerprint}")
    print(f"entries: {len(table.entries)}")
    for i, entry in enumerate(table.entries):
        pattern = ";".join(f"{v:.6g}" for v in entry.pattern)
        print(f"  [{i}] pattern={pattern} cost={entry.solution.total_cost:.6g} "
              f"instances={entry.solution.instance_count}")
        for inst in entry.solution.instances:
            hosted = ",".join(str(s) for s in inst.services)
            print(f"      {inst.vm_type.id} -> services {hosted}")
    return 0


def _add_common(p: argparse.ArgumentParser, table: bool = False) -> None:
    p.add_argument("--trace", required=True, help="trace CSV file")
    p.add_argument("--catalog", required=True, help="service catalog file")
    p.add_argument("--vm-catalog", required=True, help="VM type catalog file")
    if table:
        p.add_argument("--table", required=True, help="lookup table JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=_config_flags, help="key=value settings file")


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    for name in _GA_SETTINGS:
        p.add_argument("--" + name, type=int, default=None)


LOG_LEVELS = ("debug", "info", "warning", "error")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packwise",
        description="Learn demand patterns from a trace, precompute VM packings, "
                    "and answer scaling queries by table lookup.",
    )
    # Every subcommand takes --log-level after its name.
    logging_flags = argparse.ArgumentParser(add_help=False)
    logging_flags.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                               help="least severe log records shown (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag or config key must be spelled in full: no unique-prefix matches.
    add_parser = functools.partial(sub.add_parser, parents=[logging_flags],
                                   allow_abbrev=False)

    p = add_parser("gen", help="generate a synthetic multi-mode trace")
    p.add_argument("--services", type=int, required=True)
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--modes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--period-seconds", type=int, default=DEFAULT_PERIOD_SECONDS)
    p.add_argument("--out", required=True, help="trace file to write")
    p.set_defaults(func=cmd_gen)

    p = add_parser("build", help="build the lookup table from a trace")
    _add_common(p)
    p.add_argument("--k-min", type=int, default=DEFAULT_K_RANGE[0])
    p.add_argument("--k-max", type=int, default=DEFAULT_K_RANGE[1])
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--magnitude-ratio", type=float, default=None)
    _add_ga_flags(p)
    p.set_defaults(func=cmd_build)

    p = add_parser("run", help="replay a trace against a table")
    _add_common(p, table=True)
    p.add_argument("--miss-buffer", type=int, default=None)
    p.add_argument("--k-min", type=int, default=DEFAULT_K_RANGE[0])
    p.add_argument("--k-max", type=int, default=DEFAULT_K_RANGE[1])
    _add_ga_flags(p)
    p.set_defaults(func=cmd_run)

    p = add_parser("compare", help="cost comparison across methods")
    _add_common(p, table=True)
    _add_ga_flags(p)
    p.set_defaults(func=cmd_compare)

    p = add_parser("inspect-table", help="print a table summary")
    p.add_argument("--table", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--vm-catalog", required=True)
    p.set_defaults(func=cmd_inspect_table)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # Config lines become flags right after the subcommand name, so the
        # command line's own flags, parsed after them, win.
        args = parser.parse_args(argv[:1] + args.config + argv[1:])
    # The level is the package logger's for this command only, so callers
    # that run main() in process get their own level back.
    logger = logging.getLogger("packwise")
    previous = logger.level
    logger.setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except FingerprintMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BuildError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.setLevel(previous)


if __name__ == "__main__":
    sys.exit(main())
