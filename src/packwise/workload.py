"""Trace data model, trace/catalog file IO, and synthetic workload generation.

A workload trace is a sequence of fixed-length periods; each period holds
one request count per service. Synthetic traces are drawn from a set of
planted mode centers plus Gaussian noise, so experiments can run against
data with a known number of underlying patterns.

All randomness goes through ``numpy.random.default_rng`` (PCG64) with an
explicit seed, so generated traces are reproducible across runs and
platforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .validation import as_float_matrix, check_positive_int

DEFAULT_PERIOD_SECONDS = 600


class TraceParseError(ValueError):
    """Raised for malformed trace files; message names the offending line."""


@dataclass(frozen=True)
class ServiceCatalog:
    """Static description of the services: how much resource one request costs.

    unit_costs is an (S, d) matrix: row s holds the resource units a single
    request of service s consumes in each of the d resource dimensions.
    """

    unit_costs: np.ndarray

    def __post_init__(self):
        costs = as_float_matrix(self.unit_costs, "unit_costs")
        object.__setattr__(self, "unit_costs", costs)
        if costs.shape[0] < 1 or costs.shape[1] < 1:
            raise ValueError("catalog needs at least one service and one dimension")
        if not np.isfinite(costs).all():
            raise ValueError("unit costs must be finite")
        if np.min(costs) < 0:
            raise ValueError("unit costs must be nonnegative")
        if np.any(costs.sum(axis=1) <= 0):
            raise ValueError("every service needs a positive unit cost in some dimension")

    @property
    def service_count(self) -> int:
        return self.unit_costs.shape[0]

    @property
    def dimension_count(self) -> int:
        return self.unit_costs.shape[1]


@dataclass(frozen=True)
class WorkloadTrace:
    """Per-period request counts: an (n_periods, S) matrix of nonnegative ints."""

    counts: np.ndarray
    period_seconds: int = DEFAULT_PERIOD_SECONDS

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError(f"counts must be 2-dimensional, got shape {counts.shape}")
        if counts.size and (np.any(counts < 0) or not np.issubdtype(counts.dtype, np.integer)):
            raise ValueError("counts must be nonnegative integers")
        counts = np.array(counts, dtype=np.int64, copy=True)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        check_positive_int(self.period_seconds, "period_seconds")

    @property
    def n_periods(self) -> int:
        return self.counts.shape[0]

    @property
    def service_count(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic trace: planted mode centers + Gaussian noise.

    mode_centers is (mode_count, S); each period picks a mode uniformly at
    random, adds N(0, noise_sigma) per entry, rounds to the nearest integer
    and clamps at zero.
    """

    mode_centers: np.ndarray
    noise_sigma: float
    periods: int
    seed: int
    mode_count: int = field(init=False)

    def __post_init__(self):
        centers = as_float_matrix(self.mode_centers, "mode_centers")
        object.__setattr__(self, "mode_centers", centers)
        object.__setattr__(self, "mode_count", centers.shape[0])
        if self.mode_count < 1:
            raise ValueError("need at least one mode")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        check_positive_int(self.periods, "periods")


_HEADER_RE = re.compile(r"^#\s*services=(\d+)\s+period_seconds=(\d+)\s*$")


def load_trace(path, catalog: ServiceCatalog) -> WorkloadTrace:
    """Read a trace CSV and validate it against the catalog width.

    Format: a `# services=<S> period_seconds=<n>` header line, then one
    line per period with S comma-separated nonnegative integers.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raise TraceParseError(f"{path}: empty trace file")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise TraceParseError(f"{path}: line 1: missing or malformed header")
    services, period_seconds = int(m.group(1)), int(m.group(2))
    if period_seconds < 1:
        raise TraceParseError(f"{path}: line 1: period_seconds must be a positive "
                              f"integer, got {period_seconds}")
    if services != catalog.service_count:
        raise TraceParseError(
            f"{path}: line 1: header declares {services} services, "
            f"catalog has {catalog.service_count}"
        )

    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != services:
            raise TraceParseError(
                f"{path}: line {lineno}: expected {services} columns, got {len(fields)}"
            )
        row = []
        for f in fields:
            f = f.strip()
            if not f.isdigit():
                raise TraceParseError(
                    f"{path}: line {lineno}: {f!r} is not a nonnegative integer"
                )
            row.append(int(f))
        rows.append(row)
    if not rows:
        raise TraceParseError(f"{path}: no period rows after header")
    return WorkloadTrace(np.array(rows, dtype=np.int64), period_seconds=period_seconds)


def save_trace(trace: WorkloadTrace, path) -> None:
    """Write the canonical trace CSV (load_trace(save_trace(t)) round-trips)."""
    lines = [f"# services={trace.service_count} period_seconds={trace.period_seconds}"]
    for row in trace.counts:
        lines.append(",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_trace(spec: SyntheticSpec, catalog: ServiceCatalog) -> WorkloadTrace:
    """Draw a synthetic trace; a pure function of (spec, catalog).

    Per period: mode chosen uniformly, Gaussian noise with sigma
    spec.noise_sigma added per entry, rounded to nearest integer,
    clamped at 0.
    """
    if spec.mode_centers.shape[1] != catalog.service_count:
        raise ValueError(
            f"mode centers have {spec.mode_centers.shape[1]} services, "
            f"catalog has {catalog.service_count}"
        )
    rng = np.random.default_rng(spec.seed)
    modes = rng.integers(0, spec.mode_count, size=spec.periods)
    raw = spec.mode_centers[modes]
    if spec.noise_sigma > 0:
        raw = raw + rng.normal(0.0, spec.noise_sigma, size=raw.shape)
    counts = np.clip(np.rint(raw), 0, None).astype(np.int64)
    return WorkloadTrace(counts)


def load_catalog(path) -> ServiceCatalog:
    """Read a service catalog: one line per service, d comma-separated unit
    costs. Every refusal, ServiceCatalog's included, names the file."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError:
            raise TraceParseError(f"{path}: line {lineno}: not a row of decimals") from None
        rows.append(row)
    if not rows:
        raise TraceParseError(f"{path}: empty catalog file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise TraceParseError(f"{path}: inconsistent column counts {sorted(widths)}")
    try:
        return ServiceCatalog(np.array(rows))
    except ValueError as exc:
        raise TraceParseError(f"{path}: {exc}") from None


def save_catalog(catalog: ServiceCatalog, path) -> None:
    """Write the catalog file load_catalog reads; each cost in its shortest
    exact form, so the reloaded catalog has the same fingerprint."""
    lines = [",".join(repr(float(v)) for v in row) for row in catalog.unit_costs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
