"""Pattern-to-configuration lookup table and similarity matching.

The table maps representative demand patterns to precomputed packing
solutions. An incoming pattern is scored against every entry; the best
entry is a hit when its score clears the threshold (>= for correlation,
<= for Euclidean distance, the metric of one-service tables, for which
correlation is undefined). The online loop (engine.run_online) keeps
the misses until enough have piled up to justify reclustering.

Correlation is invariant to scale and shift, so two patterns with the
same shape but very different magnitudes correlate near 1 even though
they need very different machine counts. A configurable magnitude guard
(L1-norm ratio within [1/ratio, ratio]) closes that hole in correlation
mode; setting the ratio to infinity disables the guard. Euclidean mode
avoids the issue entirely.

Table files are versioned UTF-8 JSON tied to the catalogs they were built
from via a fingerprint hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .demand import DemandVector, demand_from_values
from .packing import PackingSolution, VmInstance, feasibility_violations, solution_cost
from .validation import as_float_vector
from .workload import ServiceCatalog

TABLE_VERSION = "packwise-table-v1"
# How far from +-1 a clipped Pearson quotient may lie and still need the
# exact +-1 sentinel test of entry_scores. A row equal to +-c, for the
# probe's centred vector c, scores +-p / (sqrt(q) * sqrt(q')), where p, q
# and q' are sums of the same S squares c_i**2 in up to three summation
# orders (the row's products, the probe's norm and the stored row norm).
# Each sum is within (S - 1) * 2**-53 of the exact one, relatively. The
# roots halve the shares of q and q', and the two roots, their product and
# the quotient round once each, adding 2**-53 apiece, so the quotient is
# within about (2 * (S - 1) + 4) * 2**-53 of +-1: below 1e-9 for S under
# four million. That needs p, q, q' and the product to be normal floats,
# which holds for 1e-150 < sqrt(q) < 1e150; outside that range every row
# is tested.
SENTINEL_EDGE = 1e-9


class TableFormatError(ValueError):
    """Table file is corrupt, truncated, or has the wrong version, or a
    table is priced for another period length."""


class FingerprintMismatchError(ValueError):
    """Table was built for different service/VM catalogs."""


def catalog_fingerprint(catalog: ServiceCatalog, vm_catalog) -> str:
    """Stable hash of the service catalog plus the VM catalog."""
    h = hashlib.sha256()
    h.update(f"services={catalog.service_count};dims={catalog.dimension_count}\n".encode())
    for row in catalog.unit_costs:
        h.update((",".join(repr(float(v)) for v in row) + "\n").encode())
    for t in vm_catalog:
        caps = ",".join(repr(float(c)) for c in t.capacity)
        h.update(f"{t.id}|{caps}|{float(t.hourly_cost)!r}\n".encode())
    return h.hexdigest()


def pearson(a, b) -> float:
    """Sample Pearson correlation in [-1, 1].

    When either vector has zero variance the usual formula degenerates;
    the sentinel is 1.0 if the mean-centered vectors coincide (within
    1e-12) and 0.0 otherwise, so a constant never spuriously matches a
    varying pattern.
    """
    a = as_float_vector(a, "a")
    b = as_float_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise ValueError("correlation needs vectors of length >= 2")
    ca, cb = a - a.mean(), b - b.mean()
    sa, sb = np.sqrt((ca ** 2).sum()), np.sqrt((cb ** 2).sum())
    if sa == 0.0 or sb == 0.0:
        return 1.0 if np.allclose(ca, cb, atol=1e-12) else 0.0
    # Identical (or negated) centered vectors score exactly +/-1; the
    # quotient below would land one ulp off for the self-match case.
    if np.array_equal(ca, cb):
        return 1.0
    if np.array_equal(ca, -cb):
        return -1.0
    r = float(ca @ cb / (sa * sb))
    return max(-1.0, min(1.0, r))


def check_match_settings(width: int, threshold, magnitude_ratio) -> str:
    """The metric of a table of width-service patterns: "pearson" from two
    services on, "euclidean" for one, where correlation is undefined.
    Raises ValueError for a threshold outside that metric's range or a
    magnitude_ratio below 1; a threshold of None, the metric's default,
    passes. LookupTable checks its settings here, and build_offline checks
    them here before it clusters."""
    similarity = "pearson" if width >= 2 else "euclidean"
    # Each range check is written so that NaN fails it.
    if threshold is not None:
        if similarity == "pearson" and not -1.0 < threshold <= 1.0:
            raise ValueError("correlation threshold must lie in (-1, 1]")
        if similarity == "euclidean" and not threshold > 0:
            raise ValueError("distance threshold must be positive")
    if not magnitude_ratio >= 1.0:
        raise ValueError("magnitude_ratio must be >= 1 (inf disables the guard)")
    return similarity


@dataclass(frozen=True)
class LookupEntry:
    """One table row: representative pattern -> feasible packing."""

    pattern: np.ndarray
    solution: PackingSolution

    def __post_init__(self):
        object.__setattr__(self, "pattern", as_float_vector(self.pattern, "pattern"))
        if not np.isfinite(self.pattern).all():
            raise ValueError("lookup entry patterns must be finite")
        if not self.solution.feasible:
            raise ValueError("lookup entries require feasible solutions")


@dataclass(frozen=True)
class MatchResult:
    best_index: int
    score: float
    hit: bool
    chosen: PackingSolution | None


@dataclass(eq=False)
class LookupTable:
    """Ordered entries plus the matching policy they were built with. The
    patterns' width sets the metric ``similarity``, and a threshold of None
    is its default: 0.7 for "pearson", a quarter of the mean distance
    between the patterns for "euclidean".

    Tables are never mutated (derive new ones with dataclasses.replace), so
    match() scores against read-only arrays built once here: the (E, S)
    matrix ``patterns``, its row-centred copy ``centred``, ``centred_norms``,
    the mask ``flat`` of zero-variance rows (``centred_norms == 0``), whether
    ``any_flat`` row is, and each pattern's L1 norm ``magnitudes``, bit-equal
    to np.abs(pattern).sum().
    """

    entries: tuple
    threshold: float | None = None
    magnitude_ratio: float = 1.5
    fingerprint: str = ""

    def __post_init__(self):
        self.entries = tuple(self.entries)
        if not self.entries:
            raise ValueError("lookup table needs at least one entry")
        widths = {len(e.pattern) for e in self.entries}
        if len(widths) != 1:
            raise ValueError("entry patterns have inconsistent lengths")
        self.similarity = check_match_settings(self.service_count, self.threshold,
                                               self.magnitude_ratio)
        self.patterns = np.vstack([e.pattern for e in self.entries])
        if self.threshold is None and self.similarity == "pearson":
            self.threshold = 0.7
        elif self.threshold is None:
            if len(self.entries) < 2:
                raise ValueError("a one-entry distance table needs a threshold")
            c = self.patterns
            dists = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
            self.threshold = 0.25 * float(dists[~np.eye(len(c), dtype=bool)].mean())
            if not self.threshold > 0:
                raise ValueError("a distance table of coincident patterns needs a threshold")
        self.centred = self.patterns - self.patterns.mean(axis=1, keepdims=True)
        self.centred_norms = np.sqrt((self.centred ** 2).sum(axis=1))
        self.flat = self.centred_norms == 0.0
        self.any_flat = bool(self.flat.any())
        self.magnitudes = np.abs(self.patterns).sum(axis=1)
        for arr in (self.patterns, self.centred, self.centred_norms, self.flat,
                    self.magnitudes):
            arr.flags.writeable = False

    @property
    def service_count(self) -> int:
        return len(self.entries[0].pattern)

    def to_doc(self) -> dict:
        """JSON-ready document (the canonical on-disk representation)."""
        return {
            "version": TABLE_VERSION,
            "similarity": self.similarity,
            "threshold": self.threshold,
            "magnitude_ratio": None if math.isinf(self.magnitude_ratio) else self.magnitude_ratio,
            "fingerprint": self.fingerprint,
            "entries": [
                {
                    "pattern": [float(v) for v in e.pattern],
                    "instances": [
                        {
                            "type_id": inst.vm_type.id,
                            "assignment": [int(b) for b in inst.assignment],
                        }
                        for inst in e.solution.instances
                    ],
                    "cost": e.solution.total_cost,
                }
                for e in self.entries
            ],
        }

    def __eq__(self, other):
        if not isinstance(other, LookupTable):
            return NotImplemented
        return self.to_doc() == other.to_doc()


def _magnitude_ok(l1_norm: float, magnitude: float, ratio: float) -> bool:
    """Whether the incoming L1 norm lies within ratio of an entry's magnitude."""
    if math.isinf(ratio):
        return True
    ni, np_ = float(l1_norm), float(magnitude)
    if ni == 0.0 and np_ == 0.0:
        return True
    if ni == 0.0 or np_ == 0.0:
        return False
    r = ni / np_
    return 1.0 / ratio <= r <= ratio


def entry_scores(table: LookupTable, vec: np.ndarray) -> np.ndarray:
    """pearson(vec, p), sentinels included, or ||vec - p|| for every pattern p.

    Products are summed row by row, not by a BLAS matrix-vector call whose
    summation order can depend on the row's position: equal patterns must
    score bit-equal so that ties go to the lowest index."""
    if table.similarity == "euclidean":
        return np.linalg.norm(table.patterns - vec, axis=1)
    return _pearson_scores(table, vec, vec.sum())


def _pearson_scores(table: LookupTable, vec: np.ndarray, total) -> np.ndarray:
    """entry_scores' Pearson branch, given total = vec.sum()."""
    c = vec - total / vec.shape[0]     # vec.mean(), the same float
    norm = np.sqrt((c ** 2).sum())
    rows = table.centred
    r = (rows * c).sum(axis=1)
    # A product of two nonzero norms is at least 5e-324, so the denominator
    # is zero on exactly the zero-variance rows (all rows for a flat probe),
    # which the block at the end overwrites; without them it divides in place.
    degenerate = norm == 0.0 or table.any_flat
    if degenerate:
        den = norm * table.centred_norms
        np.divide(r, den, out=r, where=den != 0.0)
    else:
        r /= norm * table.centred_norms
    # Within the range of SENTINEL_EDGE's bound, a row that needs a sentinel
    # scores within SENTINEL_EDGE of +-1, and the clip changes only scores
    # that near; a NaN score fails the test and takes the full path.
    edge, bounded = 1.0 - SENTINEL_EDGE, 1e-150 < norm < 1e150
    if not (bounded and r.max() < edge and r.min() > -edge):
        np.maximum(r, -1.0, out=r)
        np.minimum(r, 1.0, out=r)
        # pearson()'s sentinels, lowest precedence first so that later writes win.
        near = np.flatnonzero(np.abs(r) >= edge) if bounded else np.arange(r.shape[0])
        if near.size:
            near_rows = rows[near]
            r[near[(near_rows == -c).all(axis=1)]] = -1.0
            r[near[(near_rows == c).all(axis=1)]] = 1.0
    if degenerate:
        zero_var = table.flat | (norm == 0.0)
        flat = rows[zero_var]   # np.allclose(c, flat, atol=1e-12) per row, written out
        r[zero_var] = (np.abs(c - flat) <= 1e-12 + 1e-5 * np.abs(flat)).all(axis=1)
    return r


def match(table: LookupTable, incoming: DemandVector) -> MatchResult:
    """Score the incoming pattern against every entry and decide hit/miss.

    Best entry is the highest correlation (or smallest distance); ties go
    to the lowest index. A hit requires the threshold to clear and, in
    correlation mode, the magnitude guard to pass; only hits carry a
    solution.
    """
    vec = incoming.values
    if len(vec) != table.service_count:
        raise FingerprintMismatchError(
            f"incoming pattern has {len(vec)} services, table holds {table.service_count}"
        )
    if table.similarity == "pearson":
        # Demand values are nonnegative, so their sum is the L1 norm up to
        # the sign of a zero, which _magnitude_ok's == 0.0 ignores.
        total = vec.sum()
        scores = _pearson_scores(table, vec, total)
        best = int(scores.argmax())
        hit = scores[best] >= table.threshold and _magnitude_ok(
            total, table.magnitudes[best], table.magnitude_ratio)
    else:
        scores = entry_scores(table, vec)
        best = int(scores.argmin())
        hit = scores[best] <= table.threshold
    return MatchResult(
        best_index=best,
        score=float(scores[best]),
        hit=bool(hit),
        chosen=table.entries[best].solution if hit else None,
    )


def save_table(table: LookupTable, path) -> None:
    Path(path).write_text(
        json.dumps(table.to_doc(), indent=2) + "\n", encoding="utf-8"
    )


def check_period_prices(table: LookupTable, period_seconds: float, source="table") -> None:
    """Raise TableFormatError unless every entry's stored cost is its
    packing's catalog price for period_seconds-s periods, so a table priced
    for another period length serves no hit at the wrong price. source
    names the table in the message."""
    for entry in table.entries:
        cost = entry.solution.total_cost
        recomputed = solution_cost(entry.solution.instances, period_seconds)
        if not math.isclose(cost, recomputed, rel_tol=1e-9, abs_tol=1e-12):
            raise TableFormatError(
                f"{source}: stored cost {cost} disagrees with catalog prices for "
                f"{period_seconds:g}-s periods; built for another period length?"
            )


def load_table(path, catalog: ServiceCatalog, vm_catalog,
               period_seconds: float | None = None) -> LookupTable:
    """Load and validate a table file.

    The file stores VM types by id only, so the catalogs are required to
    resolve instances and to verify the fingerprint, and a vm_catalog that
    repeats an id is refused. The stored similarity must be the metric the
    catalog's width implies. Every pattern and assignment must hold one
    entry per catalog service, every stored cost must be finite and
    nonnegative, and every packing must fit its own pattern. Entry costs
    are taken from the file; when period_seconds is given,
    check_period_prices checks them against the catalog prices. A file
    built for other catalogs raises FingerprintMismatchError, and any other
    refusal of its content a TableFormatError; both name path.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise TableFormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("version") != TABLE_VERSION:
        raise TableFormatError(
            f"{path}: expected version {TABLE_VERSION!r}, got {doc.get('version')!r}"
        )
    expected = catalog_fingerprint(catalog, vm_catalog)
    if doc.get("fingerprint") != expected:
        raise FingerprintMismatchError(
            f"{path}: table was built for different catalogs"
        )
    by_id = {t.id: t for t in vm_catalog}
    if len(by_id) < len(vm_catalog):
        raise ValueError("vm_catalog repeats a type id, so stored ids are ambiguous")

    def per_service(values, what, dtype=None):
        arr = np.array(values, dtype=dtype)
        if arr.shape != (catalog.service_count,):
            raise TableFormatError(f"{path}: {what} of width {arr.size}, the catalog has "
                                   f"{catalog.service_count} services")
        return arr

    entries = []
    try:
        for i, rec in enumerate(doc["entries"]):
            instances = []
            for inst in rec["instances"]:
                type_id = inst["type_id"]
                if type_id not in by_id:
                    raise TableFormatError(f"{path}: unknown VM type {type_id!r}")
                assignment = per_service(inst["assignment"], "an assignment")
                instances.append(VmInstance(by_id[type_id], assignment))
            cost = float(rec["cost"])
            if not 0.0 <= cost < math.inf:     # written so that NaN fails it
                raise TableFormatError(f"{path}: entry {i} has stored cost {cost}, "
                                       f"not a finite nonnegative number")
            entry = LookupEntry(
                pattern=per_service(rec["pattern"], "a pattern", float),
                solution=PackingSolution(tuple(instances), cost, feasible=True),
            )
            misfits = feasibility_violations(
                entry.solution, demand_from_values(entry.pattern, catalog))
            if misfits:
                raise TableFormatError(f"{path}: entry {i}'s packing does not fit its "
                                       f"pattern: {misfits[0]}")
            entries.append(entry)
        ratio = doc["magnitude_ratio"]
        table = LookupTable(
            entries=tuple(entries),
            threshold=float(doc["threshold"]),
            magnitude_ratio=math.inf if ratio is None else float(ratio),
            fingerprint=doc["fingerprint"],
        )
        if doc["similarity"] != table.similarity:
            raise TableFormatError(f"{path}: similarity {doc['similarity']!r}, but a "
                                   f"{table.service_count}-service catalog matches by "
                                   f"{table.similarity!r}")
    except TableFormatError:
        raise
    except (KeyError, TypeError) as exc:
        raise TableFormatError(f"{path}: malformed table document ({exc})") from None
    except ValueError as exc:
        # What the entries and the table refuse, from a bit of 2 to a NaN pattern.
        raise TableFormatError(f"{path}: {exc}") from None
    if period_seconds is not None:
        check_period_prices(table, period_seconds, path)
    return table
