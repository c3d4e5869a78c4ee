"""Turn request counts into resource-demand vectors.

For one period, service s with count D_s and per-dimension unit costs
N_s[k] needs D_s * N_s[k] resource units in dimension k. The scalar
pattern value for s is the total across dimensions, D_s * sum_k N_s[k];
the vector of those S values is what gets clustered and matched. The full
(S, d) per-dimension matrix is what the packing solvers consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .validation import as_float_matrix, as_float_vector
from .workload import ServiceCatalog, WorkloadTrace


@dataclass(frozen=True)
class DemandVector:
    """Resource demand for one period.

    per_dim[s][k] is the demand of service s in resource dimension k, and
    values[s] = per_dim[s].sum() its scalar demand magnitude (the
    clustering / matching pattern). Every entry and every row sum is
    finite, and every entry is nonnegative.

    DemandVector(per_dim) copies per_dim read-only, derives values from
    it, read-only too, and checks the entries. The count converters build
    their vectors through _checked instead, which skips the checks their
    own steps have already proved.
    """

    per_dim: np.ndarray
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        per_dim = as_float_matrix(self.per_dim, "per_dim")
        values = per_dim.sum(axis=1)
        # A row sum is finite only when every entry of the row is.
        if not np.isfinite(values).all():
            raise ValueError("demand entries must be finite")
        if per_dim.size and per_dim.min() < 0:
            raise ValueError("demand entries must be nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "per_dim", per_dim)
        object.__setattr__(self, "values", values)

    @classmethod
    def _checked(cls, values: np.ndarray, per_dim: np.ndarray) -> DemandVector:
        """Wrap fresh float arrays, made read-only here, without re-checking.

        Only for callers that have proved the invariants: per_dim is a
        (S, d) float array with finite, nonnegative entries and values is
        exactly per_dim.sum(axis=1). Neither array, nor the fresh array it
        may be a row of, may be used elsewhere.
        """
        values.flags.writeable = False
        per_dim.flags.writeable = False
        dv = object.__new__(cls)
        object.__setattr__(dv, "values", values)
        object.__setattr__(dv, "per_dim", per_dim)
        return dv

    @property
    def service_count(self) -> int:
        return self.values.shape[0]

    @property
    def dimension_count(self) -> int:
        return self.per_dim.shape[1]


def _demand_arrays(counts, catalog: ServiceCatalog, ndim: int = 2):
    """(values, per_dim) of an (n, S) count matrix: per_dim[t, s, k] =
    counts[t, s] * unit_costs[s, k] and values[t, s] its sum over k. With
    ndim=1, of one (S,) row of counts, as (S,) values and (S, d) per_dim.

    Beside the shape, accepted counts pass two checks: c.min() >= 0, which
    NaN fails, and finite sums (math.isfinite(values.max())). That is all
    they need. An infinite count makes each of its products infinite or
    NaN, so the sum test refuses it; the catalog's unit costs are not
    negative, so no product is either, and a sum is finite only when all its
    products are. Each accepted row t is therefore bit-equal to the
    validating DemandVector(per_dim[t]). A refusal re-diagnoses in this
    order: a non-finite count ("counts must be finite"), a negative one
    ("counts must be nonnegative"), then a non-finite sum ("demand entries
    must be finite", as DemandVector raises).
    """
    c = np.asarray(counts, dtype=float)
    S = catalog.service_count
    if c.ndim != ndim or c.shape[-1] != S:
        raise ValueError(
            f"counts must be a vector of length {S}, got shape {c.shape[ndim - 1:]}")
    # Every caller passes at least one period.
    if c.min() >= 0:
        per_dim = c[..., None] * catalog.unit_costs
        values = per_dim.sum(axis=-1)
        # The sums are nonnegative or NaN, so they are all finite when their
        # max is; max propagates NaN.
        if math.isfinite(values.max()):
            return values, per_dim
    lo, hi = c.min(), c.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("counts must be finite")
    if lo < 0:
        raise ValueError("counts must be nonnegative")
    raise ValueError("demand entries must be finite")


def _periods(trace: WorkloadTrace) -> np.ndarray:
    if trace.n_periods == 0:
        raise ValueError("trace has no periods")
    return trace.counts


def demand_for_period(counts, catalog: ServiceCatalog) -> DemandVector:
    """Demand vector for one period of request counts: the one-row case of
    _demand_arrays. No summation across services: each service keeps its
    own entry."""
    return DemandVector._checked(*_demand_arrays(counts, catalog, ndim=1))


def demand_series(trace: WorkloadTrace, catalog: ServiceCatalog) -> list[DemandVector]:
    """One DemandVector per trace period, order preserved."""
    return [DemandVector._checked(v, p)
            for v, p in zip(*_demand_arrays(_periods(trace), catalog))]


def demand_patterns(trace: WorkloadTrace, catalog: ServiceCatalog) -> np.ndarray:
    """The (n_periods, S) matrix of pattern values, one row per period;
    row t is demand_for_period(trace.counts[t], catalog).values."""
    return _demand_arrays(_periods(trace), catalog)[0]


def demand_from_values(values, catalog: ServiceCatalog) -> DemandVector:
    """Reconstruct a full DemandVector from a scalar pattern vector.

    Any demand produced from counts has per_dim rows proportional to the
    catalog's unit-cost rows, so a pattern (e.g. a cluster centroid) maps
    back to per-dimension demand by splitting each value in unit-cost
    proportions. Exact inverse of demand_for_period for real-valued counts.
    """
    v = as_float_vector(values, "values")
    if v.shape[0] != catalog.service_count:
        raise ValueError(
            f"values must have length {catalog.service_count}, got {v.shape[0]}"
        )
    weights = catalog.unit_costs / catalog.unit_costs.sum(axis=1, keepdims=True)
    return DemandVector(v[:, None] * weights)
