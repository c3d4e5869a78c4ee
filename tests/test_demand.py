"""Demand-vector construction from request counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packwise import (
    DemandVector,
    ServiceCatalog,
    WorkloadTrace,
    demand_for_period,
    demand_from_values,
    demand_patterns,
    demand_series,
)


def demand_oracle(counts, unit_costs):
    """Independent product-and-sum reference, plain Python loops."""
    S = len(counts)
    d = len(unit_costs[0])
    per_dim = [[counts[s] * unit_costs[s][k] for k in range(d)] for s in range(S)]
    values = [sum(per_dim[s]) for s in range(S)]
    return values, per_dim


class TestDemandForPeriod:
    def test_zero_counts_zero_demand(self, five_service_catalog):
        dv = demand_for_period([0, 0, 0, 0, 0], five_service_catalog)
        assert np.array_equal(dv.values, np.zeros(5))
        assert np.array_equal(dv.per_dim, np.zeros((5, 3)))

    def test_hand_computed_single_dimension(self):
        catalog = ServiceCatalog(np.array([[2.0], [3.0]]))
        dv = demand_for_period([10, 5], catalog)
        assert list(dv.values) == [20.0, 15.0]
        assert dv.per_dim.tolist() == [[20.0], [15.0]]

    def test_counts_make_valid_lookup_key(self):
        # With unit costs of one, the pattern equals the raw counts row;
        # this shape is exactly what table keys look like.
        catalog = ServiceCatalog(np.ones((5, 1)))
        dv = demand_for_period([25, 60, 12, 32, 48], catalog)
        assert list(dv.values) == [25.0, 60.0, 12.0, 32.0, 48.0]

    def test_length_mismatch_rejected(self, five_service_catalog):
        with pytest.raises(ValueError):
            demand_for_period([1, 2, 3], five_service_catalog)

    def test_negative_counts_rejected(self, five_service_catalog):
        with pytest.raises(ValueError):
            demand_for_period([1, -2, 3, 4, 5], five_service_catalog)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_counts_rejected(self, five_service_catalog, bad):
        with pytest.raises(ValueError, match="counts must be finite"):
            demand_for_period([1, bad, 3, 4, 5], five_service_catalog)

    def test_overflowing_demand_rejected(self, five_service_catalog):
        # Finite counts whose products overflow give infinite demand.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            demand_for_period([1, 1e308, 3, 4, 5], five_service_catalog)

    def test_matches_loop_oracle(self, five_service_catalog):
        rng = np.random.default_rng(12)
        for _ in range(50):
            counts = rng.integers(0, 500, size=5)
            values, per_dim = demand_oracle(
                counts.tolist(), five_service_catalog.unit_costs.tolist())
            dv = demand_for_period(counts, five_service_catalog)
            assert dv.values.tolist() == values
            assert dv.per_dim.tolist() == per_dim

    def test_linearity_in_counts(self, five_service_catalog):
        rng = np.random.default_rng(4)
        for _ in range(20):
            counts = rng.integers(0, 100, size=5)
            a = int(rng.integers(1, 9))
            dv1 = demand_for_period(counts, five_service_catalog)
            dv2 = demand_for_period(a * counts, five_service_catalog)
            assert np.allclose(dv2.values, a * dv1.values, rtol=1e-12)
            assert np.allclose(dv2.per_dim, a * dv1.per_dim, rtol=1e-12)

    def test_monotone_in_counts(self, five_service_catalog):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = rng.integers(0, 100, size=5)
            bumped = counts.copy()
            s = int(rng.integers(0, 5))
            bumped[s] += int(rng.integers(1, 50))
            lo = demand_for_period(counts, five_service_catalog)
            hi = demand_for_period(bumped, five_service_catalog)
            assert np.all(hi.values >= lo.values)
            assert np.all(hi.per_dim >= lo.per_dim)


class TestDemandVectorInvariants:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            DemandVector(per_dim=np.array([[-2.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        # A single-dimension row: the entry is its own row sum.
        with pytest.raises(ValueError, match="must be finite"):
            DemandVector(per_dim=np.array([[1.0], [bad]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_per_dim_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            DemandVector(per_dim=np.array([[1.0, 0.0], [1.0, bad]]))

    def test_overflowing_row_sum_rejected(self):
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="demand entries must be finite"):
            DemandVector(per_dim=[[1e308, 1e308]])

    def test_values_derived_from_per_dim(self):
        rng = np.random.default_rng(3)
        per_dim = rng.uniform(0.0, 1e3, size=(7, 5))
        dv = DemandVector(per_dim)
        assert dv.values.tobytes() == per_dim.sum(axis=1).tobytes()
        assert not dv.values.flags.writeable and not dv.per_dim.flags.writeable
        assert not np.shares_memory(dv.per_dim, per_dim)

    def test_values_not_accepted(self):
        per_dim = np.array([[1.0, 2.0]])
        with pytest.raises(TypeError):
            DemandVector(values=per_dim.sum(axis=1), per_dim=per_dim)

    def test_arrays_are_immutable(self, five_service_catalog):
        dv = demand_for_period([1, 2, 3, 4, 5], five_service_catalog)
        with pytest.raises(ValueError):
            dv.values[0] = 99.0


@st.composite
def counts_and_catalogs(draw):
    """Counts (integers, fractions, zeros, -0.0) and nonnegative unit costs
    with zero entries, for catalogs of up to 8 services and 4 dimensions."""
    S, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    amount = st.one_of(st.integers(0, 1000).map(float), st.just(-0.0),
                       st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
    counts = draw(st.lists(amount, min_size=S, max_size=S))
    unit = st.one_of(st.just(0.0), st.integers(1, 4).map(float), st.floats(0.01, 10.0))
    costs = np.array(draw(st.lists(unit, min_size=S * d, max_size=S * d))).reshape(S, d)
    costs[:, 0] += costs.sum(axis=1) == 0      # every service costs something
    return counts, ServiceCatalog(costs)


class TestCheckedConstruction:
    """demand_for_period skips only the DemandVector checks its own steps
    prove; the vector is the validating constructor's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(counts_and_catalogs())
    def test_bit_equal_to_validating_constructor(self, case):
        counts, catalog = case
        products = np.asarray(counts, dtype=float)[:, None] * catalog.unit_costs
        want = DemandVector(products)
        got = demand_for_period(counts, catalog)
        for a, b in ((got.values, want.values), (got.per_dim, want.per_dim)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
            assert not np.shares_memory(a, catalog.unit_costs)
        assert not np.shares_memory(got.values, got.per_dim)

    @pytest.mark.parametrize("unit_costs, counts, message", [
        (None, [1, np.inf, 3, 4, 5], "counts must be finite"),
        (None, [1, 2, np.nan, 4, 5], "counts must be finite"),
        (None, [1, -2, 3, 4, 5], "counts must be nonnegative"),
        (None, [1, 2, 3], "counts must be a vector of length 5, got shape (3,)"),
        (None, [[1, 2, 3, 4, 5]], "counts must be a vector of length 5, got shape (1, 5)"),
        (None, [1, 1e308, 3, 4, 5], "demand entries must be finite"),
        ([[1e200, 1e200], [1.0, 1.0]], [1e200, 1], "demand entries must be finite"),
        ([[np.inf, 1.0], [1.0, 1.0]], [0, 1], "demand entries must be finite"),
        ([[np.inf, 1.0], [1.0, 1.0]], [2, 1], "demand entries must be finite"),
        ([[np.nan, 1.0], [1.0, 1.0]], [2, 1], "demand entries must be finite"),
        # A non-finite count is refused before a negative one.
        (None, [-1, np.inf, 3, 4, 5], "counts must be finite"),
        (None, [-np.inf, 2, 3, 4, 5], "counts must be finite"),
        (None, [np.nan, -1, 3, 4, 5], "counts must be finite"),
    ])
    def test_rejections_keep_their_messages(self, five_service_catalog, unit_costs,
                                            counts, message):
        catalog = five_service_catalog
        if unit_costs is not None:
            # ServiceCatalog refuses non-finite costs; set these past that check
            # to pin demand_for_period's own guard, which overflow still needs.
            catalog = ServiceCatalog(np.ones((2, 2)))
            object.__setattr__(catalog, "unit_costs", np.array(unit_costs))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError) as exc:
            demand_for_period(counts, catalog)
        assert str(exc.value) == message
        # The (n, S) path that build_offline takes, the row second of two
        # periods; WorkloadTrace refuses such counts, so they are set past it.
        row = np.asarray(counts, dtype=float)
        trace = WorkloadTrace(np.zeros((2, 1), dtype=np.int64))
        object.__setattr__(trace, "counts", np.stack([np.ones_like(row), row]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError) as exc:
            demand_patterns(trace, catalog)
        assert str(exc.value) == message

    def test_negative_zero_count_accepted(self, five_service_catalog):
        counts = [1.0, -0.0, 3.0, 4.0, 5.0]
        got = demand_for_period(counts, five_service_catalog)
        want = DemandVector(np.array(counts)[:, None] * five_service_catalog.unit_costs)
        assert np.signbit(got.per_dim[1]).all()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.per_dim.tobytes() == want.per_dim.tobytes()


class TestDemandSeries:
    def test_one_vector_per_period(self, five_service_catalog):
        rng = np.random.default_rng(1)
        trace = WorkloadTrace(rng.integers(0, 200, size=(100, 5)))
        series = demand_series(trace, five_service_catalog)
        assert len(series) == 100
        assert all(dv.service_count == 5 for dv in series)

    def test_empty_trace_rejected(self, five_service_catalog):
        trace = WorkloadTrace(np.zeros((0, 5), dtype=np.int64))
        with pytest.raises(ValueError):
            demand_series(trace, five_service_catalog)

    def test_constant_trace_constant_series(self, five_service_catalog):
        trace = WorkloadTrace(np.tile([3, 1, 4, 1, 5], (10, 1)))
        series = demand_series(trace, five_service_catalog)
        for dv in series[1:]:
            assert np.array_equal(dv.values, series[0].values)


class TestDemandPatterns:
    @pytest.mark.parametrize("S,d", [(1, 1), (3, 8), (5, 3), (7, 12), (20, 3)])
    def test_bytewise_equal_to_per_period_loop(self, S, d):
        rng = np.random.default_rng(100 * S + d)
        costs = rng.integers(0, 5, size=(S, d)) + rng.integers(0, 100, size=(S, d)) / 100
        costs[:, 0] += 0.25
        catalog = ServiceCatalog(costs)
        trace = WorkloadTrace(rng.integers(0, 5000, size=(300, S)))
        loop = np.vstack([demand_for_period(row, catalog).values for row in trace.counts])
        patterns = demand_patterns(trace, catalog)
        assert patterns.shape == (300, S)
        assert patterns.tobytes() == loop.tobytes()

    def test_service_count_mismatch_rejected_like_one_period(self, five_service_catalog):
        trace = WorkloadTrace(np.ones((4, 3), dtype=np.int64))
        with pytest.raises(ValueError) as per_period:
            demand_for_period(trace.counts[0], five_service_catalog)
        with pytest.raises(ValueError) as batch:
            demand_patterns(trace, five_service_catalog)
        assert str(batch.value) == str(per_period.value)

    def test_overflowing_products_rejected(self):
        catalog = ServiceCatalog(np.array([[1e300, 1.0], [1.0, 1.0]]))
        trace = WorkloadTrace(np.array([[10**10, 1]]))
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="demand entries must be finite"):
            demand_patterns(trace, catalog)

    def test_empty_trace_rejected(self, five_service_catalog):
        with pytest.raises(ValueError):
            demand_patterns(WorkloadTrace(np.zeros((0, 5), dtype=np.int64)),
                            five_service_catalog)


class TestDemandFromValues:
    def test_inverts_demand_for_period(self, five_service_catalog):
        rng = np.random.default_rng(8)
        for _ in range(20):
            counts = rng.integers(0, 300, size=5)
            dv = demand_for_period(counts, five_service_catalog)
            back = demand_from_values(dv.values, five_service_catalog)
            assert np.allclose(back.per_dim, dv.per_dim, rtol=1e-9)

    def test_length_checked(self, five_service_catalog):
        with pytest.raises(ValueError):
            demand_from_values([1.0, 2.0], five_service_catalog)
