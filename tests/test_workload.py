"""Trace model, file IO, and synthetic generation."""

import numpy as np
import pytest

from packwise import (
    ServiceCatalog,
    SyntheticSpec,
    TraceParseError,
    WorkloadTrace,
    catalog_fingerprint,
    generate_trace,
    load_catalog,
    load_trace,
    save_catalog,
    save_trace,
)

from conftest import separated_centers


@pytest.fixture
def two_service_catalog():
    return ServiceCatalog(np.array([[2.0], [3.0]]))


class TestCatalog:
    def test_shape_properties(self, five_service_catalog):
        assert five_service_catalog.service_count == 5
        assert five_service_catalog.dimension_count == 3

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            ServiceCatalog(np.array([[1.0], [-0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_cost(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ServiceCatalog(np.array([[1.0, bad], [1.0, 1.0]]))

    def test_rejects_all_zero_service(self):
        with pytest.raises(ValueError):
            ServiceCatalog(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ServiceCatalog(np.zeros((0, 1)))

    def test_file_round_trip(self, tmp_path, five_service_catalog, three_vm_catalog):
        # A row that six significant digits would round: the reloaded
        # catalog must fingerprint alike.
        catalog = ServiceCatalog(np.vstack([five_service_catalog.unit_costs,
                                            [1234567.0, 1 / 3, 0.1]]))
        path = tmp_path / "services.csv"
        save_catalog(catalog, path)
        loaded = load_catalog(path)
        assert np.array_equal(loaded.unit_costs, catalog.unit_costs)
        assert (catalog_fingerprint(loaded, three_vm_catalog)
                == catalog_fingerprint(catalog, three_vm_catalog))

    def test_inconsistent_widths_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n1\n")
        with pytest.raises(TraceParseError):
            load_catalog(path)


class TestLoadTrace:
    def test_two_period_echo(self, tmp_path, two_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("# services=2 period_seconds=600\n10,5\n0,3\n")
        trace = load_trace(path, two_service_catalog)
        assert trace.n_periods == 2
        assert list(trace.counts[0]) == [10, 5]
        assert list(trace.counts[1]) == [0, 3]
        assert trace.period_seconds == 600

    def test_missing_header_is_line_1_error(self, tmp_path, five_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("1,2,3,4\n")
        with pytest.raises(TraceParseError, match="line 1"):
            load_trace(path, five_service_catalog)

    def test_zero_period_seconds_names_the_file(self, tmp_path, two_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("# services=2 period_seconds=0\n1,2\n")
        with pytest.raises(TraceParseError) as exc:
            load_trace(path, two_service_catalog)
        assert str(exc.value) == (
            f"{path}: line 1: period_seconds must be a positive integer, got 0")

    def test_wrong_width_names_line(self, tmp_path, five_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("# services=5 period_seconds=600\n1,2,3,4\n")
        with pytest.raises(TraceParseError, match="line 2"):
            load_trace(path, five_service_catalog)

    def test_negative_count_rejected(self, tmp_path, two_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("# services=2 period_seconds=600\n1,-2\n")
        with pytest.raises(TraceParseError, match="line 2"):
            load_trace(path, two_service_catalog)

    def test_non_integer_rejected(self, tmp_path, two_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("# services=2 period_seconds=600\n1,2.5\n")
        with pytest.raises(TraceParseError):
            load_trace(path, two_service_catalog)

    def test_empty_file_rejected(self, tmp_path, two_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(TraceParseError, match="empty"):
            load_trace(path, two_service_catalog)

    def test_header_only_rejected(self, tmp_path, two_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("# services=2 period_seconds=600\n")
        with pytest.raises(TraceParseError):
            load_trace(path, two_service_catalog)

    def test_catalog_width_mismatch(self, tmp_path, five_service_catalog):
        path = tmp_path / "t.csv"
        path.write_text("# services=2 period_seconds=600\n1,2\n")
        with pytest.raises(TraceParseError, match="catalog"):
            load_trace(path, five_service_catalog)

    def test_experiment_scale_file(self, tmp_path, five_service_catalog):
        rng = np.random.default_rng(0)
        trace = WorkloadTrace(rng.integers(0, 200, size=(100, 5)))
        path = tmp_path / "t.csv"
        save_trace(trace, path)
        loaded = load_trace(path, five_service_catalog)
        assert loaded.n_periods == 100
        assert loaded.service_count == 5

    def test_round_trip_is_byte_identical(self, tmp_path, two_service_catalog):
        path = tmp_path / "t.csv"
        original = "# services=2 period_seconds=600\n10,5\n0,3\n"
        path.write_text(original)
        out = tmp_path / "copy.csv"
        save_trace(load_trace(path, two_service_catalog), out)
        assert out.read_text() == original


class TestGenerateTrace:
    def test_zero_noise_repeats_center(self):
        catalog = ServiceCatalog(np.ones((2, 1)))
        spec = SyntheticSpec(mode_centers=[[7.0, 7.0]], noise_sigma=0.0,
                             periods=3, seed=1)
        trace = generate_trace(spec, catalog)
        assert np.array_equal(trace.counts, np.full((3, 2), 7))

    def test_deterministic_given_seed(self, five_service_catalog):
        spec = SyntheticSpec(mode_centers=np.full((3, 5), 50.0), noise_sigma=4.0,
                             periods=40, seed=9)
        a = generate_trace(spec, five_service_catalog)
        b = generate_trace(spec, five_service_catalog)
        assert np.array_equal(a.counts, b.counts)

    def test_counts_nonnegative_even_with_heavy_noise(self):
        catalog = ServiceCatalog(np.ones((3, 1)))
        spec = SyntheticSpec(mode_centers=np.full((1, 3), 2.0), noise_sigma=30.0,
                             periods=200, seed=5)
        trace = generate_trace(spec, catalog)
        assert trace.counts.min() >= 0

    def test_nearest_center_recovers_mode(self, five_service_catalog):
        # Low noise relative to separation: each period should sit closest
        # to the center that generated it at least 95% of the time. The
        # ground-truth mode sequence comes from a zero-noise run with the
        # same seed (the mode draw happens before any noise is drawn).
        rng = np.random.default_rng(3)
        centers = separated_centers(rng)
        noiseless = generate_trace(
            SyntheticSpec(mode_centers=centers, noise_sigma=0.0, periods=100, seed=17),
            five_service_catalog)
        truth = np.linalg.norm(
            noiseless.counts[:, None, :] - centers[None, :, :], axis=2).argmin(axis=1)
        spec = SyntheticSpec(mode_centers=centers, noise_sigma=0.05 * centers.mean(),
                             periods=100, seed=17)
        trace = generate_trace(spec, five_service_catalog)
        nearest = np.linalg.norm(
            trace.counts[:, None, :] - centers[None, :, :], axis=2).argmin(axis=1)
        assert (nearest == truth).mean() >= 0.95

    def test_center_catalog_width_mismatch(self, five_service_catalog):
        spec = SyntheticSpec(mode_centers=np.ones((2, 3)), noise_sigma=0.0,
                             periods=2, seed=0)
        with pytest.raises(ValueError):
            generate_trace(spec, five_service_catalog)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(mode_centers=np.ones((1, 2)), noise_sigma=-1.0,
                          periods=5, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(mode_centers=np.ones((1, 2)), noise_sigma=0.0,
                          periods=0, seed=0)


class TestWorkloadTrace:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            WorkloadTrace(np.array([[1, -1]]))

    def test_rejects_float_counts(self):
        with pytest.raises(ValueError):
            WorkloadTrace(np.array([[1.5, 2.0]]))

    def test_counts_are_immutable(self):
        trace = WorkloadTrace(np.array([[1, 2]]))
        with pytest.raises(ValueError):
            trace.counts[0, 0] = 9
