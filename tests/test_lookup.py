"""Similarity scoring, table matching, persistence."""

import dataclasses
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packwise import (
    FingerprintMismatchError,
    LookupEntry,
    LookupTable,
    PackingSolution,
    ServiceCatalog,
    TableFormatError,
    VmInstance,
    VmType,
    best_fit_pack,
    catalog_fingerprint,
    demand_for_period,
    load_table,
    match,
    pearson,
    save_table,
)
from packwise.lookup import entry_scores

from conftest import set_in


@pytest.fixture
def vm_catalog():
    return [VmType("VM1", np.array([1.0, 1.0, 2.0]), 1.0),
            VmType("VM2", np.array([1.0, 2.0, 1.0]), 1.2),
            VmType("VM3", np.array([2.0, 1.0, 2.0]), 1.5)]


def entry(pattern, vm, bits, cost=0.5):
    sol = PackingSolution((VmInstance(vm, np.array(bits)),), cost, True)
    return LookupEntry(pattern=np.array(pattern, dtype=float), solution=sol)


def table_with(patterns, vm, **kwargs):
    entries = [entry(p, vm, [1] * len(p)) for p in patterns]
    return LookupTable(entries=tuple(entries), **kwargs)


def incoming(values):
    values = np.asarray(values, dtype=float)
    catalog = ServiceCatalog(np.ones((len(values), 1)))
    return demand_for_period(values.astype(int), catalog)


class TestPearson:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=rng.integers(2, 30))
            if np.std(x) == 0:
                continue
            assert pearson(x, x) == 1.0

    def test_perfect_anticorrelation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=10)
            assert pearson(x, -x + 3.0) == pytest.approx(-1.0, abs=1e-12)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = rng.normal(size=(2, 8))
            alpha = float(rng.uniform(0.1, 5))
            beta = float(rng.normal())
            assert pearson(a, alpha * b + beta) == pytest.approx(pearson(a, b), abs=1e-12)
            assert pearson(a, -alpha * b) == pytest.approx(-pearson(a, b), abs=1e-12)

    def test_double_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.normal(size=(2, 6))
            assert abs(pearson(a, 2 * b) - pearson(a, b)) <= 1e-12

    def test_degenerate_sentinels(self):
        assert pearson([3.0, 3.0, 3.0], [7.0, 7.0, 7.0]) == 1.0
        assert pearson([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0

    def test_length_contracts(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_low_correlation_misses(self, vm_catalog):
        # A best score like 0.56 sits under the 0.7 threshold: miss.
        table = table_with([[10.0, 20.0, 30.0, 40.0, 50.0]], vm_catalog[0])
        probe = incoming([30, 10, 45, 20, 50])
        score = pearson(probe.values, table.entries[0].pattern)
        assert score < 0.7
        result = match(table, probe)
        assert not result.hit and result.chosen is None


class TestMatch:
    def test_exact_pattern_hits_with_score_one(self, vm_catalog):
        table = table_with([[25, 60, 12, 32, 48], [10, 12, 17, 16, 13]], vm_catalog[0])
        result = match(table, incoming([25, 60, 12, 32, 48]))
        assert result.hit
        assert result.best_index == 0
        assert result.score == 1.0
        assert result.chosen is table.entries[0].solution

    def test_high_correlation_hits(self, vm_catalog):
        pattern = np.array([20.0, 40.0, 60.0, 80.0, 100.0])
        probe = np.array([22, 38, 63, 81, 97])
        table = table_with([pattern], vm_catalog[0])
        result = match(table, incoming(probe))
        assert result.score > 0.9
        assert result.hit

    def test_tie_takes_lowest_index(self, vm_catalog):
        p = [10.0, 20.0, 30.0, 40.0, 50.0]
        table = table_with([p, p, p], vm_catalog[0])
        result = match(table, incoming(p))
        assert result.best_index == 0
        # Duplicated rows tie for any probe and width, not only on the
        # exact-match sentinel.
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = rng.integers(20, 200, size=12)
            table = table_with([q] * 15, vm_catalog[0])
            probe = incoming(q + rng.integers(0, 5, size=12))
            assert len(set(entry_scores(table, probe.values))) == 1
            assert match(table, probe).best_index == 0

    def test_duplicate_entries_never_flip_hit(self, vm_catalog):
        base = table_with([[10, 20, 30, 40, 50], [50, 40, 30, 20, 10]], vm_catalog[0])
        doubled = replace(base, entries=base.entries + base.entries)
        for probe in ([12, 19, 33, 38, 52], [9, 55, 2, 61, 7]):
            a = match(base, incoming(probe))
            b = match(doubled, incoming(probe))
            assert a.hit == b.hit and a.score == b.score

    def test_raising_threshold_never_creates_hits(self, vm_catalog):
        rng = np.random.default_rng(5)
        patterns = rng.uniform(10, 100, size=(4, 5))
        for _ in range(40):
            probe = rng.integers(10, 100, size=5)
            hits = []
            for thr in (0.3, 0.6, 0.9):
                table = table_with(patterns, vm_catalog[0], threshold=thr)
                hits.append(match(table, incoming(probe)).hit)
            # once a miss, always a miss at higher thresholds
            for lo, hi in zip(hits, hits[1:]):
                assert hi <= lo

    def test_length_mismatch_is_fingerprint_error(self, vm_catalog):
        table = table_with([[1.0, 2.0, 3.0]], vm_catalog[0])
        with pytest.raises(FingerprintMismatchError):
            match(table, incoming([1, 2, 3, 4, 5]))

    def test_euclidean_mode(self, vm_catalog):
        # One-service patterns match by distance.
        table = table_with([[10.0], [100.0]], vm_catalog[0], threshold=5.0)
        hit = match(table, incoming([12]))
        assert hit.hit and hit.best_index == 0 and hit.score == 2.0
        miss = match(table, incoming([50]))
        assert not miss.hit and miss.score == 40.0

    def test_magnitude_guard_blocks_scaled_twin(self, vm_catalog):
        # Doubling a pattern keeps correlation 1.0; the guard turns the
        # would-be hit into a miss unless disabled.
        pattern = [10.0, 20.0, 30.0, 40.0, 50.0]
        guarded = table_with([pattern], vm_catalog[0], magnitude_ratio=1.5)
        unguarded = table_with([pattern], vm_catalog[0], magnitude_ratio=math.inf)
        doubled = incoming([20, 40, 60, 80, 100])
        blocked = match(guarded, doubled)
        assert blocked.score == pytest.approx(1.0) and not blocked.hit
        assert match(unguarded, doubled).hit

    def test_magnitude_guard_allows_close_norms(self, vm_catalog):
        pattern = [10.0, 20.0, 30.0, 40.0, 50.0]
        table = table_with([pattern], vm_catalog[0], magnitude_ratio=1.5)
        assert match(table, incoming([13, 26, 39, 52, 65])).hit  # ratio 1.3


class TestPrecomputedArrays:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 300), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_magnitudes_bit_equal_to_per_entry_sums(self, S, E, seed):
        rng = np.random.default_rng(seed)
        vm = VmType("VM", np.ones(1), 1.0)
        patterns = rng.uniform(0.0, 1e4, size=(E, S)) * rng.choice([1e-6, 1.0, 1e6], size=(E, 1))
        table = table_with(patterns, vm)
        grown = replace(table, entries=table.entries + tuple(
            entry(p, vm, [1] * S) for p in rng.uniform(0.0, 50.0, size=(E, S))))
        for t in (table, grown):
            assert [float(m) for m in t.magnitudes] == [
                float(np.abs(e.pattern).sum()) for e in t.entries]
            assert t.flat.tolist() == (t.centred_norms == 0).tolist()

    def test_arrays_are_read_only(self, vm_catalog):
        table = table_with([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]], vm_catalog[0])
        assert table.flat.tolist() == [False, True]
        assert table.magnitudes.tolist() == [6.0, 15.0]
        for arr in (table.flat, table.magnitudes):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestTableValidation:
    def test_needs_entries(self):
        with pytest.raises(ValueError):
            LookupTable(entries=())

    def test_threshold_ranges(self, vm_catalog):
        with pytest.raises(ValueError):
            table_with([[1.0, 2.0]], vm_catalog[0], threshold=-1.0)
        with pytest.raises(ValueError):
            table_with([[1.0]], vm_catalog[0], threshold=0.0)

    def test_nan_settings_rejected(self, vm_catalog):
        for pattern, kwargs in (([1.0, 2.0], {"threshold": math.nan}),
                                ([1.0], {"threshold": math.nan}),
                                ([1.0, 2.0], {"magnitude_ratio": math.nan})):
            with pytest.raises(ValueError):
                table_with([pattern], vm_catalog[0], **kwargs)
        # An infinite ratio still disables the guard.
        table = table_with([[1.0, 2.0]], vm_catalog[0], magnitude_ratio=math.inf)
        assert match(table, incoming([100, 200])).hit

    def test_non_finite_patterns_rejected(self, vm_catalog):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                entry([1.0, value], vm_catalog[0], [1, 1])

    def test_infeasible_solution_rejected(self, vm_catalog):
        bad = PackingSolution((VmInstance(vm_catalog[0], np.array([1, 1])),), 1.0, False)
        with pytest.raises(ValueError):
            LookupEntry(pattern=np.array([1.0, 2.0]), solution=bad)

    def test_inconsistent_pattern_lengths_rejected(self, vm_catalog):
        entries = (entry([1.0, 2.0], vm_catalog[0], [1, 1]),
                   entry([1.0, 2.0, 3.0], vm_catalog[0], [1, 1, 1]))
        with pytest.raises(ValueError):
            LookupTable(entries=entries)

    def test_single_service_needs_euclidean(self, vm_catalog):
        # Correlation is undefined for one value, so the width picks distance,
        # with a quarter of the mean distance between patterns by default.
        table = table_with([[4.0], [9.0]], vm_catalog[0])
        assert table.similarity == "euclidean" and table.threshold == 1.25
        assert match(table, incoming([8])).best_index == 1
        assert table_with([[4.0]], vm_catalog[0], threshold=1.0).threshold == 1.0
        with pytest.raises(ValueError, match="one-entry distance table needs a threshold"):
            table_with([[4.0]], vm_catalog[0])

    def test_width_picks_the_metric(self, vm_catalog):
        assert [f.name for f in dataclasses.fields(LookupTable)] == [
            "entries", "threshold", "magnitude_ratio", "fingerprint"]
        table = table_with([[4.0, 1.0], [9.0, 2.0]], vm_catalog[0])
        assert table.similarity == "pearson" and table.threshold == 0.7
        with pytest.raises(TypeError):
            table_with([[4.0], [9.0]], vm_catalog[0], similarity="euclidean")


class TestPersistence:
    @pytest.fixture
    def vm_catalog(self):
        """The module's types at 100x capacity, so that build_table's
        packings fit their patterns, as load_table requires."""
        return [VmType("VM1", np.array([100.0, 100.0, 200.0]), 1.0),
                VmType("VM2", np.array([100.0, 200.0, 100.0]), 1.2),
                VmType("VM3", np.array([200.0, 100.0, 200.0]), 1.5)]

    def build_table(self, catalog, vm_catalog):
        e1 = LookupEntry(
            pattern=np.array([25.0, 60.0, 12.0, 32.0, 48.0]),
            solution=PackingSolution(
                (VmInstance(vm_catalog[0], np.array([0, 1, 1, 0, 0])),
                 VmInstance(vm_catalog[1], np.array([1, 0, 0, 1, 1]))),
                0.5, True))
        e2 = LookupEntry(
            pattern=np.array([10.0, 12.0, 17.0, 16.0, 13.0]),
            solution=PackingSolution(
                (VmInstance(vm_catalog[0], np.array([1, 1, 1, 1, 1])),
                 VmInstance(vm_catalog[1], np.array([0, 0, 1, 1, 0]))),
                1.0 / 3, True))
        return LookupTable(
            entries=(e1, e2),
            fingerprint=catalog_fingerprint(catalog, vm_catalog),
        )

    def test_round_trip_identity(self, tmp_path, five_service_catalog, vm_catalog):
        table = self.build_table(five_service_catalog, vm_catalog)
        path = tmp_path / "table.json"
        save_table(table, path)
        loaded = load_table(path, five_service_catalog, vm_catalog)
        assert loaded == table
        assert loaded.entries[0].pattern.tolist() == [25.0, 60.0, 12.0, 32.0, 48.0]

    def test_assignment_bits_round_trip_exactly(self, tmp_path, five_service_catalog, vm_catalog):
        table = self.build_table(five_service_catalog, vm_catalog)
        path = tmp_path / "table.json"
        save_table(table, path)
        loaded = load_table(path, five_service_catalog, vm_catalog)
        inst = loaded.entries[1].solution.instances
        assert inst[0].assignment.tolist() == [1, 1, 1, 1, 1]
        assert inst[1].assignment.tolist() == [0, 0, 1, 1, 0]

    def test_truncated_file_rejected(self, tmp_path, five_service_catalog, vm_catalog):
        table = self.build_table(five_service_catalog, vm_catalog)
        path = tmp_path / "table.json"
        save_table(table, path)
        path.write_text(path.read_text()[:60])
        with pytest.raises(TableFormatError):
            load_table(path, five_service_catalog, vm_catalog)

    def test_wrong_version_rejected(self, tmp_path, five_service_catalog, vm_catalog):
        table = self.build_table(five_service_catalog, vm_catalog)
        path = tmp_path / "table.json"
        save_table(table, path)
        doc = json.loads(path.read_text())
        doc["version"] = "packwise-table-v0"
        path.write_text(json.dumps(doc))
        with pytest.raises(TableFormatError, match="expected version"):
            load_table(path, five_service_catalog, vm_catalog)

    def test_non_finite_pattern_in_file_rejected(self, tmp_path, five_service_catalog,
                                                 vm_catalog):
        # json reads the NaN and Infinity that json.dumps writes for them.
        path = tmp_path / "table.json"
        save_table(self.build_table(five_service_catalog, vm_catalog), path)
        doc = json.loads(path.read_text())
        for value in (math.nan, math.inf):
            doc["entries"][1]["pattern"][2] = value
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="finite"):
                load_table(path, five_service_catalog, vm_catalog)

    @pytest.mark.parametrize("text", ["[1, 2]", '"str"', "3", "null"])
    def test_non_object_document_rejected(self, tmp_path, five_service_catalog, vm_catalog,
                                          text):
        path = tmp_path / "table.json"
        path.write_text(text)
        with pytest.raises(TableFormatError, match="JSON object"):
            load_table(path, five_service_catalog, vm_catalog)

    def test_fingerprint_mismatch_rejected(self, tmp_path, five_service_catalog, vm_catalog):
        table = self.build_table(five_service_catalog, vm_catalog)
        path = tmp_path / "table.json"
        save_table(table, path)
        other = ServiceCatalog(np.ones((5, 3)))
        with pytest.raises(FingerprintMismatchError):
            load_table(path, other, vm_catalog)

    def test_unknown_type_id_rejected(self, tmp_path, five_service_catalog, vm_catalog):
        table = self.build_table(five_service_catalog, vm_catalog)
        path = tmp_path / "table.json"
        save_table(table, path)
        # same fingerprint inputs but a renamed id cannot resolve
        doc = json.loads(path.read_text())
        doc["entries"][0]["instances"][0]["type_id"] = "VM9"
        path.write_text(json.dumps(doc))
        with pytest.raises(TableFormatError, match="VM9"):
            load_table(path, five_service_catalog, vm_catalog)

    def test_repeated_type_id_rejected(self, tmp_path):
        # Resolved by id alone, the big "a" this entry rents would load as
        # the small one, which holds 10 of its 50 units.
        vms = [VmType("a", np.array([100.0]), 5.0), VmType("a", np.array([10.0]), 1.0)]
        catalog = ServiceCatalog(np.ones((2, 1)))
        solution = best_fit_pack(demand_for_period(np.array([30, 20]), catalog), vms)
        assert solution.feasible and solution.instances[0].vm_type is vms[0]
        table = LookupTable(entries=(LookupEntry(np.array([30.0, 20.0]), solution),),
                            fingerprint=catalog_fingerprint(catalog, vms))
        path = tmp_path / "table.json"
        save_table(table, path)
        with pytest.raises(ValueError, match="repeats a type id"):
            load_table(path, catalog, vms)

    def test_infinite_ratio_round_trips_as_null(self, tmp_path, five_service_catalog, vm_catalog):
        table = LookupTable(
            entries=self.build_table(five_service_catalog, vm_catalog).entries,
            magnitude_ratio=math.inf,
            fingerprint=catalog_fingerprint(five_service_catalog, vm_catalog))
        path = tmp_path / "table.json"
        save_table(table, path)
        assert json.loads(path.read_text())["magnitude_ratio"] is None
        loaded = load_table(path, five_service_catalog, vm_catalog)
        assert math.isinf(loaded.magnitude_ratio)

    def test_save_is_deterministic(self, tmp_path, five_service_catalog, vm_catalog):
        table = self.build_table(five_service_catalog, vm_catalog)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_table(table, a)
        save_table(table, b)
        assert a.read_bytes() == b.read_bytes()

    def test_cost_cross_check(self, tmp_path, five_service_catalog, vm_catalog):
        table = self.build_table(five_service_catalog, vm_catalog)
        path = tmp_path / "table.json"
        save_table(table, path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["cost"] = 123.0
        path.write_text(json.dumps(doc))
        with pytest.raises(TableFormatError, match="stored cost 123.0 disagrees"):
            load_table(path, five_service_catalog, vm_catalog, period_seconds=600)

    def saved_doc(self, path, catalog, vm_catalog):
        save_table(self.build_table(catalog, vm_catalog), path)
        return json.loads(path.read_text())

    # Each edit: the keys to the edited value, its new value, and what the
    # refusal says.
    REFUSED_EDITS = {
        # Service 4 unhosted, at the same instances and the same cost.
        "misfit": (("entries", 0, "instances", 1, "assignment"), [1, 0, 0, 1, 0],
                   "entry 0's packing does not fit its pattern: service 4 has positive "
                   "demand but no host"),
        "nan-cost": (("entries", 1, "cost"), math.nan,
                     "entry 1 has stored cost nan, not a finite nonnegative number"),
        "inf-cost": (("entries", 1, "cost"), math.inf, "stored cost inf, not a finite"),
        "negative-cost": (("entries", 1, "cost"), -0.5, "stored cost -0.5, not a finite"),
        "nan-pattern": (("entries", 1, "pattern", 2), math.nan, "finite"),
        "bit-of-2": (("entries", 1, "instances", 0, "assignment", 0), 2, "0 or 1"),
        "threshold-5": (("threshold",), 5.0, "correlation threshold"),
        "threshold-abc": (("threshold",), "abc", "abc"),
        "euclidean": (("similarity",), "euclidean",
                      "'euclidean', but a 5-service catalog matches by 'pearson'"),
        "unknown-type": (("entries", 0, "instances", 0, "type_id"), "VM9",
                         "unknown VM type 'VM9'"),
    }

    @pytest.mark.parametrize("name", REFUSED_EDITS)
    def test_refusals_name_the_file_once(self, tmp_path, five_service_catalog, vm_catalog,
                                         name):
        keys, value, message = self.REFUSED_EDITS[name]
        path = tmp_path / "table.json"
        doc = self.saved_doc(path, five_service_catalog, vm_catalog)
        path.write_text(json.dumps(set_in(doc, keys, value)))
        with pytest.raises(TableFormatError, match=message) as exc:
            load_table(path, five_service_catalog, vm_catalog)
        assert str(exc.value).startswith(f"{path}: ")
        assert str(exc.value).count(str(path)) == 1
