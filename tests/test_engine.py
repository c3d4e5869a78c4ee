"""Offline build, online replay, method comparison, estimator front door."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from packwise import (
    DegenerateModelError,
    FingerprintMismatchError,
    GaParams,
    MissPolicy,
    PackingAutoscaler,
    PackingSolution,
    ServiceCatalog,
    SyntheticSpec,
    TableFormatError,
    WorkloadTrace,
    build_offline,
    demand_for_period,
    demand_from_values,
    evaluate_methods,
    generate_trace,
    match,
    pearson,
    run_online,
    verify_solution,
)

from conftest import planted_trace

GA = GaParams(seed=2)


@pytest.fixture(scope="module")
def catalog():
    return ServiceCatalog(np.array([
        [1.0, 1.0, 2.0],
        [1.0, 2.0, 1.0],
        [2.0, 1.0, 2.0],
        [1.0, 1.0, 1.0],
        [2.0, 2.0, 1.0],
    ]))


@pytest.fixture(scope="module")
def vms():
    from packwise import VmType
    return [
        VmType("small", np.array([200.0, 200.0, 300.0]), 1.0),
        VmType("medium", np.array([300.0, 400.0, 300.0]), 1.6),
        VmType("large", np.array([600.0, 600.0, 700.0]), 2.9),
    ]


@pytest.fixture(scope="module")
def built(catalog, vms):
    """One shared 10-mode build: (trace, centers, sigma, table, report)."""
    trace, centers, sigma = planted_trace(catalog, 21)
    table, report = build_offline(trace, catalog, vms, k_range=(2, 15),
                                  ga_params=GA, seed=2)
    return trace, centers, sigma, table, report


class TestBuildOffline:
    def test_planted_modes_fill_table(self, built):
        _, _, _, table, report = built
        assert report.best_k == 10
        assert len(table.entries) == 10
        assert len(report.centroid_rows) == 10
        assert [r[0] for r in report.index_rows] == list(range(2, 16))

    def test_long_trace_builds_in_bounded_memory(self, catalog, vms):
        # A 6000-period trace: the condensed matrix of a hierarchical
        # clustering alone would be 144 MB, and one all-pairs Dunn block at
        # k = 2 up to 72 MB.
        trace, _, _ = planted_trace(catalog, 61, periods=6000)
        tracemalloc.start()
        try:
            table, _ = build_offline(trace, catalog, vms, k_range=(2, 4),
                                     ga_params=GaParams(population=20, generations=20,
                                                        seed=2), seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.entries) in (2, 3, 4)
        assert peak < 20 * 2**20

    def test_report_gap_to_cost_lower_bound(self, built, tmp_path):
        _, _, _, _, report = built
        assert len(report.lower_bounds) == len(report.centroid_rows)
        for row, bound in zip(report.centroid_rows, report.lower_bounds):
            assert 0 < bound <= row[2]
        report.to_csv(tmp_path / "offline_report.csv")
        lines = (tmp_path / "offline_report.csv").read_text().splitlines()
        assert lines[2].endswith(",brute_force_cost,lower_bound,gap")
        for line, (_, _, ga, *_), bound in zip(lines[3:], report.centroid_rows,
                                               report.lower_bounds):
            lb, gap = map(float, line.split(",")[-2:])
            assert lb == pytest.approx(bound, rel=1e-5)
            assert gap == pytest.approx(ga / bound - 1, rel=1e-5, abs=1e-12)

    def test_entries_are_feasible_and_fingerprinted(self, built, catalog, vms):
        from packwise import catalog_fingerprint
        _, _, _, table, _ = built
        assert all(e.solution.feasible for e in table.entries)
        assert table.fingerprint == catalog_fingerprint(catalog, vms)
        assert table.threshold == 0.7

    def test_constant_trace_degenerates(self, catalog, vms):
        trace = WorkloadTrace(np.tile([50, 50, 50, 50, 50], (30, 1)))
        with pytest.raises(DegenerateModelError):
            build_offline(trace, catalog, vms, k_range=(2, 5), ga_params=GA)

    def test_single_mode_trace_builds_near_identical_centroids(self, catalog, vms):
        trace, centers, sigma = planted_trace(catalog, 33, modes=1, periods=60)
        table, report = build_offline(trace, catalog, vms, k_range=(2, 3),
                                      ga_params=GA, seed=3)
        assert report.best_k in (2, 3)
        assert len(table.entries) == report.best_k
        pats = np.vstack([e.pattern for e in table.entries])
        spread = np.linalg.norm(pats[:, None, :] - pats[None, :, :], axis=2).max()
        # One blob split in two: centroids sit within a few noise widths.
        assert spread < 10 * sigma * np.sqrt(catalog.service_count)

    def test_k_range_beyond_periods_rejected(self, catalog, vms):
        trace, _, _ = planted_trace(catalog, 34, periods=10)
        with pytest.raises(ValueError):
            build_offline(trace, catalog, vms, k_range=(2, 15), ga_params=GA)

    def test_euclidean_threshold_derived_from_centroids(self, vms):
        # A one-service catalog matches by distance.
        one = ServiceCatalog(np.array([[1.0, 1.0, 2.0]]))
        trace, _, _ = planted_trace(one, 35, modes=2, periods=40)
        table, _ = build_offline(trace, one, vms, k_range=(2, 6), ga_params=GA, seed=4)
        assert table.similarity == "euclidean"
        pats = np.vstack([e.pattern for e in table.entries])
        d = np.linalg.norm(pats[:, None, :] - pats[None, :, :], axis=2)
        mean_inter = d[~np.eye(len(pats), dtype=bool)].mean()
        assert table.threshold == pytest.approx(0.25 * mean_inter)


class TestRunOnline:
    def test_training_distribution_hits(self, built, catalog, vms):
        _, centers, sigma, table, _ = built
        online = generate_trace(
            SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                          periods=100, seed=777), catalog)
        sim = run_online(table, online, catalog, vms,
                         miss_policy=MissPolicy(ga_params=GA))
        assert sim.hit_rate >= 0.99
        assert len(sim.records) == 100
        assert sim.total_cost == pytest.approx(sum(r.cost for r in sim.records))

    def test_mode_replay_scores_near_one(self, built, catalog, vms):
        # Periods equal to the training modes themselves match their
        # representatives nearly perfectly.
        _, centers, _, table, _ = built
        online = WorkloadTrace(centers.astype(np.int64))
        sim = run_online(table, online, catalog, vms,
                         miss_policy=MissPolicy(ga_params=GA))
        assert sim.hit_rate >= 0.99
        assert all(r.score >= 0.99 for r in sim.records)

    def test_novel_mode_recycled_into_table(self, built, catalog, vms):
        _, _, _, table, _ = built
        novel = np.array([138, 109, 19, 270, 15])
        probe = demand_for_period(novel, catalog)
        assert max(pearson(probe.values, e.pattern) for e in table.entries) < 0.7
        online = WorkloadTrace(np.tile(novel, (30, 1)))
        sim = run_online(table, online, catalog, vms,
                         miss_policy=MissPolicy(buffer_size=20,
                                                ga_params=GaParams(seed=5), seed=5))
        assert sim.recluster_events == 1
        first, rest = sim.records[:20], sim.records[20:]
        assert all(not r.hit and r.source == "fallback-greedy" for r in first)
        assert all(r.hit and r.source == "table" and r.score >= 0.99 for r in rest)
        assert len(sim.final_table.entries) == len(table.entries) + 1

    def test_recluster_runs_no_report_packers(self, built, catalog, vms, monkeypatch):
        # The greedy and brute-force costs only feed offline_report.csv, so
        # recycling misses into the table must not compute them. Only calls
        # made while _recluster runs count: each miss is itself served by
        # best_fit_pack.
        import packwise.engine as engine
        _, _, _, table, _ = built
        calls = []
        real_recluster = engine._recluster

        def recluster(*args):
            with pytest.MonkeyPatch.context() as mp:
                for name in ("first_fit_pack", "best_fit_pack", "brute_force_pack"):
                    real = getattr(engine, name)
                    mp.setattr(engine, name,
                               lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
                return real_recluster(*args)

        monkeypatch.setattr(engine, "_recluster", recluster)
        online = WorkloadTrace(np.tile(np.array([138, 109, 19, 270, 15]), (20, 1)))
        sim = run_online(table, online, catalog, vms,
                         miss_policy=MissPolicy(buffer_size=20,
                                                ga_params=GaParams(generations=20, seed=5),
                                                seed=5))
        assert sim.recluster_events == 1
        assert len(sim.final_table.entries) == len(table.entries) + 1
        assert calls == []

    def test_full_recluster_caps_k_at_distinct_patterns(self, built, catalog, vms):
        # 10 table patterns plus 20 copies of one novel row leave 11 distinct
        # patterns for the sweep, fewer than the k_range's upper end.
        _, _, _, table, _ = built
        online = WorkloadTrace(np.tile(np.array([138, 109, 19, 270, 15]), (25, 1)))
        sim = run_online(table, online, catalog, vms,
                         miss_policy=MissPolicy(buffer_size=20,
                                                ga_params=GaParams(generations=20, seed=5),
                                                seed=5))
        assert sim.recluster_events == 1
        assert 2 <= len(sim.final_table.entries) <= 11

    def test_full_recluster_of_a_two_pattern_union(self, built, catalog, vms):
        # One table pattern plus one miss leave no k >= 2 below the union's
        # size to sweep, so the union is clustered at k = 2 distinct patterns.
        _, _, _, table, _ = built
        novel = np.array([10, 190, 10, 190, 10])
        online = WorkloadTrace(np.tile(novel, (3, 1)))
        sim = run_online(replace(table, entries=table.entries[:1]), online, catalog, vms,
                         miss_policy=MissPolicy(buffer_size=1,
                                                ga_params=GaParams(generations=20, seed=5),
                                                seed=5))
        assert sim.recluster_events == 1
        assert [r.hit for r in sim.records] == [False, True, True]
        patterns = [e.pattern.tolist() for e in sim.final_table.entries]
        assert sorted(patterns) == sorted([table.entries[0].pattern.tolist(),
                                           demand_for_period(novel, catalog).values.tolist()])

    def test_recluster_keeps_the_packings_of_surviving_patterns(self, built, catalog, vms,
                                                                 monkeypatch):
        # 10 table patterns plus 20 copies of one novel row: each old
        # pattern survives as a centroid and keeps its packing, so only the
        # novel centroid runs the GA.
        import packwise.engine as engine
        _, _, _, table, _ = built
        packed = []
        real = engine.ga_pack
        monkeypatch.setattr(engine, "ga_pack", lambda *a: packed.append(1) or real(*a))
        online = WorkloadTrace(np.tile(np.array([138, 109, 19, 270, 15]), (20, 1)))
        sim = run_online(table, online, catalog, vms,
                         miss_policy=MissPolicy(buffer_size=20,
                                                ga_params=GaParams(generations=20, seed=5),
                                                seed=5))
        assert sim.recluster_events == 1
        assert len(packed) == 1
        kept = {id(e.solution) for e in sim.final_table.entries}
        assert all(id(e.solution) in kept for e in table.entries)
        assert len(sim.final_table.entries) == len(table.entries) + 1

    def test_recluster_keeps_a_packing_that_fits_the_moved_centroid(self, built, catalog,
                                                                   vms, monkeypatch):
        # 20 misses at 0.9x of entry 0's pattern and k_max 10: they join
        # entry 0's cluster, whose centroid moves but still fits entry 0's
        # packing, so no centroid runs the GA.
        import packwise.engine as engine
        _, _, _, table, _ = built
        packed = []
        real = engine.ga_pack
        monkeypatch.setattr(engine, "ga_pack", lambda *a: packed.append(1) or real(*a))
        policy = MissPolicy(k_range=(2, 10), ga_params=GaParams(generations=20, seed=5),
                            seed=5)
        rebuilt, skipped = engine._recluster(table, [0.9 * table.entries[0].pattern] * 20,
                                             catalog, vms, policy, 300.0, 1)
        assert packed == [] and skipped == 0
        assert ({id(e.solution) for e in rebuilt.entries}
                == {id(e.solution) for e in table.entries})
        moved = [e for e in rebuilt.entries if e.solution is table.entries[0].solution]
        assert len(moved) == 1
        assert not any(np.array_equal(moved[0].pattern, e.pattern) for e in table.entries)
        assert verify_solution(moved[0].solution,
                               demand_from_values(moved[0].pattern, catalog))

    def test_reclustered_table_stays_within_k_max(self, built, catalog, vms, monkeypatch):
        # Demand stepped to 2x misses the 10-entry table; every recluster
        # rebuilds it from select_k over at most k_range[1] clusters.
        import packwise.engine as engine
        _, centers, sigma, table, _ = built
        sizes = []
        real = engine._recluster

        def recluster(*args):
            rebuilt, skipped = real(*args)
            sizes.append(len(rebuilt.entries))
            return rebuilt, skipped

        monkeypatch.setattr(engine, "_recluster", recluster)
        online = generate_trace(
            SyntheticSpec(mode_centers=2 * centers, noise_sigma=sigma,
                          periods=100, seed=5), catalog)
        sim = run_online(table, online, catalog, vms,
                         miss_policy=MissPolicy(k_range=(2, 10),
                                                ga_params=GaParams(generations=20, seed=5),
                                                seed=5))
        assert sim.recluster_events >= 2
        assert len(sizes) == sim.recluster_events
        assert max(sizes) <= 10

    def test_buffer_size_validated(self):
        with pytest.raises(ValueError, match="buffer_size"):
            MissPolicy(buffer_size=0)

    def test_k_range_validated_as_select_k_does(self):
        # select_k's rule, 2 <= low <= high, checked before any period runs.
        for k_range in ((1, 14), (9, 3), (0, 0)):
            with pytest.raises(ValueError, match="k range"):
                MissPolicy(k_range=k_range)
        assert MissPolicy(k_range=(2, 2)).k_range == (2, 2)

    def test_empty_trace_empty_report(self, built, catalog, vms):
        _, _, _, table, _ = built
        sim = run_online(table, WorkloadTrace(np.zeros((0, 5), dtype=np.int64)),
                         catalog, vms, miss_policy=MissPolicy(ga_params=GA))
        assert sim.records == ()
        assert sim.total_cost == 0.0

    def test_fingerprint_mismatch_rejected(self, built, vms):
        _, _, _, table, _ = built
        other = ServiceCatalog(np.ones((5, 3)))
        with pytest.raises(FingerprintMismatchError):
            run_online(table, WorkloadTrace(np.zeros((1, 5), dtype=np.int64)),
                       other, vms)

    def test_table_for_another_period_length_rejected(self, built, fitted, catalog, vms):
        # Both tables are priced for 600-s periods; an hourly replay would
        # charge its hits a sixth of the hour and its misses the full hour.
        trace, _, _, table, _ = built
        hourly = WorkloadTrace(trace.counts[:5], period_seconds=3600)
        model, _ = fitted
        with pytest.raises(TableFormatError, match="period length"):
            run_online(table, hourly, catalog, vms)
        with pytest.raises(TableFormatError, match="period length"):
            evaluate_methods(hourly, catalog, vms, table)
        with pytest.raises(TableFormatError, match="period length"):
            model.replay(hourly)

    def test_live_violations_counted_not_fatal(self, built, catalog, vms, caplog):
        # Inflate the training modes: correlation still matches, but the
        # entry was sized for the centroid and now runs hot.
        _, centers, sigma, table, _ = built
        online = generate_trace(
            SyntheticSpec(mode_centers=centers * 1.25, noise_sigma=sigma,
                          periods=30, seed=11), catalog)
        with caplog.at_level("WARNING", logger="packwise.engine"):
            sim = run_online(table, online, catalog, vms,
                             miss_policy=MissPolicy(ga_params=GA))
        assert len(sim.records) == 30
        if sim.live_violation_rate > 0:
            assert any("violates live demand" in m for m in caplog.messages)
        warnings = [r for r in caplog.records
                    if r.name == "packwise.engine" and r.levelname == "WARNING"]
        assert len(warnings) <= 1


@pytest.fixture(scope="module")
def comparison(built, catalog, vms):
    trace, centers, sigma, table, _ = built
    online = generate_trace(
        SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                      periods=40, seed=888), catalog)
    return evaluate_methods(online, catalog, vms, table, ga_params=GA)


@pytest.fixture(scope="module")
def fitted(catalog, vms):
    trace, centers, sigma = planted_trace(catalog, 77, modes=3, periods=40)
    model = PackingAutoscaler(k_range=(2, 5), ga_params=GaParams(seed=6), seed=6)
    return model.fit(trace, catalog, vms), centers


class TestEvaluateMethods:
    def test_structure(self, comparison):
        assert comparison.methods == ("pipeline", "per_period_ga", "first_fit",
                                      "best_fit", "static_peak")
        assert len(comparison.rows) == 40
        assert all(len(row) == 5 for row in comparison.rows)

    def test_totals_are_column_sums(self, comparison):
        sums = np.array(comparison.rows).sum(axis=0)
        assert np.allclose(np.array(comparison.totals), sums, rtol=1e-12)

    def test_cost_sandwich(self, comparison):
        by = dict(zip(comparison.methods, comparison.totals))
        assert by["per_period_ga"] <= by["pipeline"] + 1e-9
        assert by["pipeline"] <= by["static_peak"] + 1e-9

    def test_ga_beats_greedy_in_aggregate(self, comparison):
        by = dict(zip(comparison.methods, comparison.totals))
        assert by["per_period_ga"] <= by["first_fit"] + 1e-9
        assert by["per_period_ga"] <= by["best_fit"] + 1e-9

    def test_best_fit_packed_once_per_period(self, built, catalog, vms, monkeypatch):
        # Misses (demand at 1.6x the modes) are served by the greedy fallback,
        # which is the best-fit packing; it must not be packed again for the
        # best_fit column.
        import packwise.engine as engine
        _, centers, sigma, table, _ = built
        online = WorkloadTrace(np.vstack([
            generate_trace(SyntheticSpec(mode_centers=centers * scale, noise_sigma=sigma,
                                         periods=20, seed=889), catalog).counts
            for scale in (1.0, 1.6)
        ]))
        calls = []
        real = engine.best_fit_pack

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(engine, "best_fit_pack", counting)
        report = evaluate_methods(online, catalog, vms, table,
                                  ga_params=GaParams(generations=5, seed=2))
        assert len(calls) == 40
        secs = online.period_seconds
        demands = [demand_for_period(c, catalog) for c in online.counts]
        assert [row[3] for row in report.rows] == [
            real(dv, vms, secs).total_cost for dv in demands]
        sources = {engine.decide(table, dv, vms, secs)[1] for dv in demands}
        assert sources == {"table", "fallback-greedy"}

    def test_empty_trace_rejected(self, built, catalog, vms):
        _, _, _, table, _ = built
        with pytest.raises(ValueError):
            evaluate_methods(WorkloadTrace(np.zeros((0, 5), dtype=np.int64)),
                             catalog, vms, table, ga_params=GA)


class TestDeterminism:
    def test_rebuild_is_identical(self, catalog, vms, tmp_path):
        from packwise import save_table
        trace, _, _ = planted_trace(catalog, 55, modes=4, periods=50)
        results = []
        for run in range(2):
            table, report = build_offline(trace, catalog, vms, k_range=(2, 6),
                                          ga_params=GaParams(seed=9), seed=9)
            tp = tmp_path / f"table{run}.json"
            rp = tmp_path / f"report{run}.csv"
            save_table(table, tp)
            report.to_csv(rp)
            results.append((table, tp.read_bytes(), rp.read_bytes()))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]

    def test_replay_is_identical(self, built, catalog, vms, tmp_path):
        _, centers, sigma, table, _ = built
        online = generate_trace(
            SyntheticSpec(mode_centers=centers, noise_sigma=sigma,
                          periods=30, seed=66), catalog)
        outputs = []
        for run in range(2):
            sim = run_online(table, online, catalog, vms,
                             miss_policy=MissPolicy(ga_params=GaParams(seed=4), seed=4))
            path = tmp_path / f"sim{run}.csv"
            sim.to_csv(path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestPackingAutoscaler:
    def test_fit_exposes_table_and_report(self, fitted):
        model, _ = fitted
        assert len(model.table_.entries) == model.report_.best_k

    def test_predict_single_row(self, fitted, catalog):
        model, centers = fitted
        solution = model.predict(centers[0].astype(int))
        assert isinstance(solution, PackingSolution)
        assert solution.feasible

    def test_predict_matrix(self, fitted, catalog):
        # Hits and (at twice the magnitude) greedy misses, row for row as
        # predict(row) serves them.
        model, centers = fitted
        rows = np.vstack([centers, 2 * centers]).astype(int)
        solutions = model.predict(rows)
        assert len(solutions) == len(rows)
        for row, got in zip(rows, solutions):
            want = model.predict(row)
            assert repr(got.total_cost) == repr(want.total_cost)
            assert got.feasible == want.feasible
            assert [i.vm_type.id for i in got.instances] == \
                [i.vm_type.id for i in want.instances]
            assert [i.assignment.tobytes() for i in got.instances] == \
                [i.assignment.tobytes() for i in want.instances]

    def test_replay(self, fitted, catalog):
        model, centers = fitted
        online = generate_trace(
            SyntheticSpec(mode_centers=centers, noise_sigma=1.0,
                          periods=10, seed=3), catalog)
        sim = model.replay(online)
        assert len(sim.records) == 10

    def test_replay_reclusters_within_the_fitted_k_range(self, fitted, catalog):
        # replay() sweeps the k_range fit() used, (2, 5), at every recluster.
        model, centers = fitted
        online = generate_trace(
            SyntheticSpec(mode_centers=2 * centers, noise_sigma=1.0,
                          periods=80, seed=3), catalog)
        sim = model.replay(online)
        assert sim.recluster_events >= 1
        assert len(sim.final_table.entries) <= 5

    def test_hit_runs_no_tolerance_check_and_no_greedy(self, fitted, catalog, monkeypatch):
        import packwise.engine as engine
        model, centers = fitted
        row = centers[0].astype(int)
        result = match(model.table_, demand_for_period(row, catalog))
        assert result.hit

        def forbidden(*args, **kwargs):
            raise AssertionError("called on a table hit")

        for name in ("allclose", "isclose"):
            monkeypatch.setattr(np, name, forbidden)
        monkeypatch.setattr(engine, "best_fit_pack", forbidden)
        assert model.predict(row) is result.chosen

    def test_magnitude_guard_miss_packs_once(self, fitted, catalog, vms, monkeypatch):
        import packwise.engine as engine
        model, centers = fitted
        row = 2 * centers[0].astype(int)   # same shape, twice the guard's 1.5 ratio
        dv = demand_for_period(row, catalog)
        result = match(model.table_, dv)
        assert result.score >= model.table_.threshold and not result.hit
        packed = []
        real = engine.best_fit_pack

        def recording(*args):
            packed.append(real(*args))
            return packed[-1]

        monkeypatch.setattr(engine, "best_fit_pack", recording)
        solution = model.predict(row)
        assert len(packed) == 1 and solution is packed[0]
        assert solution.total_cost == real(dv, vms, model._period_seconds).total_cost

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            PackingAutoscaler().predict(np.array([1, 2, 3, 4, 5]))
