"""split_map and its callers: the same outputs whether the jobs run in one
process or are spread over forked workers, the serial loop's exception,
and no process left behind.

The worker count is forced through parallel._usable_cpus, so the fork
path runs on a one-CPU host too.
"""

import os
import time

import numpy as np
import pytest

from packwise import (
    BuildError,
    DegenerateModelError,
    GaParams,
    MissPolicy,
    PackingSolution,
    WorkloadTrace,
    build_offline,
    clustering,
    evaluate_methods,
    parallel,
    run_online,
    select_k,
)
from packwise.parallel import split_map

from conftest import planted_trace

GA = GaParams(generations=40, seed=3)


@pytest.fixture
def workers(monkeypatch):
    """force(n): split_map then runs on n processes, whatever the host has."""
    def force(n):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: n)
    return force


def both_ways(workers, fn):
    """(fn() on two processes, fn() on one)."""
    workers(2)
    split = fn()
    workers(1)
    return split, fn()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at(bad):
    def fn(x):
        if x in bad:
            raise ValueError(f"item {x} failed")
        return x * x
    return fn


@pytest.fixture
def built(five_service_catalog, three_vm_catalog):
    """(trace, centers, catalog, vms) of a small six-mode history."""
    trace, centers, _ = planted_trace(five_service_catalog, 31, modes=6, periods=80)
    return trace, centers, five_service_catalog, three_vm_catalog


def build(built):
    trace, _, catalog, vms = built
    return build_offline(trace, catalog, vms, k_range=(2, 8), ga_params=GA, seed=4)


def report_bytes(report, tmp_path):
    path = tmp_path / "report.csv"
    report.to_csv(path)
    return path.read_bytes()


def assert_catalog_instances(table, vms):
    for entry in table.entries:
        for inst in entry.solution.instances:
            assert any(inst.vm_type is vm for vm in vms)
            assert not inst.assignment.flags.writeable


class TestSplitMap:
    def test_results_in_item_order(self, workers):
        workers(2)
        assert split_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]
        assert_no_children()

    def test_items_are_dealt_round_robin(self, workers):
        workers(2)
        parent = os.getpid()
        pids = split_map(lambda _: os.getpid(), range(5))
        assert pids[0::2] == [parent] * 3
        assert len(set(pids[1::2])) == 1 and pids[1] != parent
        assert_no_children()

    def test_one_process_per_item_at_most(self, workers):
        workers(4)
        pids = split_map(lambda _: os.getpid(), range(2))
        assert pids[0] == os.getpid() and pids[1] != pids[0]
        assert_no_children()

    def test_serial_without_cpus_or_items(self, workers):
        workers(1)
        assert set(split_map(lambda _: os.getpid(), range(4))) == {os.getpid()}
        workers(2)
        assert split_map(lambda _: os.getpid(), [0]) == [os.getpid()]
        assert split_map(lambda _: os.getpid(), []) == []

    def test_a_worker_does_not_fork_again(self, workers):
        workers(2)

        def inner(_):
            return os.getpid(), split_map(lambda _: os.getpid(), range(4))

        worker, pids = split_map(inner, range(2))[1]
        assert worker != os.getpid()
        assert set(pids) == {worker}
        assert_no_children()

    @pytest.mark.parametrize("bad", [{3, 4, 6}, {2, 5}, {7}, {0, 1}])
    def test_reraises_the_lowest_failing_index(self, workers, bad):
        raised = []
        for n in (2, 1):
            workers(n)
            with pytest.raises(ValueError) as info:
                split_map(fail_at(bad), range(8))
            raised.append((type(info.value), str(info.value)))
            assert_no_children()
        assert raised[0] == raised[1] == (ValueError, f"item {min(bad)} failed")

    def test_parent_side_exception_waits_for_a_lower_child_failure(self, workers):
        workers(2)
        parent = os.getpid()

        def fn(x):
            if x == 1 or (x == 2 and os.getpid() == parent):
                raise KeyError(x)
            return x

        with pytest.raises(KeyError) as info:
            split_map(fn, range(4))
        assert info.value.args == (1,)
        assert_no_children()

    def test_parent_interrupt_kills_the_children(self, workers):
        workers(2)
        parent = os.getpid()

        def fn(x):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            split_map(fn, range(2))
        assert time.perf_counter() - start < 30
        assert_no_children()

    def test_a_worker_that_dies_is_an_error(self, workers):
        workers(2)
        with pytest.raises(RuntimeError, match="exited without sending"):
            split_map(lambda x: os._exit(3) if x == 1 else x, range(2))
        assert_no_children()


class TestCallers:
    def test_select_k(self, workers, built):
        X = planted_trace(built[2], 7, modes=5, periods=60)[0].counts.astype(float)

        def run():
            model, rows = select_k(X, (2, 9), seed=5)
            return (repr(rows), model.k, model.centroids.tobytes(),
                    model.assignments.tobytes(), model.objective_trace)

        split, serial = both_ways(workers, run)
        assert split == serial
        assert_no_children()

    def test_select_k_raises_the_lowest_degenerate_k(self, workers, monkeypatch):
        X = np.random.default_rng(0).normal(size=(40, 3))
        real = clustering.davies_bouldin

        def scorer(model, patterns):
            if model.k >= 3:
                raise DegenerateModelError(f"k={model.k} has coincident centroids")
            return real(model, patterns)

        monkeypatch.setattr(clustering, "davies_bouldin", scorer)

        def run():
            with pytest.raises(DegenerateModelError) as info:
                select_k(X, (2, 7), seed=0)
            return str(info.value)

        split, serial = both_ways(workers, run)
        assert split == serial == "k=3 has coincident centroids"
        assert_no_children()

    def test_build_offline(self, workers, built, tmp_path):
        def run():
            table, report = build(built)
            assert_catalog_instances(table, built[3])
            return table.to_doc(), report_bytes(report, tmp_path)

        split, serial = both_ways(workers, run)
        assert split == serial
        assert_no_children()

    def test_build_offline_names_the_first_infeasible_representative(self, workers, built,
                                                                     monkeypatch):
        import packwise.engine as engine
        real = engine.ga_pack

        def ga_pack(dv, vms, params, period_seconds):
            sol = real(dv, vms, params, period_seconds)
            if params.seed - GA.seed in (1, 2):
                return PackingSolution(sol.instances, sol.total_cost, False)
            return sol

        monkeypatch.setattr(engine, "ga_pack", ga_pack)

        def run():
            with pytest.raises(BuildError) as info:
                build(built)
            return str(info.value)

        split, serial = both_ways(workers, run)
        assert split == serial
        assert split.startswith("representative 1 ")
        assert_no_children()

    def test_run_online_with_reclusters(self, workers, built):
        trace, centers, catalog, vms = built
        workers(1)
        table, _ = build(built)
        online = WorkloadTrace(np.vstack([np.tile(centers.astype(np.int64), (3, 1)),
                                          np.tile(2 * centers.astype(np.int64), (4, 1))]))
        policy = MissPolicy(buffer_size=6, k_range=(2, 8), ga_params=GA, seed=2)

        def run():
            sim = run_online(table, online, catalog, vms, miss_policy=policy)
            assert sim.recluster_events >= 1
            assert_catalog_instances(sim.final_table, vms)
            return sim, sim.final_table.to_doc()

        (split, split_doc), (serial, serial_doc) = both_ways(workers, run)
        assert split == serial      # the records and aggregates
        assert split_doc == serial_doc
        assert_no_children()

    def test_evaluate_methods(self, workers, built):
        trace, _, catalog, vms = built
        workers(1)
        table, _ = build(built)
        online = WorkloadTrace(trace.counts[:9])

        def run():
            report = evaluate_methods(online, catalog, vms, table,
                                      ga_params=GaParams(generations=10, seed=1))
            return report.rows, report.totals

        split, serial = both_ways(workers, run)
        assert split == serial
        assert_no_children()
