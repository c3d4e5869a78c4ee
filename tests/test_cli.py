"""Command-line interface: subcommands, exit codes, artifact files."""

import argparse
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from packwise.cli import build_parser, main

from conftest import set_in


@pytest.fixture
def workspace(tmp_path):
    """Catalog files plus a generated 10-mode trace."""
    services = tmp_path / "services.csv"
    services.write_text("1,1,2\n1,2,1\n2,1,2\n1,1,1\n2,2,1\n")
    vms = tmp_path / "vms.csv"
    vms.write_text(
        "small,200,200,300,1.0\n"
        "medium,300,400,300,1.6\n"
        "large,600,600,700,2.9\n"
    )
    trace = tmp_path / "trace.csv"
    rc = main(["gen", "--services", "5", "--periods", "100", "--modes", "10",
               "--seed", "1", "--out", str(trace)])
    assert rc == 0
    return tmp_path, services, vms, trace


def single_service_workspace(tmp_path):
    services = tmp_path / "one_service.csv"
    services.write_text("1,1,2\n")
    vms = tmp_path / "vms.csv"
    vms.write_text("small,200,200,300,1.0\nlarge,600,600,700,2.9\n")
    trace = tmp_path / "one_service_trace.csv"
    assert main(["gen", "--services", "1", "--periods", "60", "--modes", "3",
                 "--seed", "4", "--out", str(trace)]) == 0
    return services, vms, trace


def build(workspace, outdir="build", extra=()):
    tmp_path, services, vms, trace = workspace
    out = tmp_path / outdir
    rc = main(["build", "--trace", str(trace), "--catalog", str(services),
               "--vm-catalog", str(vms), "--out", str(out), "--seed", "3",
               "--generations", "120", *extra])
    return rc, out


class TestGen:
    def test_writes_declared_shape(self, workspace):
        _, _, _, trace = workspace
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "# services=5 period_seconds=600"
        assert len(lines) == 101
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_deterministic(self, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["gen", "--services", "3", "--periods", "20",
                         "--modes", "2", "--seed", "9", "--out", str(path)]) == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_zero_periods_is_usage_error(self, tmp_path):
        rc = main(["gen", "--services", "3", "--periods", "0",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_help_exists(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == 0


class TestBuild:
    def test_artifacts_written(self, workspace):
        rc, out = build(workspace)
        assert rc == 0
        for name in ("table.json", "offline_report.csv", "index_table.csv",
                     "dendrogram.csv"):
            assert (out / name).exists(), name
        header = (out / "index_table.csv").read_text().split("\n")[0]
        assert header == "k,davies_bouldin,dunn"

    def test_ahc_artifacts(self, workspace):
        rc, out = build(workspace)
        assert rc == 0
        merges = (out / "dendrogram.csv").read_text().strip().split("\n")[1:]
        assert len(merges) == 100 - 1
        ahc_line = (out / "offline_report.csv").read_text().split("\n")[1]
        assert re.fullmatch(r"# ahc_davies_bouldin=\S+ ahc_dunn=\S+", ahc_line)

    def test_long_trace_clusters_a_sample_of_its_periods(self, workspace, monkeypatch):
        # Above AHC_MAX_PERIODS periods, the hierarchical clustering runs on
        # every ceil(n / AHC_MAX_PERIODS)-th period and the report says on
        # how many; the table and the k sweep do not change. At the cap,
        # nothing is sampled and the report keeps its two ahc fields.
        import packwise.cli as cli
        _, full = build(workspace)
        monkeypatch.setattr(cli, "AHC_MAX_PERIODS", 100)
        _, at_cap = build(workspace, "at-cap")
        monkeypatch.setattr(cli, "AHC_MAX_PERIODS", 30)
        rc, out = build(workspace, "sampled")
        assert rc == 0
        merges = (out / "dendrogram.csv").read_text().strip().split("\n")[1:]
        assert len(merges) == 25 - 1       # periods 0, 4, ..., 96
        ahc_line = (out / "offline_report.csv").read_text().split("\n")[1]
        assert re.fullmatch(r"# ahc_davies_bouldin=\S+ ahc_dunn=\S+ ahc_periods=25", ahc_line)
        for name in ("table.json", "index_table.csv"):
            assert (out / name).read_bytes() == (full / name).read_bytes(), name
        for name in ("table.json", "offline_report.csv", "index_table.csv",
                     "dendrogram.csv"):
            assert (at_cap / name).read_bytes() == (full / name).read_bytes(), name

    def test_sample_with_fewer_patterns_than_best_k_still_builds(self, workspace):
        # 6,000 periods alternating two rows: select_k picks k=2 on the
        # whole trace, but every second period, the AHC sample, is one row.
        # The tree is cut at that one pattern and left unscored.
        tmp_path, services, vms, _ = workspace
        trace = tmp_path / "alternating.csv"
        rows = ["40,30,20,10,50", "90,80,70,60,100"]
        trace.write_text("\n".join(["# services=5 period_seconds=300",
                                     *(rows[i % 2] for i in range(6000))]) + "\n")
        out = tmp_path / "alternating"
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(out), "--k-max", "2"])
        assert rc == 0
        report = (out / "offline_report.csv").read_text().split("\n")
        assert report[:2] == ["# best_k=2",
                              "# ahc_davies_bouldin= ahc_dunn= ahc_k=1 ahc_periods=3000"]
        merges = (out / "dendrogram.csv").read_text().strip().split("\n")[1:]
        assert len(merges) == 3000 - 1
        assert len(json.loads((out / "table.json").read_text())["entries"]) == 2

    def test_non_finite_vm_price_exits_2(self, workspace, capsys):
        tmp_path, services, _, trace = workspace
        vms = tmp_path / "nan_vms.csv"
        vms.write_text("small,200,200,300,1.0\nlarge,600,600,700,nan\n")
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(tmp_path / "nan")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite" in err and f"{vms}: line 2: " in err
        assert not (tmp_path / "nan" / "table.json").exists()

    def test_non_finite_unit_cost_exits_2(self, workspace, capsys):
        tmp_path, _, vms, trace = workspace
        services = tmp_path / "nan_services.csv"
        services.write_text("1,1,2\n1,2,1\n2,1,nan\n1,1,1\n2,2,1\n")
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(tmp_path / "nan")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {services}: unit costs must be finite\n"
        assert not (tmp_path / "nan").exists()

    def test_repeated_vm_type_id_exits_2(self, workspace, capsys):
        tmp_path, services, _, trace = workspace
        vms = tmp_path / "twin_vms.csv"
        vms.write_text("small,200,200,300,1.0\nsmall,600,600,700,2.9\n")
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(tmp_path / "twin")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "twin" / "table.json").exists()

    def test_single_service_euclidean_builds_and_replays(self, tmp_path):
        # One service matches by distance, with no flag to ask for it; the
        # artifacts are those that `--similarity euclidean` wrote when the
        # metric was a flag.
        services, vms, trace = single_service_workspace(tmp_path)
        common = ["--trace", str(trace), "--catalog", str(services),
                  "--vm-catalog", str(vms), "--seed", "3", "--generations", "60"]
        assert main(["build", *common, "--out", str(tmp_path / "b"), "--k-max", "4"]) == 0
        assert main(["run", *common, "--table", str(tmp_path / "b" / "table.json"),
                     "--out", str(tmp_path / "r")]) == 0
        lines = (tmp_path / "r" / "simulation.csv").read_text().strip().split("\n")
        assert len(lines) == 2 + 60
        assert json.loads((tmp_path / "b" / "table.json").read_text())["similarity"] \
            == "euclidean"
        got = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("b/table.json", "r/simulation.csv")]
        assert got == ["b4abb18ffb5da5cfa8fac5666af3fa84c558bbef8305d10ce7e6fdc5851daa3b",
                       "826814c6c898e0458246b67090e8ffa8d7b3321bd9d3c7b6e3211394b385285b"]

    def test_nan_setting_exits_2_without_artifact(self, workspace, capsys):
        # NaN compares false both ways, so it must fail each range check:
        # the magnitude ratio's, and the distance threshold's of a
        # one-service catalog.
        one = workspace[0] / "one"
        one.mkdir()
        for ws, extra in ((workspace, ("--magnitude-ratio", "nan")),
                          ((one, *single_service_workspace(one)), ("--threshold", "nan"))):
            rc, out = build(ws, "nan", extra)
            assert rc == 2, extra
            assert "error:" in capsys.readouterr().err, extra
            assert not out.exists(), extra

    def test_k_range_too_large_exits_2(self, workspace):
        tmp_path, services, vms, trace = workspace
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(tmp_path / "x"),
                   "--k-min", "2", "--k-max", "150"])
        assert rc == 2

    def test_few_distinct_patterns_cap_the_sweep(self, workspace):
        tmp_path, services, vms, _ = workspace
        trace = tmp_path / "five_patterns.csv"
        patterns = ["40,60,20,80,30", "90,20,70,10,50", "20,90,40,60,10",
                    "70,40,90,30,80", "10,30,50,90,60"]
        trace.write_text("# services=5 period_seconds=600\n"
                         + "".join(f"{row}\n" for row in patterns * 20))
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(tmp_path / "five")])
        assert rc == 0
        index = (tmp_path / "five" / "index_table.csv").read_text().strip().split("\n")
        assert [int(line.split(",")[0]) for line in index[1:]] == [2, 3, 4, 5]
        table = json.loads((tmp_path / "five" / "table.json").read_text())
        assert len(table["entries"]) <= 5

    def test_rebuild_byte_identical(self, workspace):
        _, out_a = build(workspace, "build_a")
        _, out_b = build(workspace, "build_b")
        for name in ("table.json", "offline_report.csv", "index_table.csv",
                     "dendrogram.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_config_file_feeds_defaults_flags_override(self, workspace):
        tmp_path, services, vms, trace = workspace
        cfg = tmp_path / "packwise.cfg"
        cfg.write_text("k_min=2\nk_max=6\ngenerations=120\nseed=3\n")
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(tmp_path / "cfg_build"),
                   "--config", str(cfg)])
        assert rc == 0
        report = (tmp_path / "cfg_build" / "index_table.csv").read_text()
        ks = [int(line.split(",")[0]) for line in report.strip().split("\n")[1:]]
        assert ks == [2, 3, 4, 5, 6]
        # Flag overrides the config's k_max.
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(tmp_path / "cfg_build2"),
                   "--config", str(cfg), "--k-max", "4"])
        assert rc == 0
        report = (tmp_path / "cfg_build2" / "index_table.csv").read_text()
        ks = [int(line.split(",")[0]) for line in report.strip().split("\n")[1:]]
        assert ks == [2, 3, 4]

    def test_config_key_spelled_with_dashes(self, workspace):
        tmp_path, services, vms, trace = workspace
        cfg = tmp_path / "dashes.cfg"
        cfg.write_text("k-max=4\ngenerations=120\nseed=3\n")
        rc = main(["build", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--out", str(tmp_path / "dashes"),
                   "--config", str(cfg)])
        assert rc == 0
        report = (tmp_path / "dashes" / "index_table.csv").read_text()
        ks = [int(line.split(",")[0]) for line in report.strip().split("\n")[1:]]
        assert ks == [2, 3, 4]

    @pytest.mark.parametrize("command,line", [
        ("build", "penalty_weight=9"),
        ("build", "ga_seed=5"),
        ("build", "population=abc"),
        ("build", "k_max 4"),
        ("run", "full_recluster=1"),
    ])
    def test_bad_config_line_exits_2_before_any_work(self, workspace, command, line):
        # The table need not exist: the config is refused while parsing.
        tmp_path, services, vms, trace = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"k_max=4\n{line}\n")
        out = tmp_path / "bad"
        table = ("--table", str(tmp_path / "no_table.json")) if command == "run" else ()
        with pytest.raises(SystemExit) as exc:
            main([command, "--trace", str(trace), "--catalog", str(services),
                  "--vm-catalog", str(vms), *table, "--out", str(out),
                  "--config", str(cfg)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_abbreviated_flag_exits_2_before_any_work(self, workspace):
        # gen is a unique prefix of --generations, and a prefix is not a flag.
        tmp_path, services, vms, trace = workspace
        cfg = tmp_path / "abbrev.cfg"
        cfg.write_text("gen=30\n")
        inputs = ["--trace", str(trace), "--catalog", str(services), "--vm-catalog", str(vms)]
        for name, extra in (("config", ["--config", str(cfg)]), ("flag", ["--gen", "30"])):
            out = tmp_path / name
            with pytest.raises(SystemExit) as exc:
                main(["build", *inputs, "--out", str(out), *extra])
            assert exc.value.code == 2, name
            assert not out.exists(), name


class TestRun:
    def test_replay_writes_simulation(self, workspace):
        tmp_path, services, vms, trace = workspace
        _, out = build(workspace)
        rc = main(["run", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--table", str(out / "table.json"),
                   "--out", str(tmp_path / "run"), "--seed", "3"])
        assert rc == 0
        sim = (tmp_path / "run" / "simulation.csv").read_text()
        lines = sim.strip().split("\n")
        assert lines[0].startswith("# hit_rate=")
        hit_rate = float(lines[0].split("hit_rate=")[1].split()[0])
        assert hit_rate >= 0.99  # replaying the training distribution
        assert lines[1] == "period,score,hit,source,cost"
        assert len(lines) == 102

    def test_fingerprint_mismatch_exits_3(self, workspace):
        tmp_path, services, vms, trace = workspace
        _, out = build(workspace)
        other = tmp_path / "other_services.csv"
        other.write_text("1,1,1\n1,1,1\n1,1,1\n1,1,1\n1,1,1\n")
        rc = main(["run", "--trace", str(trace), "--catalog", str(other),
                   "--vm-catalog", str(vms), "--table", str(out / "table.json"),
                   "--out", str(tmp_path / "run3")])
        assert rc == 3

    def test_bad_k_range_exits_2_before_the_first_period(self, workspace, capsys):
        tmp_path, services, vms, trace = workspace
        _, out = build(workspace)
        capsys.readouterr()
        for k_range in (("--k-min", "1"), ("--k-min", "9", "--k-max", "3")):
            run_dir = tmp_path / "-".join(("run",) + k_range)
            rc = main(["run", "--trace", str(trace), "--catalog", str(services),
                       "--vm-catalog", str(vms), "--table", str(out / "table.json"),
                       "--out", str(run_dir), *k_range])
            assert rc == 2, k_range
            assert "k range" in capsys.readouterr().err
            assert not run_dir.exists()

    def test_fallback_is_an_unknown_flag(self, workspace):
        # A miss is always served a best-fit packing, and every recluster
        # rebuilds the table; no flag or config key chooses another policy.
        tmp_path, services, vms, trace = workspace
        _, out = build(workspace)
        key = "fallback"
        cfg = tmp_path / "fallback.cfg"
        cfg.write_text(f"{key}=nearest\n")
        inputs = ["--trace", str(trace), "--catalog", str(services), "--vm-catalog", str(vms),
                  "--table", str(out / "table.json")]
        for name, extra in (("flag", [f"--{key}", "greedy"]),
                            ("config", ["--config", str(cfg)]),
                            ("full-recluster", ["--full-recluster"])):
            run_dir = tmp_path / name
            with pytest.raises(SystemExit) as exc:
                main(["run", *inputs, "--out", str(run_dir), *extra])
            assert exc.value.code == 2, name
            assert not run_dir.exists(), name


# Settings that are constants now, by the subcommands that took them:
# the GA's operator rates and slot budget, AHC's linkage, and gen's mode
# range and noise; each with the value it always had. The matching metric,
# which the catalog's width picks, is no setting either.
REMOVED_SETTINGS = {
    "gen": (("center-low", "20"), ("center-high", "200"), ("sigma", "5")),
    "build": (("crossover-rate", "0.9"), ("mutation-rate", "0.05"), ("elitism", "2"),
              ("max-instances", "8"), ("linkage", "ward"), ("similarity", "euclidean")),
    "run": (("crossover-rate", "0.9"), ("mutation-rate", "0.05"), ("elitism", "2"),
            ("max-instances", "8")),
    "compare": (("crossover-rate", "0.9"), ("mutation-rate", "0.05"), ("elitism", "2"),
                ("max-instances", "8")),
}


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value) for command, settings in REMOVED_SETTINGS.items()
    for flag, value in settings])
def test_removed_setting_exits_2_before_any_output(workspace, capsys, command, flag, value):
    tmp_path, services, vms, trace = workspace
    out = tmp_path / "out"
    variants = [[f"--{flag}", value]]
    if command == "gen":
        inputs = ["--services", "5", "--periods", "10"]
    else:
        inputs = ["--trace", str(trace), "--catalog", str(services), "--vm-catalog", str(vms)]
        if command != "build":
            inputs += ["--table", str(tmp_path / "no_table.json")]
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(f"{flag.replace('-', '_')}={value}\n")
        variants.append(["--config", str(cfg)])
    capsys.readouterr()
    for extra in variants:
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--out", str(out), *extra])
        assert exc.value.code == 2, extra
        assert capsys.readouterr().out == "", extra
        assert not out.exists(), extra


class TestTableWidth:
    """A table whose rows do not hold one entry per catalog service is
    refused when loaded, even though its fingerprint matches."""

    def replay_edited(self, workspace, edit):
        """Build the quickstart table, edit it and replay the trace on it."""
        tmp_path, services, vms, trace = workspace
        inputs = ["--trace", str(trace), "--catalog", str(services), "--vm-catalog", str(vms)]
        assert main(["build", *inputs, "--out", str(tmp_path / "build"), "--seed", "7"]) == 0
        path = tmp_path / "build" / "table.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return main(["run", *inputs, "--table", str(path), "--out", str(tmp_path / "run")])

    def test_short_assignment_exits_2(self, workspace, capsys):
        def truncate(doc):
            assignment = doc["entries"][0]["instances"][0]["assignment"]
            del assignment[3:]
        assert self.replay_edited(workspace, truncate) == 2
        assert "an assignment of width 3" in capsys.readouterr().err

    def test_short_patterns_exit_2(self, workspace, capsys):
        def truncate(doc):
            for entry in doc["entries"]:
                del entry["pattern"][4:]
        assert self.replay_edited(workspace, truncate) == 2
        assert "a pattern of width 4" in capsys.readouterr().err


class TestLogLevel:
    def test_error_hides_violation_summary_and_changes_no_artifact(self, workspace,
                                                                     caplog):
        tmp_path, services, vms, trace = workspace
        warned, files = {}, {}
        for level in ("warning", "error"):
            caplog.clear()
            rc, out = build(workspace, f"build_{level}", ("--log-level", level))
            assert rc == 0
            run_dir = tmp_path / f"run_{level}"
            assert main(["run", "--trace", str(trace), "--catalog", str(services),
                         "--vm-catalog", str(vms), "--table", str(out / "table.json"),
                         "--out", str(run_dir), "--seed", "3",
                         "--log-level", level]) == 0
            warned[level] = any("violates live demand" in r.getMessage()
                                for r in caplog.records)
            files[level] = [(out / name).read_bytes() for name in
                            ("table.json", "offline_report.csv", "index_table.csv",
                             "dendrogram.csv")]
            files[level].append((run_dir / "simulation.csv").read_bytes())
        assert warned == {"warning": True, "error": False}
        assert files["warning"] == files["error"]


class TestPeriodLength:
    def test_table_for_another_period_length_exits_2(self, workspace, capsys):
        # The table is priced for 600-s periods; an hourly trace must not be
        # served at those prices.
        tmp_path, services, vms, _ = workspace
        _, out = build(workspace)
        hourly = tmp_path / "hourly.csv"
        assert main(["gen", "--services", "5", "--periods", "20", "--modes", "10",
                     "--seed", "2", "--period-seconds", "3600", "--out", str(hourly)]) == 0
        capsys.readouterr()
        for command in ("run", "compare"):
            rc = main([command, "--trace", str(hourly), "--catalog", str(services),
                       "--vm-catalog", str(vms), "--table", str(out / "table.json"),
                       "--out", str(tmp_path / command)])
            assert rc == 2, command
            assert "period length" in capsys.readouterr().err, command


class TestCompare:
    def test_comparison_csv_shape(self, workspace):
        tmp_path, services, vms, trace = workspace
        _, out = build(workspace)
        rc = main(["compare", "--trace", str(trace), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--table", str(out / "table.json"),
                   "--out", str(tmp_path / "cmp"), "--seed", "3",
                   "--generations", "120"])
        assert rc == 0
        lines = (tmp_path / "cmp" / "comparison.csv").read_text().strip().split("\n")
        assert lines[0] == "period,pipeline,per_period_ga,first_fit,best_fit,static_peak"
        assert len(lines) == 102
        assert lines[-1].startswith("total,")
        body = np.array([[float(v) for v in line.split(",")[1:]]
                         for line in lines[1:-1]])
        totals = np.array([float(v) for v in lines[-1].split(",")[1:]])
        assert np.allclose(body.sum(axis=0), totals, rtol=1e-4)

    def test_empty_trace_is_error(self, workspace):
        tmp_path, services, vms, _ = workspace
        _, out = build(workspace)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = main(["compare", "--trace", str(empty), "--catalog", str(services),
                   "--vm-catalog", str(vms), "--table", str(out / "table.json"),
                   "--out", str(tmp_path / "cmp2")])
        assert rc == 2


# sha256 of each artifact of the README quickstart (workspace's files,
# then build, run and compare at --seed 7 with default settings), taken on
# Python 3.11, numpy 2.4 and scipy 1.17. A change that claims unchanged
# outputs must leave these alone; one that changes them on purpose says so.
QUICKSTART_SHA256 = {
    "build/table.json": "af85aae61b364c8099aee690076e349adb7bf5b08e4370e0bf0943ea11b2b790",
    "build/offline_report.csv": "fe051f0fa7cd378a049313b4b6881aa8bb65e756c91221e36d69ecee75d384da",
    "build/index_table.csv": "33fb9ba72b414db11d996db6d156542b37ada53a508b920931c695128d5773db",
    "build/dendrogram.csv": "0230a439e53db5fb9e1ea368c5ca4b3634d72a9b992bf0983e1eeccd8ea036dd",
    "run/simulation.csv": "9e85bfc40343c8c72d26251d2308b248c70648dd968a4649d665b2fa95ecfee8",
    "cmp/comparison.csv": "5e2d79439776147b603c708a18232cd1060bdd4fe016474dda3633027f006488",
}

# sha256 of simulation.csv when a `gen --seed 2` trace (otherwise as the
# workspace's) is run against the quickstart table at --seed 7; same
# versions. Each miss is served a best-fit packing of its live demand, and
# the recluster rebuilds the table by select_k over its patterns plus the
# misses.
REPLAY_SHA256 = {
    (): "3ce4d58f144e6c60b7acead6d384c46e1eca4b1f42d95380293066da64f8ad0c",
}


# sha256 of each subcommand's --help text at 80 columns, on Python 3.11. A
# change that claims no flag changed must leave these alone.
HELP_SHA256 = {
    "gen": "2893f120137bbc651f699376b1125374f22315f4f43cac2b70d9db681b2ba4af",
    "build": "9fda4688a7fa1bdbad345b6fcf2f8d8a5e86335a41de375161c01eb98d5dc647",
    "run": "96e232f53095f78905206a61642bc3577a8126e5af31522bd788431e35aaab6b",
    "compare": "92dd548886ed40a9b5327f95d3f7ac6a86aa1979a369893bc0df1db2a2641488",
    "inspect-table": "e67a257c15a8dd6e236f36f1b521c0dbe40341bf76a46ac56033f40113c8e76f",
}


class TestQuickstart:
    def test_artifacts_pinned(self, workspace):
        tmp_path, services, vms, trace = workspace
        inputs = ["--trace", str(trace), "--catalog", str(services), "--vm-catalog", str(vms)]
        table = str(tmp_path / "build" / "table.json")
        assert main(["build", *inputs, "--out", str(tmp_path / "build"), "--seed", "7"]) == 0
        for command, out in (("run", "run"), ("compare", "cmp")):
            assert main([command, *inputs, "--table", table,
                         "--out", str(tmp_path / out), "--seed", "7"]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in QUICKSTART_SHA256}
        assert got == QUICKSTART_SHA256

    def test_replays_pinned(self, workspace):
        # A gen --seed 2 trace replayed against the quickstart table misses
        # 20-23% of its periods and reclusters once, over the table's
        # patterns and the 20 misses.
        tmp_path, services, vms, trace = workspace
        inputs = ["--catalog", str(services), "--vm-catalog", str(vms)]
        online = tmp_path / "online.csv"
        assert main(["gen", "--services", "5", "--periods", "100", "--modes", "10",
                     "--seed", "2", "--out", str(online)]) == 0
        assert main(["build", "--trace", str(trace), *inputs,
                     "--out", str(tmp_path / "build"), "--seed", "7"]) == 0
        got = {}
        for extra in REPLAY_SHA256:
            out = tmp_path / "-".join(("run",) + extra)
            assert main(["run", "--trace", str(online), *inputs,
                         "--table", str(tmp_path / "build" / "table.json"),
                         "--out", str(out), "--seed", "7", *extra]) == 0
            got[extra] = hashlib.sha256((out / "simulation.csv").read_bytes()).hexdigest()
        assert got == REPLAY_SHA256


    def test_readme_library_example_builds_the_quickstart_table(self, workspace, capsys,
                                                                 monkeypatch):
        # The README's library example, run on the quickstart trace, fits
        # the table that the quickstart's `build --seed 7` writes.
        from packwise import save_table
        tmp_path, services, vms, trace = workspace
        assert main(["build", "--trace", str(trace), "--catalog", str(services),
                     "--vm-catalog", str(vms), "--out", str(tmp_path / "build"),
                     "--seed", "7"]) == 0
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = next(block for block in re.findall(r"^```python\n(.*?)^```", readme,
                                                     flags=re.M | re.S)
                       if "PackingAutoscaler(" in block)
        monkeypatch.chdir(tmp_path)      # the example reads trace.csv
        namespace = {}
        exec(example, namespace)
        save_table(namespace["model"].table_, tmp_path / "library.json")
        assert (tmp_path / "library.json").read_bytes() == \
            (tmp_path / "build" / "table.json").read_bytes()


class TestInspect:
    def test_prints_entries(self, workspace, capsys):
        tmp_path, services, vms, trace = workspace
        _, out = build(workspace)
        rc = main(["inspect-table", "--table", str(out / "table.json"),
                   "--catalog", str(services), "--vm-catalog", str(vms)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "entries:" in text
        assert "pattern=" in text

    # Edits of the quickstart table that load_table refuses: the keys to the
    # edited value and its new value.
    REFUSED_EDITS = {
        # Service 0 unhosted, at the same instances and the same cost.
        "misfit": (("entries", 0, "instances", 1, "assignment"), [0, 0, 0, 0, 1]),
        "nan-cost": (("entries", 0, "cost"), math.nan),
        "nan-pattern": (("entries", 0, "pattern", 0), math.nan),
        "bit-of-2": (("entries", 0, "instances", 0, "assignment", 0), 2),
        "threshold-5": (("threshold",), 5.0),
        "threshold-abc": (("threshold",), "abc"),
        "euclidean": (("similarity",), "euclidean"),
    }

    def test_refused_edits_exit_2_naming_the_file(self, workspace, capsys):
        tmp_path, services, vms, trace = workspace
        inputs = ["--catalog", str(services), "--vm-catalog", str(vms)]
        assert main(["build", "--trace", str(trace), *inputs,
                     "--out", str(tmp_path / "build"), "--seed", "7"]) == 0
        built = (tmp_path / "build" / "table.json").read_text()
        path = tmp_path / "edited.json"
        path.write_text(built)
        capsys.readouterr()
        assert main(["inspect-table", "--table", str(path), *inputs]) == 0
        assert "similarity: pearson" in capsys.readouterr().out
        for name, (keys, value) in self.REFUSED_EDITS.items():
            path.write_text(json.dumps(set_in(json.loads(built), keys, value)))
            capsys.readouterr()
            assert main(["inspect-table", "--table", str(path), *inputs]) == 2, name
            assert capsys.readouterr().err.startswith(f"error: {path}: "), name
            if name == "misfit":
                # run refuses it too, where it served it at a hit rate of 1.
                assert main(["run", "--trace", str(trace), *inputs, "--table", str(path),
                             "--out", str(tmp_path / "run")]) == 2
                assert not (tmp_path / "run").exists()


class TestUsage:
    def test_unknown_flag_nonzero_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--bogus"])
        assert exc.value.code != 0

    def test_all_subcommands_have_help(self):
        for cmd in ("gen", "build", "run", "compare", "inspect-table"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0

    def test_readme_flags_exist(self):
        # Every --flag of a `packwise <cmd>` command in README's fenced
        # blocks, continuation lines included, is a flag of <cmd>.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        fenced = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S))
        commands = re.findall(r"^packwise ([\w-]+)((?:.*\\\n)*.*)", fenced, flags=re.M)
        parsers = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
        assert {cmd for cmd, _ in commands} == set(parsers)
        for cmd, rest in commands:
            flags = set(re.findall(r"--[\w-]+", rest))
            assert flags <= set(parsers[cmd]._option_string_actions), (cmd, flags)
        # Every --flag in the prose is a flag of some subcommand, but for the
        # abbreviation and the key=value form the prose shows as non-flags.
        prose = re.sub(r"^```[^\n]*\n.*?^```", "", readme, flags=re.M | re.S)
        known = set().union(*(p._option_string_actions for p in parsers.values()))
        stray = set(re.findall(r"--[\w-]+", prose)) - known - {"--gen", "--key"}
        assert not stray, stray

    def test_help_pinned(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        got = {}
        for cmd in HELP_SHA256:
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            got[cmd] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == HELP_SHA256
