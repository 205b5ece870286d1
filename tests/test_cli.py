"""End-to-end command-line behavior: artifacts, CSV schema, exit codes."""

import concurrent.futures
import configparser
import csv
import importlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from oracles import hierarchical_lp_output, least_processing_lp

import hippp.cli
import hippp.evaluate
from hippp import architecture_edges
from hippp.cli import _DESIGN_FILE, CSV_HEADER, _read_design, _read_ini, _write_ini, load_config, main
from hippp.errors import ConfigError

BASE_CONFIG = """\
[supply]
mean_power = 1.0
std_power = 0.2
count = 9

[design]
num_layer1 = 3
num_rating_sets = 2
layer2_trial_ratings = 0.0 0.05 0.10
monte_carlo_trials = 8

[evaluate]
kinds = lshippp, cppp, fpp
trials = 8
rating_grid = 0.10 0.15
sigma_grid = 0.10 0.20
rating_budget = 0.15
seed = 0

[output]
directory = out
"""

N9_EDGES = ["0,8", "1,6", "2,5"]

# a five-battery config that designs and sweeps in a fraction of a second
TINY_CONFIG = ("[supply]\ncount = 5\n[design]\nnum_layer1 = 2\nlayer2_trial_ratings = 0.0 0.1\n"
               "[evaluate]\nrating_grid = 0.1 0.2\nsigma_grid = 0.1 0.2\n")

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment for a child interpreter: this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(BASE_CONFIG)
    return path


def run_main(*argv):
    return main([str(a) for a in argv])


class TestConfigLoading:
    def test_full_round_trip(self, config_file):
        cfg = load_config(str(config_file))
        assert cfg.supply.count == 9
        assert cfg.design.num_layer1 == 3
        assert [k.value for k in cfg.kinds] == ["lshippp", "cppp", "fpp"]
        assert cfg.rating_grid == (0.10, 0.15)
        assert cfg.sigma_grid == (0.10, 0.20)
        assert cfg.rating_budget == 0.15
        assert cfg.trials == 8
        assert cfg.directory == "out"

    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text("[supply]\ncount = 5\n")
        cfg = load_config(str(path))
        assert cfg.supply.count == 5
        assert cfg.supply.mean_power == 1.0
        assert cfg.trials == 1000
        assert cfg.converter_efficiency == 0.85
        assert len(cfg.rating_grid) == 10

    @pytest.mark.parametrize("text, message", [
        ("[supply]\nstd_power = banana\n", "[supply] std_power: cannot parse 'banana'"),
        ("[design]\nnum_layer1 = 4\nnum_layer1s = 4\n", "[design] num_layer1s: unknown key"),
        ("[desgin]\nnum_layer1 = 4\n", "[desgin] num_layer1: unknown key"),
        ("[supply]\ncount = 5\n[bogus]\ncount = 5\n", "[bogus] count: unknown key"),
        ("[bogus]\n", "[bogus]: unknown section"),
        ("[DEFAULT]\ncount = 5\n", "[DEFAULT] count: unknown key"),
        # an integer key takes an integer literal only: a float parse would round seeds above 2**53
        ("[supply]\ncount = 9.0\n", "[supply] count: cannot parse '9.0'"),
        # layer 1 stays sparse, checked at load against the supply's count
        ("[supply]\ncount = 3\n[design]\nnum_layer1 = 3\n", "[design] num_layer1: layer 1 must stay sparse"),
    ], ids=["unparsable", "unknown-key", "unknown-section", "unknown-section-key", "empty-unknown-section",
            "default-key", "float-count", "dense-layer1"])
    def test_bad_value_names_section_and_key(self, tmp_path, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as caught:
            load_config(str(path))
        assert str(caught.value).startswith(message)

    def test_unknown_architecture_is_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[evaluate]\nkinds = warp_drive\n")
        with pytest.raises(ConfigError, match=r"\[evaluate\] kinds"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))

    def test_a_semicolon_after_a_value_starts_a_comment(self, tmp_path):
        path = tmp_path / "commented.ini"
        path.write_text("[supply]\nmean_power = 1.5    ; expected battery power capability\ncount = 5 ; batteries\n")
        cfg = load_config(str(path))
        assert cfg.supply.mean_power == 1.5 and cfg.supply.count == 5

    @pytest.mark.parametrize("section, key", [("design", "base_seed"), ("evaluate", "seed")])
    def test_a_negative_seed_names_its_key(self, tmp_path, section, key):
        path = tmp_path / "negative.ini"
        path.write_text(f"[{section}]\n{key} = -1\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))

    @pytest.mark.parametrize("key, value", [
        ("kinds", "fpp, fpp"),
        ("kinds", ","),
        ("trials", "0"),
        ("converter_efficiency", "0"),
        ("converter_efficiency", "1.5"),
        ("rating_budget", "-0.1"),
        ("seed", "-1"),
        ("rating_grid", "0.2 0.1"),
        ("sigma_grid", "0.2 0.1"),
        ("sigma_grid", "0.1 1.0"),
        ("rating_grid", ""),
        ("sigma_grid", ""),
    ])
    def test_an_evaluate_value_refused_by_the_library_names_its_key(self, tmp_path, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[evaluate]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"^\[evaluate\] {key}: "):
            load_config(str(path))


class TestDesignCommand:
    def test_writes_the_design_artifact(self, config_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_main("design", "--config", config_file, "--out", out) == 0
        text = capsys.readouterr().out
        assert "design written to" in text
        assert "layer 1: 3 converters" in text

        parser = configparser.ConfigParser()
        parser.read(out / "design.txt")
        assert parser.getint("layer1", "count") == 3
        assert [parser.get("layer1", f"edge_{i}") for i in range(3)] == N9_EDGES
        ratings = [parser.getfloat("layer1", f"rating_{i}") for i in range(3)]
        assert ratings == pytest.approx(
            [0.2842688315594054, 0.1384887097521722, 0.1384887097521722], abs=1e-15
        )
        assert parser.getint("layer2", "count") == 8
        assert parser.getfloat("layer2", "rating") == pytest.approx(0.0985942186170313, abs=1e-12)
        assert parser.getint("supply", "count") == 9
        # the rating curve is stored alongside the chosen point
        assert parser.getfloat("layer2_curve", "rating_0") == 0.0
        assert 0.0 < parser.getfloat("layer2_curve", "utilization_0") <= 1.0

    @pytest.mark.parametrize("config, batteries, converters", [
        ("[design]\nmonte_carlo_trials = 8\n", 9, 3),
        ("[supply]\ncount = 16\n[design]\nnum_layer1 = 2\nmonte_carlo_trials = 8\n", 16, 2),
    ], ids=["readme-default", "n16-m2"])
    def test_the_design_file_reads_and_writes_back_to_its_bytes(self, tmp_path, config, batteries, converters):
        path = tmp_path / "experiment.ini"
        path.write_text(config)
        assert run_main("design", "--config", path, "--out", tmp_path) == 0
        written = (tmp_path / "design.txt").read_text(encoding="utf-8")
        again = io.StringIO()
        _write_ini(again, _DESIGN_FILE, _read_ini(str(tmp_path / "design.txt"), _DESIGN_FILE).values())
        assert again.getvalue() == written
        _read_design(str(tmp_path / "design.txt"))  # every key, [design] included, passes its checks
        # the keys in the order the format has always had, independent of the table
        parser = configparser.ConfigParser()
        parser.read_string(written)
        assert parser.getint("design", "num_layer1") == parser.getint("layer1", "count") == converters
        assert [(name, key) for name in parser.sections() for key in parser[name]] == (
            [("supply", key) for key in ("mean_power", "std_power", "count")]
            + [("design", key) for key in ("num_layer1", "num_rating_sets", "monte_carlo_trials", "base_seed",
                                           "rating_budget")]
            + [("expected_set", f"capability_{i}") for i in range(batteries)]
            + [("layer1", "count")]
            + [("layer1", f"{key}_{i}") for i in range(converters) for key in ("edge", "rating", "processed")]
            + [("layer2", "count"), ("layer2", "rating")]
            + [("layer2_curve", f"{key}_{i}") for i in range(10) for key in ("rating", "utilization")]
        )

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_main("design", "--config", config_file, "--out", out1) == 0
        assert run_main("design", "--config", config_file, "--out", out2) == 0
        assert (out1 / "design.txt").read_bytes() == (out2 / "design.txt").read_bytes()

    def test_the_seed_flag_sets_the_base_seed(self, config_file, tmp_path):
        by_flag, by_key = tmp_path / "flag", tmp_path / "key"
        assert run_main("design", "--config", config_file, "--out", by_flag, "--seed", 5) == 0
        config_file.write_text(BASE_CONFIG.replace("monte_carlo_trials = 8", "monte_carlo_trials = 8\nbase_seed = 5"))
        assert run_main("design", "--config", config_file, "--out", by_key) == 0
        assert (by_flag / "design.txt").read_bytes() == (by_key / "design.txt").read_bytes()
        assert load_config(str(config_file)).design.base_seed == 5

    def test_more_than_one_thread_exits_two(self, config_file, tmp_path, capsys):
        assert run_main("design", "--config", config_file, "--out", tmp_path / "o", "--threads", 2) == 2
        assert "config error: --threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSweepCommand:
    def test_writes_all_csvs_with_schema(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_main("sweep", "--config", config_file, "--out", out) == 0
        summary = capsys.readouterr().out
        for kind in ("lshippp", "cppp", "fpp"):
            assert f"[{kind}]" in summary

        names = [
            "utilization_vs_rating.csv", "efficiency_vs_rating.csv",
            "frontier.csv", "utilization_vs_heterogeneity.csv",
        ]
        for name in names:
            with open(out / name, newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == list(CSV_HEADER)
            assert len(rows) == 1 + 6  # 2 grid points x 3 kinds
            for row in rows[1:]:
                assert row[0] in {"lshippp", "cppp", "fpp"}
                assert int(row[3]) == 8 and int(row[4]) == 0
                util = float(row[5])
                assert 0.0 < util <= 1.0
                # six significant digits, no more
                assert row[5] == f"{util:.6g}"

        with open(out / "utilization_vs_heterogeneity.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert sorted({row[2] for row in rows}) == ["0.1", "0.2"]

    def test_rating_csvs_share_the_same_records(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        run_main("sweep", "--config", config_file, "--out", out)
        base = (out / "utilization_vs_rating.csv").read_bytes()
        assert (out / "frontier.csv").read_bytes() == base
        assert (out / "efficiency_vs_rating.csv").read_bytes() == base

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_main("sweep", "--config", config_file, "--out", out1)
        run_main("sweep", "--config", config_file, "--out", out2)
        for name in ("utilization_vs_rating.csv", "utilization_vs_heterogeneity.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_the_numbers(self, config_file, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_main("sweep", "--config", config_file, "--out", out1)
        run_main("sweep", "--config", config_file, "--out", out2, "--seed", 99)
        a = (out1 / "utilization_vs_rating.csv").read_bytes()
        b = (out2 / "utilization_vs_rating.csv").read_bytes()
        assert a != b

    def test_trials_override_lands_in_the_csv(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        run_main("sweep", "--config", config_file, "--out", out, "--trials", 5)
        with open(out / "utilization_vs_rating.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert all(int(row[3]) == 5 for row in rows)


    @staticmethod
    def record_pools(monkeypatch):
        """Worker counts of the process pools a sweep starts, in order."""
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        # the sweep imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return pools

    def test_more_threads_than_cells_write_the_same_csvs(self, tmp_path, monkeypatch):
        # two kinds at the supply's own spread: the four cells of both sweeps
        # form two groups (one layer-1 design, one ladder), one task each, and
        # a pool never starts more workers than there are tasks
        path = tmp_path / "two_cells.ini"
        path.write_text(
            BASE_CONFIG.replace("lshippp, cppp, fpp", "lshippp, cppp")
            .replace("rating_grid = 0.10 0.15", "rating_grid = 0.15")
            .replace("sigma_grid = 0.10 0.20", "sigma_grid = 0.20")
        )
        pools = self.record_pools(monkeypatch)
        out1, out5 = tmp_path / "t1", tmp_path / "t5"
        assert run_main("sweep", "--config", path, "--out", out1, "--threads", 1) == 0
        assert run_main("sweep", "--config", path, "--out", out5, "--threads", 5) == 0
        assert pools == [2]
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out5.iterdir()) and len(names) == 4
        for name in names:
            assert (out1 / name).read_bytes() == (out5 / name).read_bytes()

    def test_thread_counts_write_the_same_csvs(self, config_file, tmp_path, monkeypatch):
        # three kinds at two spreads: four groups (a layer-1 design per
        # spread, the ladder, full processing) over 12 cells
        pools = self.record_pools(monkeypatch)
        outs = [tmp_path / f"t{threads}" for threads in (1, 2, 5)]
        for threads, out in zip((1, 2, 5), outs):
            assert run_main("sweep", "--config", config_file, "--out", out, "--threads", threads) == 0
        assert pools == [2, 4]
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 4
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()


class TestFlowCommand:
    def test_round_trip_from_design_artifact(self, config_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        run_main("design", "--config", config_file, "--out", out)
        capsys.readouterr()
        caps = tmp_path / "caps.txt"
        caps.write_text(
            "0.9 1.1 0.95\n"
            "1.0 1.05 0.8  # strongest three follow\n"
            "1.2 0.85 1.0\n"
        )
        assert run_main("flow", out / "design.txt", caps) == 0
        text = capsys.readouterr().out
        assert "batteries: 9" in text
        assert text.index("0.8 0.85 0.9") > text.index("capabilities (sorted):")
        assert "string current:" in text
        assert "output power:" in text
        assert "processed power:" in text
        assert "layer 1 converter 0->8" in text
        assert "layer 2 converter 0->1" in text
        assert "battery powers:" in text

    def test_round_trip_prints_the_lp_output_and_processed_power(self, config_file, tmp_path, capsys):
        # the per-edge flows may be another least-processing optimum than the
        # LP's vertex, but output and processed power are unique
        out = tmp_path / "artifacts"
        run_main("design", "--config", config_file, "--out", out)
        capsys.readouterr()
        caps = tmp_path / "caps.txt"
        caps.write_text("0.9 1.1 0.95 1.0 1.05 0.8 1.2 0.85 1.0\n")
        assert run_main("flow", out / "design.txt", caps) == 0
        lines = capsys.readouterr().out.splitlines()

        _, arch = _read_design(str(out / "design.txt"))
        values = np.sort(np.loadtxt(caps))
        output = hierarchical_lp_output(values, arch)
        edges = architecture_edges(arch)
        processed, _, _ = least_processing_lp(
            values, [(e.from_battery, e.to_battery) for e in edges],
            [e.rating for e in edges], output / values.size,
        )
        assert f"output power: {output:.6g} (utilization {output / values.sum():.6g})" in lines
        assert f"processed power: {processed:.6g}" in lines

    @pytest.mark.parametrize("text, message", [
        ("1.0 1.0 1.0\n", "got 3 capabilities for 9 batteries"),
        ("# no values\n", "capabilities must be a non-empty vector"),
    ])
    def test_wrong_capability_count_is_a_config_error(self, config_file, tmp_path, capsys, text, message):
        # optimal_flow's one capability check, under the file's name
        out = tmp_path / "artifacts"
        run_main("design", "--config", config_file, "--out", out)
        caps = tmp_path / "caps.txt"
        caps.write_text(text)
        assert run_main("flow", out / "design.txt", caps) == 2
        assert f"config error: capabilities {caps}: {message}" in capsys.readouterr().err

    def test_nonpositive_capability_is_a_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        run_main("design", "--config", config_file, "--out", out)
        caps = tmp_path / "caps.txt"
        caps.write_text("1.0 -1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0\n")
        assert run_main("flow", out / "design.txt", caps) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_a_non_finite_capability_names_the_file(self, config_file, tmp_path, capsys, value):
        out = tmp_path / "artifacts"
        run_main("design", "--config", config_file, "--out", out)
        caps = tmp_path / "caps.txt"
        caps.write_text(f"1.0 {value} 1.0 1.0 1.0 1.0 1.0 1.0 1.0\n")
        assert run_main("flow", out / "design.txt", caps) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and str(caps) in err and "positive and finite" in err

    @staticmethod
    def flow_with_design_value(config_file, tmp_path, capsys, section, key, value, also=None):
        """Exit code and stderr of `hippp flow` on a fresh design whose [section] `key` reads `value`, or lacks
        `key` if `value` is None; `also` maps more sections to keys and values to set."""
        out = tmp_path / "artifacts"
        run_main("design", "--config", config_file, "--out", out)
        design = configparser.ConfigParser()
        design.read(out / "design.txt")
        if value is None:
            del design[section][key]
        else:
            design.read_dict({section: {key: value}})  # a new section, or [DEFAULT], too
        design.read_dict(also or {})
        with open(out / "design.txt", "w") as handle:
            design.write(handle)
        caps = tmp_path / "caps.txt"
        caps.write_text("0.9 1.1 0.95 1.0 1.05 0.8 1.2 0.85 1.0\n")
        capsys.readouterr()
        return run_main("flow", out / "design.txt", caps), capsys.readouterr().err

    @pytest.mark.parametrize("count", ["7", "9"])
    def test_a_wrong_layer2_count_names_its_key(self, config_file, tmp_path, capsys, count):
        code, err = self.flow_with_design_value(config_file, tmp_path, capsys, "layer2", "count", count)
        design = tmp_path / "artifacts" / "design.txt"
        assert code == 2 and f"config error: design {design}: [layer2] count: a 9-battery ladder has 8 rungs" in err

    @pytest.mark.parametrize("rating", ["-0.1", "nan"])
    def test_a_negative_or_nan_layer2_rating_is_a_config_error(self, config_file, tmp_path, capsys, rating):
        code, err = self.flow_with_design_value(config_file, tmp_path, capsys, "layer2", "rating", rating)
        design = tmp_path / "artifacts" / "design.txt"
        assert code == 2 and f"config error: design {design}: [layer2] rating: rating must be non-negative" in err

    @pytest.mark.parametrize("key", ["rating_0", "rating_2"])
    @pytest.mark.parametrize("rating", ["-0.1", "nan"])
    def test_a_negative_or_nan_layer1_rating_names_the_file_and_the_key(self, config_file, tmp_path, capsys, key,
                                                                        rating):
        code, err = self.flow_with_design_value(config_file, tmp_path, capsys, "layer1", key, rating)
        design = tmp_path / "artifacts" / "design.txt"
        assert code == 2 and f"config error: design {design}: [layer1] {key}: rating must be non-negative" in err

    @pytest.mark.parametrize("section, key, value", [
        ("design", "num_rating_sets", "0"),
        ("supply", "mean_power", "-1.0"),
        ("layer1", "processed_0", "nan"),
        ("layer1", "processed_1", "inf"),
        ("layer1", "processed_2", "-0.1"),
        ("expected_set", "capability_0", "nan"),
        ("expected_set", "capability_3", "-2.0"),
        ("expected_set", "capability_0", "1.5"),  # above its neighbours: out of order
        ("layer2_curve", "utilization_1", "-7.0"),
        ("layer2_curve", "rating_1", "nan"),
        ("layer2_curve", "rating_2", "inf"),  # the last rating: still increasing
    ])
    def test_a_bad_design_value_names_the_file_and_the_section(self, config_file, tmp_path, capsys, section, key,
                                                              value):
        code, err = self.flow_with_design_value(config_file, tmp_path, capsys, section, key, value)
        design = tmp_path / "artifacts" / "design.txt"
        assert code == 2 and f"config error: design {design}: [{section}]" in err

    def test_a_bad_design_edge_names_the_file_and_the_key(self, config_file, tmp_path, capsys):
        code, err = self.flow_with_design_value(config_file, tmp_path, capsys, "layer1", "edge_1", "4,4")
        design = tmp_path / "artifacts" / "design.txt"
        assert code == 2 and f"config error: design {design}: [layer1] edge_1: converter endpoints must differ" in err

    @pytest.mark.parametrize("section, key, value, message", [
        ("layer1", "edge_0", "0;8", "[layer1] edge_0: cannot parse '0;8'"),  # an unparsable edge
        ("layer1", "processed_1", "abc", "[layer1] processed_1: cannot parse 'abc'"),  # an unparsable key
        ("supply", "count", None, "[supply] count: required key is missing"),  # a missing key
        ("expected_set", "capability_8", None, "[expected_set] capability_8: required key is missing"),
        ("layer1", "count", "2", "[layer1] edge_2: unknown key"),  # a key past its section's count
        ("layer2", "extra", "1", "[layer2] extra: unknown key"),
        ("bogus", "extra", "1", "[bogus] extra: unknown key"),
        ("DEFAULT", "extra", "1", "[DEFAULT] extra: unknown key"),
    ], ids=["edge", "unparsable-key", "missing-key", "missing-indexed-key", "past-count", "unknown-key",
            "unknown-section", "default-key"])
    def test_an_unparsable_or_missing_design_key_names_the_file(self, config_file, tmp_path, capsys, section, key,
                                                                value, message):
        # past-count: [design] num_layer1 follows [layer1] count, which must equal it
        also = {"design": {"num_layer1": value}} if (section, key) == ("layer1", "count") else None
        code, err = self.flow_with_design_value(config_file, tmp_path, capsys, section, key, value, also)
        design = tmp_path / "artifacts" / "design.txt"
        assert code == 2 and f"config error: design {design}: {message}" in err

    @pytest.mark.parametrize("section, key, value, message", [
        ("design", "num_layer1", "20", "[design] num_layer1: layer 1 must stay sparse: at most count - 1 = 8"),
        ("design", "num_layer1", "0", "[design] num_layer1: num_layer1 must be a positive integer, got 0"),
        ("design", "monte_carlo_trials", "-5",
         "[design] monte_carlo_trials: monte_carlo_trials must be a positive integer, got -5"),
        ("design", "base_seed", "-7", "[design] base_seed: base_seed must be a non-negative integer, got -7"),
        ("design", "rating_budget", "nan", "[design] rating_budget: rating budget must be non-negative and finite"),
        # [design] is read first, so its agreement with [layer1] count is checked on the later key
        ("design", "num_layer1", "2", "[layer1] count: layer 1 lists 3 converters, but [design] num_layer1 = 2"),
        ("layer1", "count", "2", "[layer1] count: layer 1 lists 2 converters, but [design] num_layer1 = 3"),
    ], ids=["dense", "no-layer1", "negative-trials", "negative-seed", "nan-budget", "fewer-placed",
            "fewer-listed"])
    def test_a_bad_design_section_value_names_the_file_and_the_key(self, config_file, tmp_path, capsys, section,
                                                                     key, value, message):
        # the [design] section is held to the config's rules and to the [layer1] converters it describes
        code, err = self.flow_with_design_value(config_file, tmp_path, capsys, section, key, value)
        design = tmp_path / "artifacts" / "design.txt"
        assert code == 2 and f"config error: design {design}: {message}" in err

    def test_missing_design_file(self, tmp_path, capsys):
        caps = tmp_path / "caps.txt"
        caps.write_text("1.0\n")
        assert run_main("flow", tmp_path / "absent.txt", caps) == 2
        assert f"config error: design {tmp_path / 'absent.txt'}: cannot read" in capsys.readouterr().err


class TestExitCodes:
    def test_enumeration_blowup_is_a_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "huge.ini"
        path.write_text(
            "[supply]\ncount = 10\n"
            "[design]\nnum_layer1 = 6\nmonte_carlo_trials = 2\n"
        )
        assert run_main("design", "--config", path, "--out", tmp_path / "o") == 3
        assert "runtime error:" in capsys.readouterr().err

    def test_invalid_trials_override(self, config_file, tmp_path, capsys):
        code = run_main("sweep", "--config", config_file, "--out", tmp_path, "--trials", 0)
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_invalid_thread_count(self, config_file, tmp_path, capsys):
        code = run_main("sweep", "--config", config_file, "--out", tmp_path, "--threads", 0)
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_an_infinite_trial_rating_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "inf.ini"
        path.write_text("[design]\nnum_layer1 = 2\nlayer2_trial_ratings = 0 inf\nmonte_carlo_trials = 2\n")
        assert run_main("design", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error: [design]: layer2_trial_ratings values must be non-negative and finite" in err
        assert not (tmp_path / "o").exists()

    def test_nan_trial_rating_is_a_config_error(self, tmp_path, capsys):
        # NaN passes every ordered comparison as False, so it must be refused
        # before the layer-1 search runs, not deep inside the layer-2 curve
        path = tmp_path / "nan.ini"
        path.write_text("[design]\nnum_layer1 = 2\nlayer2_trial_ratings = 0.0 nan\nmonte_carlo_trials = 2\n")
        assert run_main("design", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "layer2_trial_ratings" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("design", "rating_budget", "nan"),
        ("sweep", "rating_budget", "nan"),
        ("sweep", "rating_grid", "0.05 nan"),
        ("sweep", "rating_grid", "nan 0.05"),
        ("sweep", "sigma_grid", "0.1 nan"),
    ])
    def test_nan_evaluate_value_is_a_config_error(
        self, config_file, tmp_path, capsys, monkeypatch, command, key, value
    ):
        self.assert_refused_at_load(config_file, tmp_path, capsys, monkeypatch, command, key, value)

    @pytest.mark.parametrize("command, key, value", [
        ("design", "rating_budget", "inf"),
        ("sweep", "rating_budget", "inf"),
        ("design", "rating_budget", "-inf"),
        ("sweep", "rating_grid", "0.1 inf"),
        ("sweep", "sigma_grid", "0.1 inf"),
    ])
    def test_infinite_evaluate_value_is_a_config_error(
        self, config_file, tmp_path, capsys, monkeypatch, command, key, value
    ):
        self.assert_refused_at_load(config_file, tmp_path, capsys, monkeypatch, command, key, value)

    @staticmethod
    def assert_refused_at_load(config_file, tmp_path, capsys, monkeypatch, command, key, value):
        # refused at load, before the layer-1 search, naming the key
        def no_search(expected, cfg):
            raise AssertionError("the layer-1 search ran before the config was checked")

        monkeypatch.setattr(hippp.cli, "design_layer1", no_search)
        monkeypatch.setattr(hippp.evaluate, "design_layer1", no_search)
        text = "".join(
            f"{key} = {value}\n" if line.startswith(f"{key} =") else line
            for line in BASE_CONFIG.splitlines(keepends=True)
        )
        config_file.write_text(text)
        assert run_main(command, "--config", config_file, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"[evaluate] {key}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["design", "sweep"])
    @pytest.mark.parametrize("section, key", [("design", "base_seed"), ("evaluate", "seed"), (None, "--seed")])
    def test_a_negative_seed_is_a_config_error(self, config_file, tmp_path, capsys, command, section, key):
        # refused with exit 2, naming the key, instead of failing inside the generator
        if section is None:
            code = run_main(command, "--config", config_file, "--out", tmp_path / "o", "--seed", -3)
        else:
            parser = configparser.ConfigParser()
            parser.read_string(BASE_CONFIG)
            parser[section][key] = "-3"
            with open(config_file, "w", encoding="utf-8") as handle:
                parser.write(handle)
            code = run_main(command, "--config", config_file, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["design", "sweep"])
    @pytest.mark.parametrize("sigma", ["1e-17", "1e-6"])
    def test_a_spread_too_small_to_flatten_is_a_config_error(self, config_file, tmp_path, capsys, command, sigma):
        # it used to pass the load and fail flatten's interval-mass check with exit 3
        config_file.write_text(BASE_CONFIG.replace("std_power = 0.2", f"std_power = {sigma}"))
        assert run_main(command, "--config", config_file, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "std_power" in err
        assert not (tmp_path / "o").exists()

    def test_a_sigma_grid_spread_too_small_to_flatten_exits_two(self, config_file, tmp_path, capsys):
        config_file.write_text(BASE_CONFIG.replace("sigma_grid = 0.10 0.20", "sigma_grid = 1e-7 0.20"))
        assert run_main("sweep", "--config", config_file, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "std_power" in err
        assert "[evaluate] sigma_grid" in err
        # refused at load, with BatterySupply's arithmetic: the floor itself and 0 pass
        with pytest.raises(ConfigError, match=r"\[evaluate\] sigma_grid"):
            load_config(str(config_file))
        config_file.write_text(BASE_CONFIG.replace("sigma_grid = 0.10 0.20", "sigma_grid = 0 0.001"))
        assert load_config(str(config_file)).sigma_grid == (0.0, 0.001)

    @pytest.mark.parametrize("command, old, new, key", [
        ("sweep", "sigma_grid = 0.1 0.2", "sigma_grid = 0.1 0.9", "[evaluate] sigma_grid"),
        ("design", "count = 5", "count = 5\nstd_power = 0.9", "[supply]"),
        ("sweep", "count = 5", "count = 5\nstd_power = 0.9", "[supply]"),
    ])
    def test_a_spread_that_drowns_the_weakest_slot_is_refused_at_load(self, tmp_path, capsys, command, old, new,
                                                                      key):
        # on five batteries a spread of 0.9 leaves the weakest slot a negative mean; it used to fail in the run
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_CONFIG.replace(old, new))
        assert run_main(command, "--config", config, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: std_power too large for this count: weakest slot mean is not positive" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, blocked", [
        ("design", None), ("sweep", None), ("design", "design.txt"), ("sweep", "frontier.csv"),
    ])
    def test_an_output_path_that_cannot_be_written_exits_two(self, tmp_path, capsys, monkeypatch, command, blocked):
        # a file where the output directory goes is refused before the layer-1 search, and a
        # directory where an output file goes when the file is written; each names the path
        out = tmp_path / "o"
        if blocked is None:
            out.write_text("")

            def no_search(expected, cfg):
                raise AssertionError("the layer-1 search ran before the output directory was made")

            monkeypatch.setattr(hippp.cli, "design_layer1", no_search)
            monkeypatch.setattr(hippp.evaluate, "design_layer1", no_search)
        else:
            (out / blocked).mkdir(parents=True)
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_CONFIG)
        assert run_main(command, "--config", config, "--out", out, "--trials", 5) == 2
        path = out if blocked is None else out / blocked
        assert f"config error: cannot write {path}: " in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[evaluate]\ntrials = -4\n")
        assert run_main("sweep", "--config", path, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "[evaluate] trials" in err


class TestModuleEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "hippp", "--help"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert result.returncode == 0
        for command in ("design", "sweep", "flow"):
            assert command in result.stdout

    def test_missing_config_flag_exits_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "hippp", "design"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert result.returncode == 2

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_a_closed_standard_output_exits_one_without_a_traceback(self, config_file, tmp_path, buffered):
        # as `hippp flow ... | head` does once head has read its lines; buffered, the report
        # reaches the pipe at the flush, unbuffered at its first print
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        out = tmp_path / "artifacts"
        assert run_main("design", "--config", config_file, "--out", out) == 0
        caps = tmp_path / "caps.txt"
        caps.write_text("0.9 1.1 0.95 1.0 1.05 0.8 1.2 0.85 1.0\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "hippp", "flow", str(out / "design.txt"), str(caps)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in result.stderr
        assert result.returncode == 1


class TestLogging:
    def test_each_main_call_reads_hippp_log(self, tmp_path):
        # three calls in one fresh process: warning, debug, warning again; each call's stderr ends at a marker
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_CONFIG)
        script = (
            "import os, sys\n"
            "from hippp.cli import main\n"
            "for level in ('warning', 'debug', 'warning'):\n"
            "    os.environ['HIPPP_LOG'] = level\n"
            "    assert main(['design', '--config', sys.argv[1], '--out', sys.argv[2], '--trials', '5']) == 0\n"
            "    print('end of call', file=sys.stderr, flush=True)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        first, debug, last, tail = result.stderr.split("end of call\n")
        assert first == last == tail == ""
        lines = debug.splitlines()
        # the format of a fresh process's first call
        assert all(line.startswith("DEBUG hippp.") for line in lines)
        assert any(line.startswith("DEBUG hippp.lp: LP stack") for line in lines)


def openblas_configuration():
    """The BLAS numpy reports, and whether it is OpenBLAS built to pick its kernels by CPU at load."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    configuration = blas.get("openblas configuration", "")
    found = f"{blas.get('name', 'an unknown BLAS')} {configuration}".strip()
    return found, "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in configuration.split()


class TestBlasKernels:
    # Prescott runs OpenBLAS's old generic kernels (it reports itself as Katmai)
    CORES = (None, "Haswell", "Prescott")
    # TINY_CONFIG is the CI step's tiny.ini. Its two-point layer-2 curve keeps its bytes under every core. The
    # default ten trial ratings do not: at N=5 and 20 trials, cores without FMA (Prescott, Sandybridge, Nehalem)
    # move the last digit of the curve point at 0.04, through the matmuls of the simplex in lp.py

    def outputs(self, directory, core):
        """Every byte a tiny `hippp design` and `hippp sweep` print and write, with OpenBLAS held to `core`."""
        directory.mkdir()
        (directory / "tiny.ini").write_text(TINY_CONFIG)
        env = child_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        printed = {}
        for command in ("design", "sweep"):
            result = subprocess.run(
                [sys.executable, "-m", "hippp", command, "--config", "tiny.ini", "--out", "out", "--trials", "20"],
                cwd=directory, capture_output=True, env=env, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            printed[command] = result.stdout
        return printed, {path.name: path.read_bytes() for path in sorted((directory / "out").iterdir())}

    def test_a_tiny_design_and_sweep_keep_their_bytes_under_each_kernel(self, tmp_path):
        found, dynamic = openblas_configuration()
        if not dynamic:
            pytest.skip(f"needs OpenBLAS built with DYNAMIC_ARCH; numpy reports {found}")
        default, *forced = (self.outputs(tmp_path / (core or "default"), core) for core in self.CORES)
        assert len(default[1]) == 5  # design.txt and the sweep's four CSVs
        for core, outputs in zip(self.CORES[1:], forced):
            assert outputs == default, core


class TestImportCost:
    def test_import_leaves_scipy_out(self):
        # scipy.special alone took 0.29 s to import, ten times a small sweep;
        # scipy is a test dependency only
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, hippp; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_leaves_multiprocessing_out(self):
        # the process pool of a multi-worker sweep pulls in multiprocessing,
        # subprocess and socket; a one-process run never needs them
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, hippp; print([m for m in sys.modules if m.split('.')[0] == 'multiprocessing'])"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("module", ["hippp", "hippp.cli"])
    def test_import_leaves_dataclasses_out(self, module):
        # the records are named tuples: @dataclass would generate and compile
        # six methods per record class at import
        result = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print('dataclasses' in sys.modules)"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_cli_call_imports_no_module(self, tmp_path, monkeypatch):
        # everything a call needs is imported with hippp.cli, so that import
        # time never lands inside a timed call (numpy.random, for one, loads
        # lazily on first use)
        monkeypatch.syspath_prepend(str(BENCH))
        spec = importlib.import_module("run").WORKLOADS["sweep-n9"]
        config = tmp_path / "sweep-n9.ini"
        config.write_text(spec.config.format(seed=0), encoding="utf-8")
        argv = spec.argv(config, tmp_path / "out", 0)
        report = tmp_path / "imported.json"
        script = (
            "import json, sys\n"
            "import hippp.cli\n"
            "before = set(sys.modules)\n"
            "code = hippp.cli.main(json.loads(sys.argv[1]))\n"
            "with open(sys.argv[2], 'w') as f:\n"
            "    json.dump([code, sorted(set(sys.modules) - before)], f)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv), str(report)],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        code, imported = json.loads(report.read_text(encoding="utf-8"))
        assert code == 0
        assert imported == []


RECORDED_DIGESTS = json.loads((BENCH / "reference_digests.json").read_text(encoding="utf-8"))


class TestBenchmarkOutputs:
    @pytest.mark.parametrize("name, seed", [
        (name, seed) for name, entry in sorted(RECORDED_DIGESTS.items()) for seed in sorted(entry["digests"], key=int)
    ])
    def test_workloads_reproduce_the_recorded_digests(self, name, seed, tmp_path, monkeypatch):
        # each of the benchmark's CLI calls at every recorded seed, in process;
        # any engine change that alters a printed number fails here
        monkeypatch.syspath_prepend(str(BENCH))
        bench_run = importlib.import_module("run")
        spec, entry = bench_run.WORKLOADS[name], RECORDED_DIGESTS[name]
        assert entry["fingerprint"] == spec.fingerprint()
        config = tmp_path / f"{name}.ini"
        config.write_text(spec.config.format(seed=seed), encoding="utf-8")
        out_dir = tmp_path / name
        assert main(spec.argv(config, out_dir, int(seed))) == 0
        assert bench_run.output_digest(spec.command, out_dir) == entry["digests"][seed]

    def test_every_workload_has_recorded_digests(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        assert sorted(importlib.import_module("run").WORKLOADS) == sorted(RECORDED_DIGESTS)
