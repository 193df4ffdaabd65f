import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rough_gauss import cameron_martin, covariance, regularity, simulate
from rough_gauss.cli import EXPERIMENTS, FIELDS, ExperimentConfig, _kwargs, _spec, main
from rough_gauss.path_lift import PiecewisePath, write_path_csv

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
SRC = Path(__file__).resolve().parents[1] / "src" / "rough_gauss"

# the library function each experiment forwards its set fields to
LIBRARY = {
    "level2-variance": simulate.level2_variance_check,
    "level-bounds": simulate.level_bounds_check,
    "dyadic-convergence": simulate.dyadic_convergence,
    "perturbation": simulate.perturbation_continuity,
    "fernique": simulate.fernique_tail,
    "young-wiener": simulate.young_wiener_check,
    "weak-limit": simulate.weak_limit_fbm,
    "cm-embedding": cameron_martin.embedding_check,
    "grr": regularity.grr_holder_check,
    "coutin-qian": covariance.coutin_qian_check,
}


def _run(*argv):
    return main(list(argv))


def _run_threaded(out: Path, threads: str, experiment: str, *argv) -> list:
    """Report and table bytes of one run in a fresh interpreter with
    ``threads`` OpenBLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rough_gauss.cli", "run", experiment, *argv,
         "--out-dir", str(out)],
        env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [(out / f"{experiment}_{kind}").read_bytes() for kind in ("report.json", "table.csv")]


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestConfig:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"experiment": "grr", "bogus": 1})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig.from_dict({"experiment": "nope"})

    def test_lists_frozen_to_tuples(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "weak-limit", "h_ladder": [0.45, 0.5]})
        assert cfg.h_ladder == (0.45, 0.5)

    def test_missing_experiment(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentConfig.from_dict({"kernel": "bm"})

    def test_seed_range(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed"):
                ExperimentConfig.from_dict({"experiment": "grr", "seed": seed})
        cfg = ExperimentConfig.from_dict({"experiment": "grr", "seed": 2 ** 64 - 1})
        assert cfg.seed == 2 ** 64 - 1

    def test_integer_fields_reject_fractions(self):
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig.from_dict({"experiment": "grr", "samples": 2.7})
        cfg = ExperimentConfig.from_dict({"experiment": "grr", "samples": 200.0})
        assert cfg.samples == 200 and type(cfg.samples) is int

    def test_numbers_coerced_to_field_types(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "perturbation", "p": 3, "epsilons": [1, 0.5],
             "grid_level": 4.0})
        assert cfg.p == 3.0 and type(cfg.p) is float
        assert cfg.epsilons == (1.0, 0.5)
        assert all(type(e) is float for e in cfg.epsilons)
        assert type(cfg.grid_level) is int
        cfg = ExperimentConfig.from_dict(
            {"experiment": "dyadic-convergence", "levels": [3.0, 4]})
        assert cfg.levels == (3, 4) and all(type(v) is int for v in cfg.levels)

    @pytest.mark.parametrize("field, value", [
        ("samples", "many"), ("samples", True), ("samples", float("inf")),
        ("p", float("nan")), ("p", 10 ** 400), ("p", [2.5]), ("epsilons", 0.1), ("epsilons", [0.1, "x"]),
        ("epsilons", []),
    ])
    def test_non_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict(
                {"experiment": "perturbation", field: value})

    def test_unread_fields_rejected(self):
        with pytest.raises(ValueError, match=r"does not read .*'kernel'"):
            ExperimentConfig.from_dict(
                {"experiment": "weak-limit", "kernel": "fbm:H=0.2"})
        # the dataclass default of an unread field is not a given key
        cfg = ExperimentConfig.from_dict({"experiment": "weak-limit"})
        assert cfg.to_dict()["kernel"] == "bm"

    def test_only_set_fields_forwarded(self):
        cfg = ExperimentConfig.from_dict({"experiment": "level2-variance"})
        assert _kwargs(cfg) == {}
        cfg = ExperimentConfig.from_dict(
            {"experiment": "level2-variance", "samples": 50, "dim": 3})
        assert _kwargs(cfg) == {"n": 50}
        cfg = ExperimentConfig.from_dict({"experiment": "fernique", "p": 3.1})
        assert _kwargs(cfg, p=2.5) == {"p": 3.1}

    @pytest.mark.parametrize("data, p", [
        ({"kernel": "bm"}, 2.5),
        ({"kernel": "fbm:H=0.4"}, 2.8),
        ({"kernel": "bm", "kernel2": "fbm:H=0.45"}, 2.5),
    ])
    def test_rough_p_default_kept_where_valid(self, data, p):
        cfg = ExperimentConfig.from_dict({"experiment": "fernique", **data})
        assert simulate._rough_p(_spec(cfg), cfg.p) == p

    def test_fields_table_matches_experiments_and_library(self):
        assert set(FIELDS) == set(EXPERIMENTS)
        known = set(ExperimentConfig.__dataclass_fields__)
        for experiment, fields in FIELDS.items():
            assert set(fields) <= known, experiment
            forwarded = {kw for kw in fields.values() if kw is not None}
            if experiment not in LIBRARY:
                assert not forwarded, experiment
                continue
            params = inspect.signature(LIBRARY[experiment]).parameters
            assert forwarded <= set(params), experiment


class TestRun:
    def test_artifacts_and_echo(self, tmp_path, capsys):
        rc = _run("run", "variation", "--kernel", "fbm:H=0.4",
                  "--out-dir", str(tmp_path), "--set", "grid_intervals=6")
        assert rc == 0
        report = _read(tmp_path / "variation_report.json")
        assert report["config"]["kernel"] == "fbm:H=0.4"
        assert report["config"]["grid_intervals"] == 6
        assert report["tool"]["name"] == "rough-gauss"
        assert report["ok"] and all(c["ok"] for c in report["checks"])
        table = (tmp_path / "variation_table.csv").read_text()
        assert table.splitlines()[0] == "mode,value,exact"
        meta = _read(tmp_path / "variation_run_meta.json")
        assert meta["wall_clock_s"] > 0
        assert meta["blas_pinned"] is (simulate._OPENBLAS is not None)
        assert "wall_clock_s" not in json.dumps(report)

    def test_sidecar_records_unpinned_blas(self, tmp_path, monkeypatch, capsys):
        # where _openblas() finds no thread setters, the thread count is left
        # alone and the sidecar says so; the report does not change
        monkeypatch.setattr(simulate, "_OPENBLAS", None)
        assert _run("run", "variation", "--out-dir", str(tmp_path),
                    "--set", "grid_intervals=6") == 0
        assert _read(tmp_path / "variation_run_meta.json")["blas_pinned"] is False
        assert "blas_pinned" not in (tmp_path / "variation_report.json").read_text()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "coutin-qian", "kernel": "fbm:H=0.35", "seed": 1}))
        rc = _run("run", str(cfg), "--seed", "9", "--out-dir", str(tmp_path))
        assert rc == 0
        report = _read(tmp_path / "coutin-qian_report.json")
        assert report["seed"] == 9 and report["config"]["seed"] == 9

    def test_unknown_field_exit1_no_partial_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "grr", "bogus": 1}))
        out = tmp_path / "out"
        rc = _run("run", str(cfg), "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()
        assert "unknown config fields" in capsys.readouterr().err

    def test_malformed_json_exit1(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert _run("run", str(cfg), "--out-dir", str(tmp_path / "o")) == 1

    def test_unread_fields_exit1_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run("run", "variation", "--set", "band=0.5", "--set", "H=0.3",
                  "--set", "integrand=zzz", "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "does not read" in err
        assert all(f"'{f}'" in err for f in ("band", "H", "integrand"))

    def test_unread_kernel_flag_exit1(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run("run", "weak-limit", "--kernel", "fbm:H=0.2",
                  "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()
        assert "'kernel'" in capsys.readouterr().err

    def test_negative_seed_exit1(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run("run", "level2-variance", "--seed", "-1",
                  "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()
        assert "seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("weak-limit", "--set", "h_ladder=[0.45,0.7]"), "at most 1/2"),
        (("level-bounds", "--grid", "2"), "interval levels"),
        (("level2-variance", "--workers", "0"), "workers must be an integer >= 1"),
        (("young2d", "--set", "levels=0"), "need levels >= 1"),
        (("level2-variance", "--set", "interval=[0.5]"), "two numbers"),
        (("dyadic-convergence", "--set", "levels=[3]"), "two distinct levels"),
        (("variation", "--set", "mode=banana"), "mode must be"),
        (("variation", "--set", "grid_intervals=20", "--set", "mode=exact"),
         "exact mode needs <= 16 intervals"),
        (("dyadic-convergence", "--set", "levels=3"), "levels must be a list of integers"),
        (("young2d", "--set", "levels=12"), "levels=12 refines the 8 x 8 grid"),
        (("chaos-ratio", "--samples", "1"), "at least two samples"),
        (("fernique", "--samples", "1"), "at least two samples"),
        (("perturbation", "--samples", "1"), "at least two samples"),
        (("dyadic-convergence", "--samples", "1"), "at least two samples"),
        (("weak-limit", "--set", "h_ladder=[0.5]"), "at least two rungs"),
        (("level2-variance", "--set", "band=-1"), "band must be >= 0"),
        (("young-wiener", "--set", "band=-0.5"), "band must be >= 0"),
        (("level2-variance", "--set", "dim=1"), "needs two components"),
        (("weak-limit", "--grid", "0"), "grid_level must be >= 1"),
        (("level2-variance", "--grid", "-1"), "grid_level must be >= 0"),
        (("dyadic-convergence", "--set", "levels=[-1,1]"), "levels must be >= 0"),
        (("cm-embedding", "--set", "grid_intervals=0"), "grid_intervals must be >= 1"),
        (("variation", "--set", "grid_intervals=0"), "grid_intervals must be >= 1"),
        (("young2d", "--set", "grid_intervals=-1"), "grid_intervals must be >= 1"),
        (("dyadic-convergence", "--set", "p=0.5"), "p must be finite and >= 1"),
        (("young-wiener", "--set", "q=0.5"), "q must be finite and >= 1"),
        (("variation", "--kernel", "ou:theta=nan"), "theta must be finite"),
        (("level2-variance", "--grid", "40"), "grid_level needs 2^40 grid intervals"),
        (("young-wiener", "--grid", "40"), "grid_level needs 2^40 grid intervals"),
        (("chaos-ratio", "--grid", "40"), "grid_level needs 2^40 grid intervals"),
        (("dyadic-convergence", "--set", "levels=[3,40]"), "levels needs 2^41 grid intervals"),
        (("level-bounds", "--set", "rho=300"), "rho=300.0 underflows the envelope"),
        (("level-bounds", "--set", "rho=1e300"), "rho=1e+300 underflows the envelope"),
        (("variation", "--set", "grid_intervals=4097"), "grid_intervals must be <= 4096"),
        (("cm-embedding", "--set", "grid_intervals=4097", "--set", "elements=1"),
         "grid_intervals must be <= 4096"),
        (("young2d", "--set", "grid_intervals=4097"), "grid_intervals must be <= 4096"),
        (("weak-limit", "--set", "h_ladder=[0.1,0.2]"), "every H rung must exceed 1/4"),
        (("dyadic-convergence", "--kernel", "fbm:H=0.1", "--samples", "8"),
         "p = 2.8 must exceed 2 rho = 10 for fbm H = 0.1; set p"),
        (("perturbation", "--kernel", "fbm:H=0.1", "--samples", "8"),
         "p = 2.8 must exceed 2 rho = 10 for fbm H = 0.1; set p"),
        (("fernique", "--kernel", "fbm:H=0.1", "--samples", "8"),
         "p = 2.8 must exceed 2 rho = 10 for fbm H = 0.1; set p"),
        (("fernique", "--kernel", "bm", "--kernel2", "fbm:H=0.2", "--samples", "8"),
         "p = 2.5 must exceed 2 rho = 5 for fbm H = 0.2; set p"),
        # a set p above 2 rho: the lift is still not a rough path for rho >= 2
        (("fernique", "--kernel", "fbm:H=0.1", "--set", "p=11", "--samples", "8"),
         "1/rho_1 + 1/rho_2 = 1/5 + 1/5 must exceed 1 for fbm H = 0.1"),
        (("dyadic-convergence", "--kernel", "fbm:H=0.1", "--set", "p=11", "--samples", "8",
          "--set", "levels=[1,2]"),
         "1/rho_1 + 1/rho_2 = 1/5 + 1/5 must exceed 1 for fbm H = 0.1"),
        (("perturbation", "--kernel", "fbm:H=0.2", "--set", "p=4.5", "--samples", "8",
          "--grid", "3"), "p = 4.5 must exceed 2 rho = 5 for fbm H = 0.2"),
        (("fernique", "--kernel", "fbm:H=0.2", "--set", "p=5.5", "--samples", "8",
          "--grid", "3"), "1/rho_1 + 1/rho_2 = 1/2.5 + 1/2.5 must exceed 1 for fbm H = 0.2"),
        (("level2-variance", "--kernel", "fbm:H=0.1", "--samples", "8", "--grid", "3"),
         "1/rho_1 + 1/rho_2 = 1/5 + 1/5 must exceed 1 for fbm H = 0.1"),
        (("level-bounds", "--kernel", "fbm:H=0.1", "--samples", "8", "--grid", "4"),
         "1/rho_1 + 1/rho_2 = 1/5 + 1/5 must exceed 1 for fbm H = 0.1"),
        (("young2d", "--kernel", "fbm:H=0.1", "--set", "grid_intervals=4", "--set", "levels=1"),
         "1/rho_1 + 1/rho_2 = 1/5 + 1/5 must exceed 1 for fbm H = 0.1"),
        (("grr", "--kernel", "fbm:H=0.1", "--samples", "8", "--grid", "3"),
         "r = 2.6 must exceed 2 rho = 10 for fbm H = 0.1"),
    ])
    def test_invalid_ladder_exit1(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        rc = _run("run", *argv, "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("chaos-ratio", "--samples", "50", "--grid", "3"),
        ("variation", "--set", "grid_intervals=4"),
        ("cm-embedding", "--set", "elements=3", "--set", "grid_intervals=4"),
        ("coutin-qian",),
    ])
    def test_any_rho_experiments_stay_open(self, tmp_path, argv):
        # their statements hold on a fixed grid whatever rho is: at H = 0.1
        # (rho = 5) the lift has no Levy area, yet they still run and pass
        assert _run("run", *argv, "--kernel", "fbm:H=0.1", "--out-dir", str(tmp_path)) == 0

    def test_fractional_samples_exit1(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run("run", "grr", "--set", "samples=2.7", "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()
        assert "needs an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["elements", "nodes"])
    def test_empty_cm_embedding_exit1(self, tmp_path, capsys, field):
        # a check over no elements or no nodes would pass vacuously
        out = tmp_path / "out"
        rc = _run("run", "cm-embedding", "--set", f"{field}=0",
                  "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()
        assert "elements >= 1 and nodes >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilons", ["[0.1]", "[0.1, 0.0]"])
    def test_one_rung_perturbation_ladder_exit1(self, tmp_path, capsys, epsilons):
        # one positive rung cannot fit the rate exponent
        out = tmp_path / "out"
        rc = _run("run", "perturbation", "--set", f"epsilons={epsilons}",
                  "--samples", "10", "--grid", "3", "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()
        assert "at least two positive rungs" in capsys.readouterr().err

    def test_runtime_error_exit1_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run("run", "lift", "--path", str(tmp_path / "missing.csv"),
                  "--out-dir", str(out))
        assert rc == 1
        assert not out.exists()

    def test_check_failure_exit2_with_artifacts(self, tmp_path, capsys):
        # demanding an impossibly small constant fails the assertion but
        # still produces the full report
        rc = _run("run", "coutin-qian", "--kernel", "fbm:H=0.35",
                  "--set", "c_H=0.1", "--out-dir", str(tmp_path))
        assert rc == 2
        report = _read(tmp_path / "coutin-qian_report.json")
        assert not report["ok"]
        assert (tmp_path / "coutin-qian_table.csv").exists()

    def test_out_prefix_names_every_artifact(self, tmp_path, capsys):
        assert _run("run", "coutin-qian", "--set", "out_prefix=cq",
                    "--out-dir", str(tmp_path)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cq_report.json", "cq_run_meta.json", "cq_table.csv"]

    @pytest.mark.parametrize("command", ["run", "table"])
    @pytest.mark.parametrize("prefix", ["", ".", "..", "../escaped", "sub/x", 5])
    def test_out_prefix_outside_out_dir_exit1(self, tmp_path, capsys, command, prefix):
        parent = tmp_path / "parent"
        parent.mkdir()
        out = parent / "out"
        if command == "run":
            argv = ("run", "coutin-qian", "--set", f"out_prefix={prefix}")
        else:
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps({"experiment": "coutin-qian", "out_prefix": prefix,
                                       "sweep": {"param": "H", "values": [0.3]}}))
            argv = ("table", str(cfg))
        assert _run(*argv, "--out-dir", str(out)) == 1
        assert list(parent.iterdir()) == []
        message = ("config field 'out_prefix' needs a string" if prefix == 5
                   else "out_prefix must be a file name")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        # an integer path would be opened as a file descriptor: 0 is stdin
        (("lift", "--set", "path=0"), "config field 'path' needs a string, got 0"),
        (("lift", "--set", "path=5"), "config field 'path' needs a string, got 5"),
        (("young-wiener", "--set", "integrand=5"), "config field 'integrand' needs a string"),
        (("variation", "--set", "mode=5"), "config field 'mode' needs a string"),
        (("variation", "--set", "kernel=5"), "config field 'kernel' needs a string or mapping"),
        (("level2-variance", "--set", "kernel2=bm", "--set", "dim=5", "--samples", "20",
          "--grid", "3"), "kernel2 makes two components, so dim must be 2, got dim=5"),
        (("cm-embedding", "--set", "nodes=1000000000000", "--set", "elements=1"),
         "cm-embedding needs nodes <= 4096, got 1000000000000"),
    ])
    def test_rejected_field_exit1_names_it(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert _run("run", *argv, "--out-dir", str(out)) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("sigma, want", [("0.1", 0.006321205588), ("10", 63.21205588)])
    def test_large_rho_variation_is_scaled(self, tmp_path, sigma, want):
        # |increment|^400 underflows to 0 at ou sigma = 0.1 and overflows at
        # 10; both sums are taken again of the scaled covariance
        out = tmp_path / "out"
        assert _run("run", "variation", "--kernel", f"ou:sigma={sigma}", "--set", "rho=400",
                    "--set", "grid_intervals=4", "--out-dir", str(out)) == 0
        check, = _read(out / "variation_report.json")["checks"]
        assert check["exact"] == check["local_search"] == pytest.approx(want, rel=1e-9)

    def test_large_rho_embedding_is_scaled(self, tmp_path):
        out = tmp_path / "out"
        assert _run("run", "cm-embedding", "--kernel", "ou:sigma=10", "--set", "rho=400",
                    "--set", "elements=2", "--out-dir", str(out)) == 0

    def test_kernel_mapping_accepted(self, tmp_path, capsys):
        kernel = {"kernel": "fbm", "H": 0.4}
        assert ExperimentConfig.from_dict({"experiment": "variation", "kernel": kernel}).kernel == kernel
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "variation", "kernel": kernel,
                                   "grid_intervals": 4}))
        assert _run("run", str(cfg), "--out-dir", str(tmp_path)) == 0
        assert _read(tmp_path / "variation_report.json")["config"]["kernel"] == kernel

    def test_default_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert _run("run", "coutin-qian") == 0
        assert (tmp_path / "out" / "coutin-qian_report.json").exists()

    def test_coutin_qian_H_is_only_the_exponent(self, tmp_path, capsys):
        # H sets the exponent of the increment conditions; the kernel that
        # runs is the one the report echoes
        assert _run("run", "coutin-qian", "--kernel", "fbm:H=0.35", "--set", "H=0.3",
                    "--out-dir", str(tmp_path)) == 0
        report = _read(tmp_path / "coutin-qian_report.json")
        want = covariance.coutin_qian_check(covariance.fbm_cov(0.35), 0.3)
        assert report["config"]["kernel"] == "fbm:H=0.35"
        assert report["results"]["H"] == 0.3
        assert report["results"]["c_ass1"] == want["c_ass1"]
        assert report["results"]["c_ass2"] == want["c_ass2"]

    def test_lift_writes_no_negative_zero(self, tmp_path, capsys):
        # the Hall coordinate [2,[1,2]] of this lift is -0.0 in floats
        csv_file = tmp_path / "path.csv"
        csv_file.write_text("t,x1,x2\n0,0,0\n0.5,0,-1\n1,0,-0.5\n", encoding="utf-8")
        rc = _run("run", "lift", "--path", str(csv_file), "--out-dir", str(tmp_path))
        assert rc == 0
        for name in ("lift_report.json", "lift_table.csv"):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert not re.search(r"-0\.0(?![\d.e])", text), name

    def test_lift_from_csv(self, tmp_path, capsys):
        t = np.linspace(0, 1, 9)
        path = PiecewisePath(t, np.stack([t, np.sin(t)], axis=-1))
        csv_file = tmp_path / "path.csv"
        with open(csv_file, "w", newline="", encoding="utf-8") as fh:
            write_path_csv(path, fh)
        rc = _run("run", "lift", "--path", str(csv_file),
                  "--out-dir", str(tmp_path))
        assert rc == 0
        report = _read(tmp_path / "lift_report.json")
        hall = report["results"]["hall_log_signature"]
        assert hall["1"] == pytest.approx(1.0)
        assert hall["2"] == pytest.approx(np.sin(1.0))
        table = (tmp_path / "lift_table.csv").read_text().splitlines()
        assert table[0] == "coordinate,value"
        assert len(table) == 1 + 5  # d=2 step-3 hall basis


class TestDeterminism:
    def test_bytes_stable_across_reruns_and_blas_threads(self, tmp_path):
        # a rerun at one OpenBLAS thread and a run at two; --workers reaches
        # no library call, so the thread count is what could vary the bytes
        blobs = [_run_threaded(tmp_path / name, threads, "level2-variance",
                               "--kernel", "bm", "--grid", "5", "--samples", "600",
                               "--seed", "42")
                 for name, threads in (("a", "1"), ("b", "1"), ("c", "2"))]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_bytes_stable_across_blas_threads(self, tmp_path):
        # at these sizes all three reports differed at two OpenBLAS threads
        # before the library pinned its products to one
        for experiment, extra in (
            ("young-wiener", ("--grid", "8", "--samples", "1500")),
            ("level2-variance", ("--grid", "8", "--samples", "600")),
            ("weak-limit", ("--grid", "8", "--samples", "600")),
        ):
            blobs = [_run_threaded(tmp_path / f"{experiment}_{threads}", threads,
                                   experiment, "--seed", "5", *extra)
                     for threads in ("1", "2")]
            assert blobs[0] == blobs[1], experiment


class TestTable:
    def _sweep(self, tmp_path, payload, name):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        return cfg

    def test_dyadic_sweep_rows_plus_slope(self, tmp_path, capsys):
        cfg = self._sweep(tmp_path, {
            "experiment": "dyadic-convergence", "kernel": "bm",
            "samples": 20, "seed": 0,
            "sweep": {"param": "level", "values": [3, 4, 5]},
        }, "dy")
        rc = _run("table", str(cfg), "--out-dir", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "dyadic-convergence_sweep_table.csv").read_text().splitlines()
        assert lines[0] == "param,estimate,stderr,band,ok"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("slope,")
        # every ladder row carries the run's verdict
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"true"}

    def test_empty_ladder_exit1(self, tmp_path, capsys):
        cfg = self._sweep(tmp_path, {
            "experiment": "weak-limit", "samples": 50, "grid_level": 3,
            "sweep": {"param": "H", "values": []},
        }, "wl_empty")
        out = tmp_path / "out"
        assert _run("table", str(cfg), "--out-dir", str(out)) == 1
        assert not out.exists()
        assert "'h_ladder' needs at least one value" in capsys.readouterr().err

    def test_weak_limit_sweep_monotone_column(self, tmp_path, capsys):
        cfg = self._sweep(tmp_path, {
            "experiment": "weak-limit", "samples": 300, "seed": 3,
            "grid_level": 5,
            "sweep": {"param": "H", "values": [0.45, 0.48, 0.5]},
        }, "wl")
        rc = _run("table", str(cfg), "--out-dir", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "weak-limit_sweep_table.csv").read_text().splitlines()
        gaps = [float(line.split(",")[1]) for line in lines[1:]]
        assert gaps == sorted(gaps, reverse=True)

    def test_perturbation_epsilon_ladder(self, tmp_path, capsys):
        cfg = self._sweep(tmp_path, {
            "experiment": "perturbation", "samples": 40, "seed": 0,
            "grid_level": 3,
            "sweep": {"param": "epsilon", "values": [0.2, 0.1]},
        }, "pt")
        rc = _run("table", str(cfg), "--out-dir", str(tmp_path))
        assert rc == 0
        rows = _read(tmp_path / "perturbation_sweep_report.json")["rows"]
        assert [r["param"] for r in rows] == [0.2, 0.1]
        # the band column carries the covariance gap eps^2 |R_W|_inf
        assert [r["band"] for r in rows] == pytest.approx([0.04, 0.01])
        assert all(r["ok"] for r in rows)

    @pytest.mark.parametrize("values", [[0.1, 0.2, 0.3], []])
    def test_unread_sweep_param_exit1(self, tmp_path, capsys, values):
        cfg = self._sweep(tmp_path, {
            "experiment": "coutin-qian", "kernel": "fbm:H=0.35",
            "sweep": {"param": "band", "values": values},
        }, "cqband")
        out = tmp_path / "out"
        assert _run("table", str(cfg), "--out-dir", str(out)) == 1
        assert not out.exists()
        assert "cannot sweep 'band'" in capsys.readouterr().err

    def test_empty_sweep_header_only(self, tmp_path, capsys):
        cfg = self._sweep(tmp_path, {
            "experiment": "coutin-qian", "kernel": "fbm:H=0.35",
            "sweep": {"param": "H", "values": []},
        }, "empty")
        rc = _run("table", str(cfg), "--out-dir", str(tmp_path))
        assert rc == 0
        content = (tmp_path / "coutin-qian_sweep_table.csv").read_text()
        assert content == "param,estimate,stderr,band,ok\n"

    def test_generic_sweep(self, tmp_path, capsys):
        cfg = self._sweep(tmp_path, {
            "experiment": "coutin-qian",
            "sweep": {"param": "H", "values": [0.3, 0.4]},
        }, "cq")
        rc = _run("table", str(cfg), "--out-dir", str(tmp_path))
        assert rc == 0
        report = _read(tmp_path / "coutin-qian_sweep_report.json")
        assert [r["param"] for r in report["rows"]] == [0.3, 0.4]

    def test_common_flags_and_default_out_dir(self, tmp_path, monkeypatch, capsys):
        # table takes --seed, --workers and --out-dir as run does
        cfg = self._sweep(tmp_path, {
            "experiment": "coutin-qian", "seed": 1,
            "sweep": {"param": "H", "values": [0.3]},
        }, "flags")
        out = tmp_path / "flagged"
        assert _run("table", str(cfg), "--seed", "7", "--workers", "2",
                    "--out-dir", str(out)) == 0
        assert _read(out / "coutin-qian_sweep_report.json")["config"]["seed"] == 7
        assert _read(out / "coutin-qian_sweep_run_meta.json")["workers"] == 2
        monkeypatch.chdir(tmp_path)
        assert _run("table", str(cfg)) == 0
        assert (tmp_path / "out" / "coutin-qian_sweep_table.csv").exists()

    def test_kernel_sweep_runs_each_kernel_at_its_H(self, tmp_path, capsys):
        # a ladder of fBM kernels is a sweep over kernel values
        kernels = ["fbm:H=0.3", "fbm:H=0.4"]
        cfg = self._sweep(tmp_path, {
            "experiment": "coutin-qian",
            "sweep": {"param": "kernel", "values": kernels},
        }, "cqkernel")
        assert _run("table", str(cfg), "--out-dir", str(tmp_path)) == 0
        rows = _read(tmp_path / "coutin-qian_sweep_report.json")["rows"]
        assert [r["param"] for r in rows] == kernels
        for row, H in zip(rows, (0.3, 0.4)):
            want = covariance.coutin_qian_check(covariance.fbm_cov(H), H)
            assert row["estimate"] == want["c_ass1"]

    @pytest.mark.parametrize("values", ["0.3", {"0.3": 1}, 0.3])
    def test_sweep_values_must_be_a_list(self, tmp_path, capsys, values):
        cfg = self._sweep(tmp_path, {
            "experiment": "coutin-qian",
            "sweep": {"param": "H", "values": values},
        }, "notalist")
        out = tmp_path / "out"
        assert _run("table", str(cfg), "--out-dir", str(out)) == 1
        assert not out.exists()
        assert "sweep config needs" in capsys.readouterr().err

    def test_unknown_sweep_param(self, tmp_path, capsys):
        cfg = self._sweep(tmp_path, {
            "experiment": "grr",
            "sweep": {"param": "nonsense", "values": [1]},
        }, "bad")
        assert _run("table", str(cfg), "--out-dir", str(tmp_path)) == 1

    def test_missing_sweep_block(self, tmp_path, capsys):
        cfg = self._sweep(tmp_path, {"experiment": "grr"}, "nosweep")
        assert _run("table", str(cfg), "--out-dir", str(tmp_path)) == 1


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_config_accepted(self, path):
        data = json.loads(path.read_text(encoding="utf-8"))
        data.pop("sweep", None)
        ExperimentConfig.from_dict(data)

    def test_every_experiment_shipped(self):
        shipped = {json.loads(p.read_text(encoding="utf-8"))["experiment"]
                   for p in CONFIGS.glob("*.json")}
        assert set(EXPERIMENTS) <= shipped

    def test_run_all_from_a_bare_checkout(self, tmp_path):
        # no install and no PYTHONPATH: the script finds src/ next to itself
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(CONFIGS.parent / "run_all.py"), "--only", "lift",
             "--out-dir", str(tmp_path)], env=env, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "1/1 configs passed" in proc.stdout
        for kind in ("report.json", "table.csv", "run_meta.json"):
            assert (tmp_path / "lift" / f"lift_{kind}").is_file()


@pytest.mark.parametrize("module", ["rough_gauss", *(
    f"rough_gauss.{p.stem}" for p in sorted(SRC.glob("*.py")) if p.stem != "__init__")])
def test_every_export_resolves(module):
    # a deleted name left in __all__ breaks `from module import *`; the cli
    # module declares no exports
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []


def test_cli_import_leaves_scipy_unloaded():
    # the library runs on numpy alone: scipy.special cost ~0.25 s and 26 MB
    # per process, and young_constant computes zeta itself; the library is
    # single-threaded, so concurrent.futures stays unloaded too
    code = ("import sys, rough_gauss.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in ('scipy', 'concurrent'))\n"
            "print(loaded())\n"
            "from rough_gauss.variation_2d import young_constant\n"
            "print(repr(young_constant(1.0, 1.0)))\n"
            "print(loaded())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "6.9956762179742995", "[]"]
