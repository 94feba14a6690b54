import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thinshell
from thinshell.bodies import isotropic_body
from thinshell.cli import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    default_config,
    main,
    parse_config,
    run,
    version_info,
)
from thinshell.reporting import CSV_HEADER, CsvRow, render_csv
from thinshell.sampler import dump_samples, sample_exact

SMALL_THINSHELL = """
[experiment]
name = thinshell
n_grid = 4 8 16
samples = 2000
seed = 99
output_dir = {out}

[body.cube]
kind = cube
"""


def test_parse_config_defaults_and_overrides():
    cfg = parse_config("[experiment]\nname = clt\nseed = 7\n")
    assert cfg.experiment == "clt"
    assert cfg.seed == 7
    cfg2 = parse_config("[experiment]\nname = berry-esseen\n")
    assert cfg2.experiment == "berry_esseen"
    assert cfg2.samples == 10 ** 5


def test_experiment_config_has_no_defaults_of_its_own():
    # n_grid and samples differ per experiment; only default_config knows them
    with pytest.raises(TypeError):
        ExperimentConfig(experiment="berry_esseen")
    cfg = default_config("berry_esseen")
    assert (cfg.n_grid, cfg.samples) == ([16, 64, 256], 10 ** 5)


def test_parse_config_bodies():
    cfg = parse_config("[experiment]\nname = thinshell\n\n[body.l1]\nkind = lp_ball\np = 1\n")
    assert cfg.bodies[0].kind == "lp_ball"
    assert cfg.bodies[0].p == 1.0


def test_parse_config_unknown_key_is_named():
    with pytest.raises(ConfigError, match="banana"):
        parse_config("[experiment]\nname = thinshell\nbanana = 1\n")
    with pytest.raises(ConfigError, match="radius"):
        parse_config("[experiment]\nname = thinshell\n\n[body.x]\nkind = cube\nradius = 2\n")
    with pytest.raises(ConfigError, match="missing"):
        parse_config("[body.x]\nkind = cube\n")


def test_leftover_workers_key_is_a_config_error(tmp_path, capsys):
    # the process pool and its option are gone; the drawing threads follow from
    # the usable cores and the draw size
    text = SMALL_THINSHELL.format(out=tmp_path / "o").replace("seed = 99\n",
                                                               "seed = 99\nworkers = 2\n")
    with pytest.raises(ConfigError, match="'workers'"):
        parse_config(text)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert main(["thinshell", "--config", str(cfg)]) == 2
    assert "'workers'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(SystemExit) as exc:
        main(["thinshell", "--config", str(cfg), "--workers", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("body, named", [
    ("kind = cube\ndim = 3", "dim"),
    ("kind = cube\nscale = 2", "scale"),
    ("kind = product_of_intervals\nhalf_widths = 1 2 3 4", "half_widths"),
    ("kind = cube\nspacing = 0.1", "spacing"),
    ("kind = lp_ball", "'p'"),
    ("kind = cube\np = 2", "'p'"),
    ("kind = lp_ball\np = inf", "p = inf is the cube"),
    ("kind = lp_ball\np = nan", "finite p >= 1"),
    ("kind = counterexample_cross", "counterexample_cross"),
    ("kind = product_of_intervals", "product_of_intervals"),
])
def test_config_bodies_are_kind_and_p_only(tmp_path, capsys, body, named):
    text = SMALL_THINSHELL.format(out=tmp_path / "o").replace("kind = cube", body)
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config(text)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert main(["thinshell", "--config", str(cfg)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_nonpositive_n_grid_is_a_config_error(tmp_path, capsys):
    text = SMALL_THINSHELL.format(out=tmp_path / "o").replace("n_grid = 4 8 16", "n_grid = 0 4 8")
    with pytest.raises(ConfigError, match="positive integers"):
        parse_config(text)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert main(["thinshell", "--config", str(cfg)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_u64_is_a_config_error(tmp_path, capsys, seed):
    out = tmp_path / "o"
    assert main(["thinshell", "--seed", str(seed), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    text = SMALL_THINSHELL.format(out=out).replace("seed = 99", f"seed = {seed}")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert main(["thinshell", "--config", str(cfg)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_largest_u64_seed_validates():
    cfg = parse_config("[experiment]\nname = thinshell\nseed = 18446744073709551615\n")
    assert cfg.seed == 2 ** 64 - 1


def test_subcommands_are_the_experiments(capsys):
    for name in EXPERIMENTS:
        with pytest.raises(SystemExit) as exc:
            main([name.replace("_", "-"), "--help"])
        assert exc.value.code == 0
    with pytest.raises(SystemExit):
        main(["berry_esseen"])
    capsys.readouterr()


def test_parse_config_validation():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nname = thinshell\nsamples = 10\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nname = nonsense\n")


def test_berry_esseen_rejects_fewer_than_1e4_samples(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "be.ini"
    cfg.write_text(f"[experiment]\nname = berry_esseen\nsamples = 200\noutput_dir = {out}\n")
    assert main(["berry-esseen", "--config", str(cfg)]) == 2
    assert "berry_esseen needs samples >= 10000" in capsys.readouterr().err
    assert not out.exists()


def test_run_identities_and_artifacts(tmp_path, capsys):
    cfg = default_config("identities")
    cfg.output_dir = str(tmp_path / "out")
    assert run(cfg) == 0
    csv_text = (tmp_path / "out" / "report.csv").read_text()
    assert csv_text.startswith("estimator_id,body,n,N,seed,value,half_width,bound,extra_json")
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["passed"] is True
    assert all(a["anchor"] for a in payload["assertions"])
    assert "timestamp" in payload
    assert list(payload["timings"]) == ["identities_s"]
    assert payload["timings"]["identities_s"] > 0
    assert re.search(r"^\[time\] identities \d+\.\d\d s$", capsys.readouterr().out, re.M)


def test_run_byte_identical_reports(tmp_path, capsys):
    texts = []
    for name in ("a", "b"):
        code = main(["thinshell", "--config", _write_cfg(tmp_path, name)])
        assert code == 0
        texts.append((tmp_path / name / "report.csv").read_bytes())
    assert texts[0] == texts[1]


def _write_cfg(tmp_path, sub):
    p = tmp_path / f"cfg_{sub}.ini"
    p.write_text(SMALL_THINSHELL.format(out=tmp_path / sub))
    return str(p)


def test_blas_threads_do_not_change_reports(tmp_path):
    # OpenBLAS splits long dot products across its threads, which reorders the
    # sum; 2e4 draws per variance is past the length where that starts.  The
    # berry_esseen rows add the inversion's sine tables (4096 t-points), and
    # the transport rows the sparse LU factor, which makes its own BLAS calls.
    src = str(Path(thinshell.__file__).resolve().parents[1])
    configs = {
        "thinshell": SMALL_THINSHELL.replace("samples = 2000", "samples = 20000"),
        "berry_esseen": "[experiment]\nname = berry_esseen\nn_grid = 16 64\n"
                        "samples = 10000\noutput_dir = {out}\n",
        "transport": "[experiment]\nname = transport\noutput_dir = {out}\n",
    }
    for name, text in configs.items():
        texts = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_t{threads}"
            cfg = tmp_path / f"{name}_t{threads}.ini"
            cfg.write_text(text.format(out=out))
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-m", "thinshell.cli", name.replace("_", "-"),
                                   "--config", str(cfg)], env=env, capture_output=True)
            assert proc.returncode in (0, 1), proc.stderr.decode()
            texts.append((out / "report.csv").read_bytes())
        assert texts[0] == texts[1], name


@pytest.mark.parametrize("experiment", ["berry_esseen", "all"])
def test_dimension_the_inversion_cannot_reach_is_a_config_error(tmp_path, capsys, experiment):
    # uniform theta at n = 4 needs a cut of 1452/|theta|, past the budget of 1000
    out = tmp_path / "out"
    cfg = tmp_path / "reach.ini"
    cfg.write_text(f"[experiment]\nname = {experiment}\nn_grid = 4 16\n"
                   f"samples = 10000\noutput_dir = {out}\n")
    assert main([experiment.replace("_", "-"), "--config", str(cfg)]) == 2
    assert "berry_esseen cannot reach n = 4" in capsys.readouterr().err
    assert not out.exists()
    parse_config(f"[experiment]\nname = {experiment}\nn_grid = 5 16\nsamples = 10000\n")


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nname = thinshell\nbanana = 1\n")
    assert main(["thinshell", "--config", str(bad)]) == 2
    assert main(["thinshell", "--config", str(tmp_path / "missing.ini")]) == 3
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert "thinshell" in out and "sfc64" in out


def test_version_info_stable():
    a, b = version_info(), version_info()
    assert a == b
    assert "sfc64" in a and "philox4x64" in a


def test_dump_samples_flag(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_THINSHELL.format(out=tmp_path / "o"))
    dump = tmp_path / "rows.thsl"
    assert main(["thinshell", "--config", str(cfg_path), "--dump-samples", str(dump)]) == 0
    expected = tmp_path / "expected.thsl"
    dump_samples(sample_exact(isotropic_body("cube", 4), 2000, seed=99), expected)
    assert dump.read_bytes() == expected.read_bytes()


def test_unwritable_dump_path_exits_before_any_suite(tmp_path, capsys, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("no suite may run after a failed dump")

    monkeypatch.setattr("thinshell.cli.thinshell_suite", no_suite)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_THINSHELL.format(out=tmp_path / "o"))
    bad = tmp_path / "missing" / "rows.thsl"
    assert main(["thinshell", "--config", str(cfg_path), "--dump-samples", str(bad)]) == 3
    assert str(bad) in capsys.readouterr().err


def test_dump_samples_only_with_the_thinshell_suite(tmp_path, capsys):
    dump = tmp_path / "rows.thsl"
    assert main(["identities", "--out", str(tmp_path / "o"), "--dump-samples", str(dump)]) == 0
    assert not dump.exists()


def test_plot_outputs(tmp_path, capsys):
    cfg = parse_config(SMALL_THINSHELL.format(out=tmp_path / "p"))
    cfg.plot = True
    assert run(cfg) == 0
    svg = (tmp_path / "p" / "thinshell_loglog.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_plot_draws_one_line_per_family(tmp_path, capsys):
    cfg = parse_config(SMALL_THINSHELL.format(out=tmp_path / "f")
                       + "\n[body.l1]\nkind = lp_ball\np = 1\n\n[body.l3]\nkind = lp_ball\np = 3\n")
    cfg.plot = True
    assert run(cfg) == 0
    svg = (tmp_path / "f" / "thinshell_loglog.svg").read_text()
    assert svg.count("<polyline") == 3
    assert "lp_ball(p=1)" in svg and "lp_ball(p=3)" in svg


def test_output_dir_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = default_config("identities")
    cfg.output_dir = str(blocker / "nested")
    assert run(cfg) == 3


def test_csv_fields_with_commas_are_quoted():
    bodies = ["lp_ball(p=1,n=16)", "segment[-1,1]", 'say "x"', "cube(n=4)", "lp_ball(p=3)"]
    rows = [CsvRow("est", b, 4, 100, 7, 0.5, 0.1, 1.0, {"k": [1, 2]} if i % 2 else {})
            for i, b in enumerate(bodies)]
    parsed = list(csv.reader(render_csv(rows).splitlines()))
    assert parsed[0] == CSV_HEADER.split(",")
    assert all(len(f) == 9 for f in parsed)
    assert sorted(f[1] for f in parsed[1:]) == sorted(bodies)
    assert '"lp_ball(p=1,n=16)"' in render_csv(rows)
    assert "\nest,cube(n=4),4," in render_csv(rows)
