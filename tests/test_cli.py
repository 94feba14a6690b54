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
from thinshell.reporting import (
    CSV_HEADER,
    Assertion,
    CsvRow,
    SuiteResult,
    render_csv,
    render_json,
)
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
    with pytest.raises(ConfigError, match="suite 'thinshell' needs 'bodies'"):
        ExperimentConfig("thinshell", [4], 100).validate()


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
    assert EXPERIMENTS == ("thinshell", "clt", "berry_esseen", "transport", "spectral",
                           "identities")
    for name in (*EXPERIMENTS, "all", "version"):
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


def test_run_reports_the_peak_rss(tmp_path, capsys, monkeypatch):
    cfg = default_config("identities")
    cfg.output_dir = str(tmp_path / "out")
    assert run(cfg) == 0
    peak = json.loads((tmp_path / "out" / "report.json").read_text())["peak_rss_mb"]
    assert isinstance(peak, float) and 1.0 < peak < 1e5
    line = re.search(r"^\[time\] identities peak RSS (\d+\.\d) MB$", capsys.readouterr().out,
                     re.M)
    assert line and float(line[1]) == round(peak, 1)
    # where the resource module is missing the field is null and no line is printed
    monkeypatch.setitem(sys.modules, "resource", None)
    assert run(cfg) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["peak_rss_mb"] is None
    assert "peak RSS" not in capsys.readouterr().out


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
    # the transport rows the sparse LU factor, which makes its own BLAS calls,
    # and the spectral rows ARPACK, which makes its own BLAS calls too.
    src = str(Path(thinshell.__file__).resolve().parents[1])
    configs = {
        "thinshell": SMALL_THINSHELL.replace("samples = 2000", "samples = 20000"),
        "berry_esseen": "[experiment]\nname = berry_esseen\nn_grid = 16 64\n"
                        "samples = 10000\noutput_dir = {out}\n",
        "transport": "[experiment]\nname = transport\noutput_dir = {out}\n",
        "spectral": "[experiment]\nname = spectral\noutput_dir = {out}\n",
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


@pytest.mark.parametrize("experiment", ["berry_esseen"])
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


def test_all_is_a_command_not_an_experiment():
    with pytest.raises(ConfigError, match="unknown experiment 'all'"):
        parse_config("[experiment]\nname = all\n")


def test_all_runs_each_suite_once_at_its_defaults(tmp_path, capsys, monkeypatch):
    calls = []

    def stub(name):
        def suite(*args, **kwargs):
            calls.append((name, args, kwargs))
            return SuiteResult(name, rows=[CsvRow(f"{name}.stub", "none", 0, 0, 7, 1.0)])
        return suite

    for name in EXPERIMENTS:
        monkeypatch.setattr(f"thinshell.cli.{name}_suite", stub(name))
    out = tmp_path / "o"
    assert main(["all", "--out", str(out), "--seed", "7"]) == 0
    thin = default_config("thinshell")
    be = default_config("berry_esseen")
    assert calls == [
        ("thinshell", (thin.bodies, thin.n_grid, thin.samples, 7), {}),
        ("clt", (7,), {}),
        ("berry_esseen", (7,), {"cube_ns": tuple(be.n_grid),
                                "counter_ns": (min(be.n_grid), max(be.n_grid)),
                                "samples": be.samples}),
        ("transport", (7,), {}),
        ("spectral", (7,), {}),
        ("identities", (), {}),
    ]
    for name in EXPERIMENTS:
        assert f"\n{name}.stub,none,0,0,7," in (out / name / "report.csv").read_text()
        echo = json.loads((out / name / "report.json").read_text())["config"]
        assert echo == {**default_config(name).echo(), "seed": 7,
                        "output_dir": str(out / name)}
    capsys.readouterr()


def test_all_exits_with_the_largest_code_of_its_runs(tmp_path, capsys, monkeypatch):
    failed = Assertion("stub", "none", 1.0, 0.0, 0.0)
    monkeypatch.setattr("thinshell.cli.clt_suite",
                        lambda seed: SuiteResult("clt", assertions=[failed]))
    monkeypatch.setattr("thinshell.cli.identities_suite", lambda: SuiteResult("identities"))
    for name in ("thinshell", "berry_esseen", "transport", "spectral"):
        monkeypatch.setattr(f"thinshell.cli.{name}_suite",
                            lambda *args, name=name, **kwargs: SuiteResult(name))
    assert main(["all", "--out", str(tmp_path / "o")]) == 1
    assert "[FAIL] stub" in capsys.readouterr().out
    assert all((tmp_path / "o" / name / "report.csv").exists() for name in EXPERIMENTS)


def test_all_takes_no_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_THINSHELL.format(out=tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        main(["all", "--config", str(cfg)])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()
    capsys.readouterr()


def test_config_naming_another_suite_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="'thinshell', not 'clt'"):
        parse_config(SMALL_THINSHELL.format(out=tmp_path / "o"), experiment="clt")
    assert parse_config("[experiment]\nname = berry-esseen\n",
                        experiment="berry_esseen").experiment == "berry_esseen"
    assert parse_config("[experiment]\nname = berry_esseen\n",
                        experiment="berry-esseen").experiment == "berry_esseen"
    cfg = tmp_path / "thinshell.ini"
    cfg.write_text(SMALL_THINSHELL.format(out=tmp_path / "o"))
    assert main(["clt", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "'thinshell'" in err and "'clt'" in err
    assert not (tmp_path / "o").exists()


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


def test_dump_samples_only_with_the_thinshell_suite(tmp_path, capsys, monkeypatch):
    dump = tmp_path / "rows.thsl"
    assert main(["identities", "--out", str(tmp_path / "o"), "--dump-samples", str(dump)]) == 2
    assert "--dump-samples" in capsys.readouterr().err
    assert not dump.exists() and not (tmp_path / "o").exists()
    # all passes the dump to thinshell alone: its first body at its smallest n
    for name in EXPERIMENTS:
        monkeypatch.setattr(f"thinshell.cli.{name}_suite",
                            lambda *args, name=name, **kwargs: SuiteResult(name))
    assert main(["all", "--out", str(tmp_path / "a"), "--seed", "7",
                 "--dump-samples", str(dump)]) == 0
    expected = tmp_path / "expected.thsl"
    dump_samples(sample_exact(isotropic_body("cube", 4), 10 ** 4, seed=7), expected)
    assert dump.read_bytes() == expected.read_bytes()
    capsys.readouterr()


_OTHER_SUITES = [e for e in EXPERIMENTS if e != "thinshell"]
_UNREAD_INPUTS = (
    [(e, "n_grid = 16 64", "'n_grid'") for e in _OTHER_SUITES if e != "berry_esseen"]
    + [(e, "samples = 100000", "'samples'") for e in _OTHER_SUITES if e != "berry_esseen"]
    + [(e, "\n[body.l1]\nkind = lp_ball\np = 1", "[body.*]") for e in _OTHER_SUITES]
    + [(e, None, "--dump-samples") for e in _OTHER_SUITES])


@pytest.mark.parametrize("experiment, line, named", _UNREAD_INPUTS)
def test_an_input_the_suite_does_not_read_is_a_config_error(tmp_path, capsys, experiment,
                                                            line, named):
    out, dump = tmp_path / "o", tmp_path / "rows.thsl"
    if line is None:
        argv = [experiment.replace("_", "-"), "--out", str(out), "--dump-samples", str(dump)]
    else:
        text = f"[experiment]\nname = {experiment}\noutput_dir = {out}\n{line}\n"
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(text)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        argv = [experiment.replace("_", "-"), "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and f"suite {experiment!r}" in err and named in err
    assert not out.exists() and not dump.exists()


def test_the_echo_lists_only_the_inputs_the_suite_reads():
    assert set(default_config("thinshell").echo()) == {
        "experiment", "bodies", "n_grid", "samples", "seed", "output_dir", "plot"}
    assert set(default_config("berry_esseen").echo()) == {
        "experiment", "n_grid", "samples", "seed", "output_dir", "plot"}
    for name in ("clt", "transport", "spectral", "identities"):
        assert set(default_config(name).echo()) == {"experiment", "seed", "output_dir", "plot"}


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


def test_report_json_is_strict_json():
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    result = SuiteResult("x", rows=[
        CsvRow("no_bound", "cube(n=4)", 4, 100, 7, 0.5),
        CsvRow("inf_extra", "cube(n=4)", 4, 100, 7, 0.5, 0.1, 1.0,
               {"ratio": float("inf"), "pair": [1.0, float("-inf")]}),
    ])
    payload = json.loads(render_json(result, {}, "t", "v", "rng"), parse_constant=refuse)
    rows = {r["estimator_id"]: r for r in payload["rows"]}
    assert rows["no_bound"]["bound"] is None
    assert rows["inf_extra"]["extra"] == {"ratio": None, "pair": [1.0, None]}
    assert rows["inf_extra"]["bound"] == 1.0


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
