"""End-to-end CLI runs with small sample counts."""

import json
import os

import numpy as np
import pytest

from qcubic import cli
from qcubic.cli import main, parse_config_file, RunConfig
from qcubic.cubic import band_slack

SMALL = dict(spectral_count=200, strata_count=5, perp_count=500,
             cor4_pairs=10, fd_count=20, witness_pairs=1000,
             ratio_pairs=1000, third_count=100, sigma_count=60,
             heldout_count=20, elliptic_trials=10, monotonicity_trials=12,
             viscosity_trials=6)


def _write_config(tmp_path, **overrides):
    vals = dict(SMALL, **overrides)
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write("# smoke configuration\n")
        for k, v in vals.items():
            fh.write("%s = %s\n" % (k, v))
    return path


def _run(tmp_path, cmd, *extra, cfg_path=None):
    cfg = cfg_path or _write_config(tmp_path)
    out = os.path.join(tmp_path, "out")
    return main([cmd, "--config", cfg, "--out", out, *extra]), out


def test_config_parser(tmp_path):
    path = os.path.join(tmp_path, "a.cfg")
    with open(path, "w") as fh:
        fh.write("seed = 9\n# comment\ntolerance = 1e-7\n"
                 "lambda_policy = paper  # trailing\n")
    vals = parse_config_file(path)
    assert vals == {"seed": 9, "tolerance": 1e-7, "lambda_policy": "paper"}


def test_config_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "b.cfg")
    with open(path, "w") as fh:
        fh.write("just words\n")
    with pytest.raises(ValueError):
        parse_config_file(path)


def test_config_minimums():
    cfg = RunConfig()
    cfg.sigma_count = 1
    with pytest.raises(ValueError):
        cfg.validate()


def test_unknown_config_key_exits_2(tmp_path):
    path = os.path.join(tmp_path, "c.cfg")
    with open(path, "w") as fh:
        fh.write("sigmas = 10\n")
    assert main(["build-operator", "--config", path]) == 2


@pytest.mark.parametrize("line", ["spectral_count = 100.5", "tolerance = abc",
                                  "seed = 1.5"])
def test_mistyped_config_value_exits_2(tmp_path, line, capsys):
    # a config error, not a crash mid-suite
    path = os.path.join(tmp_path, "d.cfg")
    with open(path, "w") as fh:
        fh.write(line + "\n")
    out = os.path.join(tmp_path, "out")
    assert main(["verify-spectral", "--config", path, "--out", out]) == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("cmd", ["build-operator", "viscosity-test", "report"])
def test_tolerance_rejected_where_unused(tmp_path, cmd, capsys):
    # only verify-spectral and verify-hessian read a tolerance
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--tolerance", "1e-3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


def test_spectral_suite(tmp_path):
    code, out = _run(tmp_path, "verify-spectral")
    assert code == 0
    with open(os.path.join(out, "spectral.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"] is True
    assert rep["schema_version"] == 1
    names = [c["name"] for c in rep["checks"]]
    assert "closed_form_spectrum" in names
    assert "compression_ratio" in names
    assert 1.0 <= rep["constants"]["delta_hat"] < 1.5
    assert len(rep["eigen_sample"]) == 16


def test_spectral_failing_tolerance_exits_1(tmp_path):
    code, out = _run(tmp_path, "verify-spectral", "--tolerance", "1e-18")
    assert code == 1
    with open(os.path.join(out, "spectral.json")) as fh:
        rep = json.load(fh)
    bad = [c for c in rep["checks"] if not c["passed"]]
    assert bad and "witness" in bad[0]


def test_hessian_suite(tmp_path):
    code, out = _run(tmp_path, "verify-hessian")
    assert code == 0
    with open(os.path.join(out, "hessian.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"] is True
    c = rep["constants"]
    assert 1.0 < c["M_hat"] < c["ratio_bound"]
    assert c["third_max"] <= 32.001
    assert sum(rep["ratio_hist"]["counts"]) > 0


def test_operator_suite_and_viscosity_reuse_cache(tmp_path):
    code, out = _run(tmp_path, "build-operator")
    assert code == 0
    assert os.path.exists(os.path.join(out, "sigma.cache"))
    mtime = os.path.getmtime(os.path.join(out, "sigma.cache"))
    code2, _ = _run(tmp_path, "viscosity-test")
    assert code2 == 0
    assert os.path.getmtime(os.path.join(out, "sigma.cache")) == mtime
    with open(os.path.join(out, "operator.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"] is True
    curve = rep["constants"]["maxF_curve"]
    assert curve["max_abs_F"] == sorted(curve["max_abs_F"], reverse=True)


def test_corrupt_cache_exits_2(tmp_path):
    code, out = _run(tmp_path, "build-operator")
    assert code == 0
    path = os.path.join(out, "sigma.cache")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("count=", "cuont="))
    code2, _ = _run(tmp_path, "viscosity-test")
    assert code2 == 2


def test_near_unit_cache_source_runs_like_clean(tmp_path):
    # a source within load_cache's 1e-9 norm tolerance is accepted by the
    # cache and by everything downstream of it
    code, out = _run(tmp_path, "build-operator")
    assert code == 0
    clean, _ = _run(tmp_path, "viscosity-test")
    path = os.path.join(out, "sigma.cache")
    with open(path) as fh:
        lines = fh.read().split("\n")
    row = lines[3].split(",")
    row[:12] = [repr(float(v) * (1.0 + 5e-10)) for v in row[:12]]
    lines[3] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    assert _run(tmp_path, "viscosity-test")[0] == clean == 0


def test_band_report_path_runs_reference_solver(tmp_path, monkeypatch):
    # band_report_path solves 8 directions with the Jacobi solver, and its
    # worst is the band slack of exactly those spectra
    spectra = []

    def recording(mat):
        vals, vecs = jacobi(mat)
        spectra.append(vals)
        return vals, vecs

    jacobi = cli.jacobi_eigh
    monkeypatch.setattr(cli, "jacobi_eigh", recording)
    code, out = _run(tmp_path, "verify-spectral")
    assert code == 0 and len(spectra) == 8
    with open(os.path.join(out, "spectral.json")) as fh:
        rep = json.load(fh)
    [check] = [c for c in rep["checks"] if c["name"] == "band_report_path"]
    assert check["worst"] == float(np.min(band_slack(np.stack(spectra))))


def test_report_requires_suites(tmp_path):
    out = os.path.join(tmp_path, "out")
    os.makedirs(out)
    assert main(["report", "--out", out]) == 2


def test_full_pipeline_and_determinism(tmp_path):
    cfg = _write_config(tmp_path)
    outs = []
    for sub in ("one", "two"):
        out = os.path.join(tmp_path, sub)
        for cmd in ("verify-spectral", "verify-hessian", "build-operator",
                    "viscosity-test", "report"):
            assert main([cmd, "--config", cfg, "--out", out]) == 0
        outs.append(out)

    names = ["spectral.json", "hessian.json", "operator.json",
             "viscosity.json", "report.json", "sigma.cache",
             os.path.join("tables", "eigenvalues.csv"),
             os.path.join("tables", "ratio_hist.csv"),
             os.path.join("tables", "maxF_curve.csv")]
    for name in names:
        with open(os.path.join(outs[0], name)) as fh:
            first = fh.read()
        with open(os.path.join(outs[1], name)) as fh:
            second = fh.read()
        assert first == second, "%s not byte-deterministic" % name

    with open(os.path.join(outs[0], "report.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"] is True
    for key in ("delta_hat", "M_hat", "Lambda_hat", "Lambda_paper_chain",
                "lambda_used", "maxF_curve", "minorant_max_F"):
        assert key in rep["constants"], key


def test_seed_changes_measurements(tmp_path):
    cfg = _write_config(tmp_path)
    out1 = os.path.join(tmp_path, "s1")
    out2 = os.path.join(tmp_path, "s2")
    assert main(["verify-spectral", "--config", cfg, "--seed", "1",
                 "--out", out1]) == 0
    assert main(["verify-spectral", "--config", cfg, "--seed", "2",
                 "--out", out2]) == 0
    with open(os.path.join(out1, "spectral.json")) as fh:
        a = json.load(fh)
    with open(os.path.join(out2, "spectral.json")) as fh:
        b = json.load(fh)
    # delta_hat is 1 plus rounding noise, so it differs by chance; the
    # closed-form sample rows are drawn from the seed
    assert a["constants"]["delta_hat"] != b["constants"]["delta_hat"]
    assert a["eigen_sample"] != b["eigen_sample"]


# per suite subcommand: --count N, its output, and the entries N must set
# while the other counts keep their SMALL values
COUNTED = {
    "verify-spectral": (333, "spectral.json", "counts",
                        {"directions": 333, "perp": 500}),
    "verify-hessian": (333, "hessian.json", "counts",
                       {"fd": 20, "witness": 333, "ratio": 333, "third": 100}),
    "build-operator": (70, "operator.json", "counts",
                       {"sigma": 70, "heldout": 20}),
    "viscosity-test": (8, "viscosity.json", "constants", {"trials": 8}),
}


@pytest.mark.parametrize("cmd", list(COUNTED))
def test_count_flag_overrides_headline(tmp_path, cmd):
    count, output, key, want = COUNTED[cmd]
    cfg = _write_config(tmp_path)
    out = os.path.join(tmp_path, "cnt")
    assert main([cmd, "--config", cfg, "--count", str(count),
                 "--out", out]) == 0
    with open(os.path.join(out, output)) as fh:
        rep = json.load(fh)
    assert {k: rep[key][k] for k in want} == want


@pytest.mark.parametrize("flag, value", [("--count", "5"), ("--seed", "3"),
                                         ("--lambda-policy", "paper")])
def test_report_rejects_unread_flags(tmp_path, flag, value, capsys):
    # report only merges suite outputs: it has no count, seed or aperture
    with pytest.raises(SystemExit) as exc:
        main(["report", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
