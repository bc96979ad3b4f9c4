import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import spotvol
from spotvol.cli import main
from spotvol.posterior import PosteriorFit


SYNTH = {
    "mu": -1.0, "phi": 0.9, "sigma": 0.3, "n_days": 340,
    "mean_price": 1000.0, "start_date": "2023-01-01",
    "hourly_amp_price": 60.0, "hourly_amp_temp": 2.0,
    "svx": {"alpha": 0.3, "beta1": 2.0, "beta2": 0.1,
            "beta3": 0.01, "gamma": -5.0, "xi": 10.0},
}


def base_config(outdir: Path, n_days=340, model="svx") -> dict:
    return {
        "seed": 4242,
        "output_dir": str(outdir),
        "zone": 1,
        "hour": 14,
        "model": model,
        "data": {
            "prices": {1: str(outdir / "prices.csv")},
            "weather": {1: str(outdir / "weather.csv")},
        },
        "sampler": {"chains": 2, "warmup": 500, "draws": 500,
                    "leapfrog_steps": 24, "max_workers": 2},
        "fit": {"train_days": 330},
        "forecast": {"horizon": 7, "n_draws": 500, "mode": "point",
                     "vol_mode": "propagate"},
        "cv": {
            "train_days": 200, "test_days": 60, "n_draws": 300,
            "max_workers": 2,
            "combinations": [
                {"family": "baseline", "hour": 14, "zone": 1},
                {"family": "svx", "hour": 14, "zone": 1},
            ],
        },
        "diagnose": {"pacf_max_lag": 20},
        "synth": {**SYNTH, "n_days": n_days},
    }


def write_config(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth+fit pipeline shared by the read-only CLI tests."""
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "run"
    cfg_path = write_config(tmp, base_config(out))
    assert main(["synth", "-c", str(cfg_path)]) == 0
    rc = main(["fit", "-c", str(cfg_path)])
    assert rc == 0
    return tmp, out, cfg_path


def _hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_outputs_complete(workspace):
    _, out, _ = workspace
    for name in ("prices.csv", "weather.csv", "synth_truth.json",
                 "synth_manifest.json"):
        assert (out / name).exists()
    truth = json.loads((out / "synth_truth.json").read_text())
    assert len(truth["h"]) == 340


def test_synth_deterministic(tmp_path):
    out = tmp_path / "a"
    cfg_path = write_config(tmp_path, base_config(out, n_days=60))
    assert main(["synth", "-c", str(cfg_path)]) == 0
    first = _hash(out / "prices.csv")
    assert main(["synth", "-c", str(cfg_path)]) == 0
    assert _hash(out / "prices.csv") == first


def test_fit_outputs(workspace):
    _, out, _ = workspace
    fit = PosteriorFit.load(out / "fit.json")
    assert fit.model_family == "svx"
    assert fit.train_summary["n_obs"] == 330
    assert fit.diagnostics["max_rhat"] < 1.05
    manifest = json.loads((out / "fit_manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["seed"] == 4242


def test_fit_manifest_replay_byte_identical(workspace):
    _, out, _ = workspace
    before = _hash(out / "fit.json")
    assert main(["fit", "--from-manifest",
                 str(out / "fit_manifest.json")]) == 0
    assert _hash(out / "fit.json") == before


def test_forecast_csv_and_roundtrip(workspace):
    _, out, cfg_path = workspace
    assert main(["forecast", "-c", str(cfg_path),
                 "--fit", str(out / "fit.json")]) == 0
    rows = (out / "forecast.csv").read_text().strip().splitlines()
    assert len(rows) == 8  # header + horizon 7
    doc = json.loads((out / "forecast.json").read_text())
    csv_means = [float(r.split(",")[1]) for r in rows[1:]]
    assert csv_means == doc["mean"]

    before = _hash(out / "forecast.csv")
    assert main(["forecast", "--from-manifest",
                 str(out / "forecast_manifest.json")]) == 0
    assert _hash(out / "forecast.csv") == before


def test_forecast_family_mismatch(workspace, tmp_path, capsys):
    ws_tmp, out, _ = workspace
    cfg = base_config(out)
    cfg["model"] = "baseline"
    cfg_path = write_config(tmp_path, cfg)
    rc = main(["forecast", "-c", str(cfg_path), "--fit", str(out / "fit.json")])
    assert rc == 1
    assert "IncompatibleFit" in capsys.readouterr().err


def test_forecast_past_the_data_reported(workspace, tmp_path, capsys):
    # the data end 9 days after the fit's window, short of a 30-day horizon
    _, out, _ = workspace
    cfg = {**base_config(tmp_path / "out"),
           "data": {"prices": {1: str(out / "prices.csv")},
                    "weather": {1: str(out / "weather.csv")}}}
    cfg["forecast"] = {**cfg["forecast"], "horizon": 30}
    rc = main(["forecast", "-c", str(write_config(tmp_path, cfg)),
               "--fit", str(out / "fit.json")])
    assert rc == 1
    assert "error [InsufficientFutureData]" in capsys.readouterr().err


def test_diagnose_fit_outside_the_data_reported(workspace, tmp_path, capsys):
    # the fit's window ends on day 330; these data hold the first 60 days
    _, out, _ = workspace
    cfg_path = write_config(tmp_path, base_config(tmp_path / "short",
                                                  n_days=60))
    assert main(["synth", "-c", str(cfg_path)]) == 0
    capsys.readouterr()
    rc = main(["diagnose", "-c", str(cfg_path),
               "--fit", str(out / "fit.json")])
    assert rc == 1
    assert "error [IncompatibleFit]" in capsys.readouterr().err


def test_diagnose_baseline_fit_with_weather_configured(workspace, tmp_path):
    # a baseline fit trains from day 0, which has no weather lag row
    _, out, _ = workspace
    run = tmp_path / "run"
    cfg = {**base_config(run, model="baseline"),
           "data": {"prices": {1: str(out / "prices.csv")},
                    "weather": {1: str(out / "weather.csv")}},
           "fit": {"train_days": 120},
           "sampler": {"chains": 2, "warmup": 200, "draws": 500,
                       "leapfrog_steps": 8}}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["fit", "-c", str(cfg_path)]) in (0, 2)
    assert main(["diagnose", "-c", str(cfg_path),
                 "--fit", str(run / "fit.json")]) == 0
    rows = (run / "residuals.csv").read_text().splitlines()
    assert len(rows) == 1 + 120
    vol = (run / "volatility.csv").read_text().splitlines()
    assert len(vol) == 1 + 120
    assert vol[1].split(",")[0] == SYNTH["start_date"]


def test_cv_single_fold(workspace):
    tmp, out, cfg_path = workspace
    assert main(["cv", "-c", str(cfg_path)]) == 0
    doc = json.loads((out / "cv_summary.json").read_text())
    assert doc["n_folds"] == 2
    for mid, reports in doc["reports"].items():
        assert len(reports) == 2
    agg = doc["aggregates"]
    assert agg["svx-h14-z1"]["mae"] < agg["baseline-h14-z1"]["mae"]
    folds_csv = (out / "cv_folds.csv").read_text().strip().splitlines()
    assert len(folds_csv) == 1 + 4  # header + 2 combos x 2 folds


def test_diagnose_with_fit(workspace):
    _, out, cfg_path = workspace
    assert main(["diagnose", "-c", str(cfg_path),
                 "--fit", str(out / "fit.json")]) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    assert {"adf", "pacf", "kmeans", "cubic_fit", "residuals",
            "pd_temperature", "pd_weekday", "raw_coefficients"} <= set(doc)
    for name in ("pacf.csv", "residuals.csv", "volatility.csv",
                 "pd_temperature.csv", "pd_weekday.csv"):
        assert (out / name).exists()


def test_diagnose_random_walk_nonstationary(tmp_path):
    rng = np.random.default_rng(3)
    out = tmp_path / "rw"
    out.mkdir()
    dates = np.arange(np.datetime64("2022-01-01"), np.datetime64("2022-01-01")
                      + np.timedelta64(400, "D"))
    walk = 1000 + np.cumsum(rng.standard_normal(400)) * 10
    lines = ["date,hour,price"]
    for d, v in zip(dates, walk):
        lines.append(f"{d},14,{float(v)!r}")
    (out / "prices.csv").write_text("\n".join(lines) + "\n")
    cfg = {
        "seed": 1, "output_dir": str(out), "hour": 14, "zone": 1,
        "data": {"prices": {1: str(out / "prices.csv")}},
        "diagnose": {"pacf_max_lag": 10},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["diagnose", "-c", str(cfg_path)]) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["adf"]["conclusion"] == "non-stationary"


def test_report_renders(workspace):
    _, out, _ = workspace
    assert main(["report", "--run-dir", str(out)]) == 0
    text = (out / "report.md").read_text()
    assert "## Fit" in text
    assert "max rhat" in text


def test_malformed_config_fails_fast(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed")
    assert main(["fit", "-c", str(bad)]) == 1
    bad2 = tmp_path / "bad2.yaml"
    bad2.write_text(yaml.safe_dump({"output_dir": "x"}))  # no seed
    assert main(["fit", "-c", str(bad2)]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, override", [
    ("fit", {"data": {"prices": {1: 5}}}),
    ("fit", {"output_dir": 5}),
    ("fit", {"data": {"prices": {1: {"x": 1}}}}),
    ("fit", {"diagnose": 5}),
    ("fit", {"sampler": 5}),
    ("fit", {"sampler": [1]}),
    ("fit", {"sampler": {"chains": "x"}}),
    ("fit", {"fit": {"train_days": "x"}}),
    ("forecast", {"forecast": 5}),
    ("forecast", {"forecast": {"mode": "bogus"}}),
    ("forecast", {"forecast": {"horizon": "x"}}),
    ("cv", {"cv": 5}),
    ("cv", {"cv": {"combinations": [5]}}),
    ("synth", {"synth": 5}),
    ("synth", {"synth": {"mu": 1}}),
    ("cv", {"cv": {"combinations": [{"family": "bogus"}]}}),
    ("diagnose", {"diagnose": {"pacf_max_lag": -3}}),
    ("synth", {"synth": {**SYNTH, "svx": 5}}),
    ("synth", {"synth": {**SYNTH, "temp": {"bogus": 1}}}),
    ("fit", {"fit": {"train_days": -5}}),
    ("fit", {"fit": {"train_days": 0}}),
    ("fit", {"fit": {"train_days": 100000}}),
    ("forecast", {"forecast": {"n_draws": 0}}),
    ("diagnose", {"diagnose": {"n_draws": 50}}),
])
def test_malformed_config_values_reported(workspace, tmp_path, capsys,
                                          command, override):
    # real data and fit, so that only the override can fail the command
    _, out, _ = workspace
    cfg = {**base_config(tmp_path / "out"),
           "data": {"prices": {1: str(out / "prices.csv")},
                    "weather": {1: str(out / "weather.csv")}},
           **override}
    argv = [command, "-c", str(write_config(tmp_path, cfg))]
    if command == "forecast":
        argv += ["--fit", str(out / "fit.json")]
    assert main(argv) == 1
    assert "error [ConfigError]" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["forecast", "--fit", "{tmp}/nope.json"], "IncompatibleFit"),
    (["diagnose", "--fit", "{tmp}/nope.json"], "IncompatibleFit"),
    (["forecast", "--fit", "{tmp}/not_json.txt"], "IncompatibleFit"),
    (["forecast", "--from-manifest", "{tmp}/nope.json"], "ConfigError"),
    (["forecast", "--from-manifest", "{tmp}/no_config.json"], "ConfigError"),
])
def test_unreadable_fit_or_manifest_reported(workspace, tmp_path, capsys,
                                             argv, error):
    _, out, _ = workspace
    cfg = {**base_config(tmp_path / "out"),
           "data": {"prices": {1: str(out / "prices.csv")},
                    "weather": {1: str(out / "weather.csv")}}}
    (tmp_path / "not_json.txt").write_text("not json")
    (tmp_path / "no_config.json").write_text(json.dumps({"command": "forecast"}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    if "--fit" in argv:
        argv += ["-c", str(write_config(tmp_path, cfg))]
    assert main(argv) == 1
    assert f"error [{error}]" in capsys.readouterr().err


def test_missing_price_path_reported(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    del cfg["data"]["prices"]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["fit", "-c", str(cfg_path)]) == 1
    assert "data.prices" in capsys.readouterr().err


def test_fit_warning_exit_code(monkeypatch, tmp_path, workspace):
    # rhat above threshold must map to exit code 2
    _, out, cfg_path = workspace
    import spotvol.cli as cli_mod

    real_sample = cli_mod.sample

    def noisy_sample(model, cfg, seed):
        fit = real_sample(model, cfg, seed)
        fit.diagnostics["max_rhat"] = 1.2
        return fit

    monkeypatch.setattr(cli_mod, "sample", noisy_sample)
    cfg = base_config(tmp_path / "warn", n_days=120, model="baseline")
    cfg["fit"] = {}
    cfg["sampler"] = {"chains": 2, "warmup": 200, "draws": 500,
                      "leapfrog_steps": 8, "max_workers": 2}
    cfg["data"] = {"prices": {1: str(out / "prices.csv")},
                   "weather": {1: str(out / "weather.csv")}}
    cfg_path2 = write_config(tmp_path, cfg)
    assert main(["fit", "-c", str(cfg_path2)]) == 2


def test_commands_do_not_mutate_inputs(workspace):
    _, out, cfg_path = workspace
    before = {name: _hash(out / name) for name in ("prices.csv", "weather.csv")}
    assert main(["diagnose", "-c", str(cfg_path)]) == 0
    assert main(["forecast", "-c", str(cfg_path),
                 "--fit", str(out / "fit.json")]) == 0
    after = {name: _hash(out / name) for name in ("prices.csv", "weather.csv")}
    assert before == after


def test_diagnose_reports_hourly_profile(workspace):
    _, out, cfg_path = workspace
    assert main(["diagnose", "-c", str(cfg_path)]) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    assert len(doc["hourly_profile"]) == 24


def test_from_manifest_command_mismatch(workspace, capsys):
    _, out, _ = workspace
    rc = main(["cv", "--from-manifest", str(out / "fit_manifest.json")])
    assert rc == 1
    assert "manifest" in capsys.readouterr().err


def test_import_skips_scipy_signal_and_stats():
    # each CLI command is one process, so the import is paid on every run
    src = str(Path(spotvol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys, spotvol, spotvol.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
