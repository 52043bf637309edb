import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tpa_metrology
from tpa_metrology.cli import main
from tpa_metrology.metrology import OBSERVABLES
from tpa_metrology.sweeps import SweepConfig, load_sweep_config, resolve_point, run_sweep

CONFIG_TEXT = """\
[sweep]
state_family = coherent
observable = photon_number
axis = nbar
values = 1, 2, 4
output = {out}

[fixed]
eta = 0.5
"""


@pytest.fixture
def config_file(tmp_path):
    out = tmp_path / "sweep.csv"
    path = tmp_path / "sweep.cfg"
    path.write_text(CONFIG_TEXT.format(out=out))
    return path, out


class TestSweepConfig:
    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            SweepConfig("sv", "photon_number", "nbar", ())

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            SweepConfig("sv", "photon_number", "nbar", (2.0, 1.0))

    def test_rejects_axis_in_fixed(self):
        with pytest.raises(ValueError):
            SweepConfig("sv", "photon_number", "nbar", (1.0, 2.0), fixed_params={"nbar": 3.0})

    def test_rejects_bad_enums(self):
        with pytest.raises(ValueError):
            SweepConfig("laser", "photon_number", "nbar", (1.0,))
        with pytest.raises(ValueError):
            SweepConfig("sv", "clicks", "nbar", (1.0,))


class TestResolvePoint:
    def test_sv_nbar_axis(self):
        spec, loss = resolve_point("sv", {"nbar": 4.0, "eta": 0.7})
        assert spec.mean_photon_number() == pytest.approx(4.0)
        assert loss.eta == 0.7

    def test_coherent_alpha_fixed(self):
        spec, _ = resolve_point("coherent", {"eta": 0.5, "alpha": 2.0})
        assert spec.alpha_abs == 2.0
        assert spec.r == 0.0

    def test_squeezed_coherent_holds_nbar(self):
        spec, _ = resolve_point(
            "squeezed_coherent", {"n_r": 2.0, "nbar": 10.0, "phi": math.pi / 2, "eta": 1.0}
        )
        assert spec.mean_photon_number() == pytest.approx(10.0, rel=1e-12)

    def test_squeezed_coherent_needs_amplitude_info(self):
        with pytest.raises(ValueError):
            resolve_point("squeezed_coherent", {"eta": 0.5, "r": 1.0})

    @pytest.mark.parametrize(
        "family, params, named",
        [
            ("sv", {"nbar": 4.0, "r": 0.1}, "got nbar, r"),
            ("sv", {"nbar": 4.0, "n_r": 1.0}, "got nbar, n_r"),
            ("sv", {"eta": 0.5}, "one of nbar, r, n_r; got none"),
            ("coherent", {"nbar": 4.0, "alpha": 2.0}, "got nbar, alpha"),
            ("coherent", {"eta": 0.5}, "one of nbar, alpha; got none"),
            ("squeezed_coherent", {"r": 0.5, "n_r": 1.0, "nbar": 4.0}, "got r, n_r"),
            ("squeezed_coherent", {"r": 0.5, "alpha": 1.0, "nbar": 4.0}, "got alpha, nbar"),
        ],
    )
    def test_amplitude_given_exactly_once(self, family, params, named):
        with pytest.raises(ValueError, match=named):
            resolve_point(family, params)


class TestRunSweep:
    def test_csv_layout_and_determinism(self, tmp_path):
        cfg = dict(
            state_family="sv",
            observable="photon_number",
            sweep_axis="nbar",
            axis_values=(0.5, 1.0),
            fixed_params={"eta": 0.8},
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(SweepConfig(**cfg, output_path=str(p1)))
        run_sweep(SweepConfig(**cfg, output_path=str(p2)))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        provenance = [ln for ln in lines if ln.startswith("#")]
        assert provenance and "tpa-metrology" in provenance[0]
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == (
            "axis_value,mean_n_incident,fi_numeric,sens_analytic_inverse,cutoff_used,warnings"
        )
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 2

    def test_divergent_marker(self, tmp_path):
        out = tmp_path / "div.csv"
        config = SweepConfig(
            state_family="sv",
            observable="quad_q",
            sweep_axis="nbar",
            axis_values=(1.0,),
            fixed_params={"eta": 1.0},
            output_path=str(out),
        )
        run_sweep(config)
        row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
        assert row.split(",")[3] == "divergent"

    def test_coherent_sweep_cubic_scaling(self, tmp_path):
        # fi/eta follows n^3 on log-log for coherent probes, parallel across eta
        out = tmp_path / "cubic.csv"
        for eta in (0.5, 0.1):
            config = SweepConfig(
                state_family="coherent",
                observable="photon_number",
                sweep_axis="nbar",
                axis_values=(10.0, 20.0, 30.0),
                fixed_params={"eta": eta},
                output_path=str(out),
            )
            run_sweep(config)
            rows = [
                ln.split(",")
                for ln in out.read_text().splitlines()
                if not ln.startswith("#")
            ][1:]
            ns = np.array([float(r[0]) for r in rows])
            fis = np.array([float(r[2]) for r in rows])
            slope = np.polyfit(np.log(ns), np.log(fis / eta), 1)[0]
            assert abs(slope - 3.0) < 0.05
            assert fis[-1] / eta == pytest.approx(30.0**3, rel=0.05)

    def test_sv_antisqueezed_sweep_converges_across_losses(self, tmp_path):
        # anti-squeezed quadrature FI approaches the same quadratic line for
        # very different loss rates once squeezing dominates
        out = tmp_path / "conv.csv"
        fis = {}
        for eta in (0.5, 0.999):
            config = SweepConfig(
                state_family="sv",
                observable="quad_q",
                sweep_axis="nbar",
                axis_values=(30.0,),
                fixed_params={"eta": eta},
                output_path=str(out),
                tail_tol=1e-8,
            )
            run_sweep(config)
            row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
            fis[eta] = float(row.split(",")[2])
        assert fis[0.5] == pytest.approx(fis[0.999], rel=0.10)
        assert fis[0.5] == pytest.approx(10.5 * 30.0**2, rel=0.15)

    def test_sweep_values_match_direct_evaluation(self, tmp_path):
        from tpa_metrology import LossSpec, ProbeSpec
        from tpa_metrology.metrology import fisher_photon_counting

        out = tmp_path / "coh.csv"
        config = SweepConfig(
            state_family="coherent",
            observable="photon_number",
            sweep_axis="nbar",
            axis_values=(4.0,),
            fixed_params={"eta": 0.5},
            output_path=str(out),
        )
        run_sweep(config)
        row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
        cells = row.split(",")
        fi = fisher_photon_counting(ProbeSpec.coherent(2.0), LossSpec(0.5)).fi
        assert float(cells[2]) == pytest.approx(fi, rel=1e-12)
        assert float(cells[3]) == pytest.approx(0.5 * 64.0, rel=1e-12)


class TestConfigLoading:
    def test_load_and_override(self, config_file, tmp_path):
        path, out = config_file
        config = load_sweep_config(path, overrides={"fixed.eta": "0.9"})
        assert config.axis_values == (1.0, 2.0, 4.0)
        assert config.fixed_params["eta"] == 0.9
        assert config.state_family == "coherent"

    def test_start_stop_num(self, tmp_path):
        path = tmp_path / "lin.cfg"
        path.write_text(
            "[sweep]\naxis = nbar\nstart = 1\nstop = 5\nnum = 5\n\n[fixed]\neta = 1.0\n"
        )
        config = load_sweep_config(path)
        assert config.axis_values == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_missing_file(self):
        with pytest.raises(ValueError):
            load_sweep_config("/nonexistent/sweep.cfg")


_FISHER_BASE = ["fisher", "--state", "squeezed_coherent", "--observable", "photon_number",
                "--r", "0.3", "--alpha", "0.5"]
_STATE_FLAGS = ("--r", "--alpha", "--phi", "--eta", "--nbar", "--tail-tol")


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestCli:
    def test_sensitivity_json(self, capsys):
        rc = main(
            [
                "sensitivity",
                "--state",
                "coherent",
                "--observable",
                "photon_number",
                "--nbar",
                "4",
                "--eta",
                "0.5",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["analytic"]["delta_eps_sq"] == pytest.approx(0.03125)
        assert out["numeric"]["delta_eps_sq"] == pytest.approx(0.03125, rel=1e-9)

    def test_fisher_json(self, capsys):
        rc = main(
            [
                "fisher",
                "--state",
                "coherent",
                "--observable",
                "photon_number",
                "--nbar",
                "10",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fi"] == pytest.approx(1050.0, rel=1e-6)

    def test_sweep_subcommand(self, config_file, capsys):
        path, out = config_file
        rc = main(["sweep", str(path)])
        assert rc == 0
        assert out.exists()

    def test_usage_error_is_exit_one(self, capsys):
        assert main(["sweep"]) == 1
        assert main(["sensitivity", "--state", "laserbeam", "--observable", "photon_number"]) == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["phase-scan", "--nbar", "4", "--r", "0.5", "--points", "1"], "--points"),
            (["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "inf"], "--nbar"),
            (["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "-1"], "--nbar"),
            (["fisher", "--state", "sv", "--observable", "photon_number", "--r", "inf"], "--r"),
            (["fisher", "--state", "coherent", "--observable", "photon_number", "--alpha", "inf"],
             "--alpha"),
            (["fisher", "--state", "coherent", "--observable", "photon_number", "--nbar", "1",
              "--phi", "inf"], "--phi"),
            (["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "1",
              "--tail-tol", "-1"], "--tail-tol"),
            (["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "1",
              "--tail-tol", "nan"], "--tail-tol"),
            (["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "1",
              "--tail-tol", "1e-19"], "--tail-tol"),
            (["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "4",
              "--r", "0.1"], "nbar, r"),
            (["sensitivity", "--state", "coherent", "--observable", "photon_number", "--nbar", "4",
              "--alpha", "2"], "nbar, alpha"),
            (["fisher", "--state", "coherent", "--observable", "photon_number"], "nbar, alpha"),
        ],
    )
    def test_bad_input_names_the_flag(self, argv, flag, capsys):
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep, fixed, key",
        [
            ("state_family = coherent\naxis = eta\nvalues = 0.5", "nbar = inf", "nbar"),
            ("state_family = sv\naxis = eta\nvalues = 0.5", "nbar = -1", "nbar"),
            ("state_family = sv\naxis = nbar\nvalues = 1\ntail_tol = -1", "", "tail_tol"),
            ("state_family = sv\naxis = nbar\nvalues = 1\ntail_tol = nan", "", "tail_tol"),
            ("state_family = sv\naxis = nbar\nvalues = 1\ntail_tol = 1e-19", "", "tail_tol"),
            ("state_family = sv\naxis = nbar\nvalues = 4", "r = 0.1", "nbar, r"),
            ("state_family = coherent\naxis = eta\nvalues = 0.5", "", "nbar, alpha"),
            ("state_family = sv\naxis = eta\nvalues = 0.5 x", "nbar = 1", "eta"),
            ("state_family = sv\naxis = eta\nvalues = 0.5", "nbar = abc", "nbar"),
            ("state_family = sv\naxis = nbar\nstart = abc\nstop = 2\nnum = 2", "", "nbar"),
            ("state_family = sv\naxis = nbar\nstart = 1\nstop = 2\nnum = abc", "", "num"),
            ("state_family = sv\naxis = nbar\nvalues = 1\nobservabel = quad_q", "", "observabel"),
            ("state_family = sv\naxis = nbar\nstart = 1\nstop = 2\nnum = 2\nspacing = logg", "",
             "spacing"),
            ("state_family = sv\naxis = nbar\nvalues = 1", "etaa = 0.3", "etaa"),
        ],
    )
    def test_bad_config_value_names_the_key(self, sweep, fixed, key, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[sweep]\n{sweep}\n[fixed]\n{fixed}\n")
        assert main(["sweep", str(path), "--output", str(tmp_path / "out.csv")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("item, key", [("fixed.eta=abc", "eta"), ("fixed.etaa=0.3", "etaa")])
    def test_bad_override_names_the_key(self, item, key, config_file, tmp_path, capsys):
        path, out = config_file
        assert main(["sweep", str(path), "--set", item]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_bad_cutoff_cap_names_the_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("TPA_CUTOFF_MAX", "abc")
        argv = ["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "1"]
        assert main(argv) == 1
        assert "TPA_CUTOFF_MAX" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["1", "3", "5"])
    def test_tiny_cutoff_cap_is_a_contract_violation(self, cap, monkeypatch, capsys):
        # a squeezed vacuum truncated this low must exit 2, not print its FI
        monkeypatch.setenv("TPA_CUTOFF_MAX", cap)
        argv = ["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "10", "--eta", "0.5"]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_smallest_normal_eta_does_not_raise(self, capsys):
        # binom.pmf raises OverflowError at this eta inside the thinning band
        argv = ["fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "1",
                "--eta", "2.2250738585072014e-308"]
        assert main(argv) == 0
        assert math.isfinite(_strict_json(capsys.readouterr().out)["fi"])

    @pytest.mark.parametrize("eta", ["5e-324", "2.2250738585072014e-308"])
    @pytest.mark.parametrize("observable", OBSERVABLES)
    @pytest.mark.parametrize("command", ["fisher", "sensitivity"])
    def test_tiny_eta_gives_json_or_exit_two(self, command, observable, eta, capsys):
        # a NaN density (Hermite functions overflow at x / sqrt(eta)) must not
        # print as "NaN", and a slope whose square underflows reads as divergent
        for state in ("sv", "coherent"):
            rc = main([command, "--state", state, "--observable", observable, "--nbar", "1",
                       "--eta", eta])
            out, err = capsys.readouterr()
            assert rc in (0, 2)
            if rc == 0:
                _strict_json(out)
            else:
                assert "numerical contract violation" in err

    def test_underflowing_slope_sweeps_as_divergent(self, tmp_path, capsys):
        path, out = tmp_path / "tiny.cfg", tmp_path / "tiny.csv"
        path.write_text("[sweep]\nstate_family = coherent\nobservable = photon_number\n"
                        "axis = eta\nvalues = 5e-324 0.5\n[fixed]\nnbar = 1\n")
        assert main(["sweep", str(path), "--output", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert [row[3] for row in rows[1:]] == ["divergent", "0.5"]

    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "1e308"])
    @pytest.mark.parametrize(
        "base, flag",
        [
            (base, flag)
            for base, flags in (
                (_FISHER_BASE, _STATE_FLAGS),
                (["sensitivity", *_FISHER_BASE[1:]], _STATE_FLAGS),
                (["phase-scan", "--nbar", "1", "--r", "0.3", "--points", "3"],
                 ("--nbar", "--r", "--eta", "--points", "--tail-tol")),
                (["squeeze-scan", "--nbar", "1", "--eta", "0.5", "--points", "3"],
                 ("--nbar", "--eta", "--phi", "--points", "--tail-tol")),
            )
            for flag in flags
        ],
    )
    def test_numeric_flags_never_raise(self, base, flag, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = list(base)
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        assert main(argv) in (0, 1, 2)

    @pytest.mark.parametrize("observable", ["photon_number", "quad_q"])
    @pytest.mark.parametrize("command", ["fisher", "sensitivity"])
    def test_fisher_builds_the_probe_once(self, command, observable, probe_builds, capsys):
        argv = [command, "--state", "sv", "--observable", observable, "--nbar", "2", "--eta", "0.5"]
        assert main(argv) == 0
        assert len(probe_builds) == 1
        out = json.loads(capsys.readouterr().out)
        if command == "fisher":
            assert out["cutoff_used"] == probe_builds[0].n_max

    def test_empty_axis_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[sweep]\naxis = nbar\nvalues =\n")
        assert main(["sweep", str(path)]) == 1

    def test_numerical_violation_is_exit_two(self, tmp_path):
        # the child imports the package this process imported, installed or from src/
        src = os.path.dirname(os.path.dirname(tpa_metrology.__file__))
        env = dict(os.environ, TPA_CUTOFF_MAX="32", PYTHONPATH=src)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tpa_metrology.cli",
                "fisher",
                "--state",
                "sv",
                "--observable",
                "photon_number",
                "--nbar",
                "30",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "numerical contract violation" in proc.stderr

    def test_squeeze_scan_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "squeeze-scan",
                "--nbar",
                "3",
                "--eta",
                "0.8",
                "--points",
                "4",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 5  # header + 4 points

    def test_phase_scan_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "phase.csv"
        rc = main(
            [
                "phase-scan",
                "--nbar",
                "4",
                "--r",
                "0.31",
                "--points",
                "5",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 6

    def test_validate_subset(self, capsys):
        rc = main(["validate", "--checks", "squeezed-parity,generator-population-consistency"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS] squeezed-parity" in out

    def test_env_cutoff_cap_respected(self):
        from tpa_metrology.fock import cutoff_cap

        old = os.environ.get("TPA_CUTOFF_MAX")
        try:
            os.environ["TPA_CUTOFF_MAX"] = "123"
            assert cutoff_cap() == 123
        finally:
            if old is None:
                os.environ.pop("TPA_CUTOFF_MAX", None)
            else:
                os.environ["TPA_CUTOFF_MAX"] = old
