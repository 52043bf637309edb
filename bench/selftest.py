"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from workloads import Step  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "selftest"


@pytest.fixture
def workdir(request):
    path = SCRATCH / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small_steps() -> list[Step]:
    """A few seconds of the same step kinds the workloads run."""
    sweep_ini = ("[sweep]\nstate_family = sv\nobservable = quad_q\naxis = eta\n"
                 "values = 0.3 0.6 0.9\n[fixed]\nnbar = 2\n")
    return [
        Step("squeeze_scan",
             ("squeeze-scan", "--nbar", "4", "--eta", "0.75", "--points", "5", "--output", "s.csv"),
             {"nbar": 4.0, "eta": 0.75, "phi": 1.5707963267948966, "points": 5}, 5, output="s.csv"),
        Step("fisher", ("fisher", "--state", "sv", "--observable", "quad_q", "--nbar", "2", "--eta", "0.5"),
             {"state": "sv", "observable": "quad_q", "nbar": 2.0, "eta": 0.5}, 1),
        Step("sweep", ("sweep", "eta.ini", "--output", "eta.csv"),
             {"state": "sv", "observable": "quad_q", "nbar": 2.0, "etas": (0.3, 0.6, 0.9)}, 3,
             output="eta.csv", files={"eta.ini": sweep_ini}),
        Step("validate", ("validate", "--checks", "hermite-norms,sv-pmf-closed-form"),
             {"checks": ("hermite-norms", "sv-pmf-closed-form")}, 2),
    ]


def test_seed_zero_is_the_operating_grid():
    argv = {w: [s.argv for s in workloads.steps(w, 0)] for w in workloads.WORKLOADS}
    assert argv["counting_scan"] == [
        ("squeeze-scan", "--nbar", "50.0", "--eta", "0.75", "--phi", "1.5707963267948966",
         "--points", "33", "--output", "squeeze_scan.csv"),
        ("fisher", "--state", "sv", "--observable", "photon_number", "--nbar", "50.0", "--eta", "0.1"),
    ]
    assert argv["homodyne_scan"][0] == (
        "fisher", "--state", "sv", "--observable", "quad_q", "--nbar", "40.0", "--eta", "0.5")
    assert argv["homodyne_scan"][2] == (
        "phase-scan", "--nbar", "40.0", "--r", "1.2", "--eta", "0.5", "--observable", "quad_p",
        "--points", "25", "--output", "phase_scan.csv")
    assert "values = 0.1 0.3 0.5 0.7 0.9" in workloads.steps("homodyne_scan", 0)[1].files["eta_sweep.ini"]
    assert argv["validate_suite"] == [("validate",)]


def test_seeds_are_reproducible_and_differ():
    for w in ("counting_scan", "homodyne_scan"):
        assert workloads.steps(w, 7) == workloads.steps(w, 7)
        assert workloads.steps(w, 7) != workloads.steps(w, 0)
        assert workloads.steps(w, 7) != workloads.steps(w, 8)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.metric_units()


def test_validate_check_names_match_the_suite():
    from tpa_metrology.validate import CHECKS

    assert tuple(CHECKS) == workloads.VALIDATE_CHECKS


def test_traced_and_untraced_outputs_match(workdir):
    steps = small_steps()
    runner = run.Runner(steps, workdir)
    results = {mode: runner.run_pass(mode, f"selftest-{mode}", 120.0) for mode in run.MODES}
    plain = results["plain"]
    for mode in ("spans", "memory"):
        for got, want in zip(results[mode]["steps"], plain["steps"]):
            assert got["rc"] == want["rc"] == 0
            assert run.same_output(got["stdout"], want["stdout"])
            assert run.same_output(got["csv"], want["csv"])
    names = {s[0] for s in results["spans"]["spans"]}
    assert {"cli.main", "fock.make_probe_state", "validate.hermite-norms"} <= names
    assert plain["spans"] is None
    assert max(s[6] for s in results["memory"]["spans"]) > 0
    assert all(s[6] == 0 for s in results["spans"]["spans"])
    attempted, failures = run.grade(steps, list(results.values()), Gate(seed=1))
    assert (attempted, failures) == (3 * 11, [])


def test_same_output_tolerates_only_last_digit_noise():
    assert run.same_output('"fi": 16240.801545430197,', '"fi": 16240.801545430582,')
    assert not run.same_output('"fi": 16240.8015,', '"fi": 16240.8016,')
    assert not run.same_output("0.5,20,sv", "0.5,20,coherent")
    assert not run.same_output("1,2", "1,2,3")


def test_wrapper_catches_reimported_names():
    import tpa_metrology
    from tpa_metrology import distributions, fock, metrology, validate

    original = fock.make_probe_state
    t = tracer.Tracer("selftest")
    t.install()
    try:
        assert metrology.make_probe_state is not original
        metrology.fisher_photon_counting(tpa_metrology.ProbeSpec.coherent(1.0),
                                         tpa_metrology.LossSpec(0.5))
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    assert names[0] == "metrology.fisher_photon_counting"
    # metrology and distributions call these through their own imported copies.
    assert {"fock.make_probe_state", "distributions.pmf_pair_from_state",
            "channels.apply_binomial_loss", "fock.tail_estimate"} <= set(names)
    build = names.index("fock.make_probe_state")
    assert t.spans[build][3] == 0 and t.spans[build][5] > 0
    assert t.absent == []
    for module in (fock, metrology, distributions, validate, tpa_metrology):
        assert module.make_probe_state is original
    assert all(not hasattr(fn, "__wrapped__") for fn in validate.CHECKS.values())


def test_missing_target_is_reported_absent(monkeypatch):
    from tpa_metrology import fock

    monkeypatch.delattr(fock, "apply_squeeze")
    t = tracer.Tracer("selftest")
    t.install()
    t.uninstall()
    assert t.absent == ["fock.apply_squeeze"]
    assert tracer.layer_metrics([])["fock.apply_squeeze.self_s"] == 0


def test_gate_counts_a_perturbed_fi(workdir, monkeypatch):
    from tpa_metrology import cli

    monkeypatch.chdir(workdir)
    (scan, *_) = small_steps()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(scan.argv)) == 0
    text = (workdir / scan.output).read_text()
    out = {"rc": 0, "error": None, "stdout": "", "csv": text}
    gate = Gate(seed=1)
    assert gate.check_step(scan, out) == []

    head, last = text.rstrip("\n").rsplit("\n", 1)
    fields = last.split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-4))
    perturbed = dict(out, csv=head + "\n" + ",".join(fields) + "\n")
    assert len(gate.check_step(scan, perturbed)) == 1
    assert len(gate.check_step(scan, dict(out, rc=2))) == scan.ops

    point = workloads.steps("homodyne_scan", 0)[0]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["fisher"]["quad_q"]
    report = {"rc": 0, "error": None, "csv": None}
    assert Gate(seed=0).check_step(point, dict(report, stdout=json.dumps({"fi": reference}))) == []
    bad = dict(report, stdout=json.dumps({"fi": reference * (1.0 + 1e-4)}))
    assert len(Gate(seed=0).check_step(point, bad)) == 1


def test_bare_benchmark_directory_fails_without_a_result(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH_DIR, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "counting_scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.xfail(strict=True, reason="known defect: at <n> = 50.456034 sinh(asinh(sqrt(n)))**2 "
                   "exceeds n by 7e-15 and amplitude_for_mean_n rejects the sv endpoint")
def test_squeeze_scan_endpoint_at_any_nbar(workdir, monkeypatch):
    from tpa_metrology import cli

    monkeypatch.chdir(workdir)
    argv = ["squeeze-scan", "--nbar", "50.456034", "--eta", "0.75", "--points", "3", "--output", "s.csv"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
