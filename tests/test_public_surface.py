"""Names that code outside the package imports must keep resolving.

bench/gate.py and bench/selftest.py (including the layer functions its tracer
must find) and the README quick start reach these attributes by name, so
deleting or renaming one breaks the benchmark or the documented example
without failing any other test.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tpa_metrology

SURFACE = {
    "tpa_metrology": (
        "IllConditionedBinWarning",
        "LossSpec",
        "ProbeSpec",
        "coherent_pmf",
        "fisher_discrete",
        "make_probe_state",
        "population_derivative",
        "sensitivity_analytic",
        "sensitivity_numeric",
        "sv_pmf_closed_form",
    ),
    "tpa_metrology.channels": (
        "apply_binomial_loss",
        "loss_channel",
        "population_derivative",
        "tpa_generator",
    ),
    "tpa_metrology.distributions": (
        "hermite_functions",
        "make_probe_state",
        "pmf_auto_cutoff",
        "pmf_pair_from_state",
        "quad_pdf_from_density",
        "quad_pdf_pair_from_state",
    ),
    "tpa_metrology.fock": (
        "apply_displacement",
        "apply_squeeze",
        "make_probe_state",
        "tail_estimate",
    ),
    "tpa_metrology.metrology": (
        "amplitude_for_mean_n",
        "fisher_continuous",
        "fisher_discrete",
        "fisher_from_state",
        "fisher_photon_counting",
        "make_probe_state",
        "sensitivity_analytic",
        "sensitivity_from_state",
        "sensitivity_numeric",
    ),
    "tpa_metrology.sweeps": ("run_sweep",),
    "tpa_metrology.validate": ("CHECKS", "make_probe_state"),
    "tpa_metrology.cli": ("main",),
}


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in SURFACE.items() for name in names]
)
def test_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    assert "FisherResult" in capsys.readouterr().out


def test_probe_constructors_resolve():
    from tpa_metrology import ProbeSpec

    assert ProbeSpec.coherent(1.0).alpha_abs == 1.0
    assert ProbeSpec.squeezed_vacuum(0.5).r == 0.5


@pytest.mark.parametrize("module", ["tpa_metrology", "tpa_metrology.cli"])
def test_import_leaves_out_scipy_stats(module):
    # scipy.stats takes about half a second to import, and every CLI run pays it
    src = os.path.dirname(os.path.dirname(tpa_metrology.__file__))
    code = f"import sys, {module}; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
