"""The scan scope: squeeze eigendecompositions of one <n> computed once per (parity, size), bit for bit, and released."""

import contextlib
import math

import numpy as np
import pytest

from tpa_metrology import channels, fock, sweeps
from tpa_metrology.channels import LossSpec
from tpa_metrology.cli import main
from tpa_metrology.fock import ProbeSpec, make_probe_state
from tpa_metrology.metrology import squeeze_scan

pytestmark = pytest.mark.filterwarnings("ignore::tpa_metrology.exceptions.IllConditionedBinWarning")


@pytest.fixture
def eigh_calls(monkeypatch):
    """(parity, size) of every squeeze eigendecomposition computed while the test runs."""
    real = fock.eigh_tridiagonal
    calls = []

    def counting(d, e, **kwargs):
        # K_p's first off-diagonal entry is sqrt((p+1)(p+2))/2: sqrt(2)/2 or sqrt(6)/2
        calls.append((int(e.size > 0 and e[0] > 1.0), d.size))
        return real(d, e, **kwargs)

    monkeypatch.setattr(fock, "eigh_tridiagonal", counting)
    return calls


def _scan(tmp_path, command, *flags):
    out = tmp_path / f"{command}.csv"
    assert main([command, *flags, "--output", str(out)]) == 0
    return out.read_bytes()


def test_squeeze_scan_decomposes_each_size_once(eigh_calls, tmp_path, capsys):
    # 101 squeezes over the scan's doubling attempts, at dims 251, 252, 501,
    # 503, 1001, 1005 and 2001; a vacuum seed fills only the even half.  Every
    # point has <n> = 50 up to roundoff, which starts the cutoff at 250 or 251,
    # and the first (n_r = 0) squeezes nothing, so the ladders are held from
    # the first squeeze on.
    _scan(tmp_path, "squeeze-scan", "--nbar", "50", "--eta", "0.75", "--points", "33")
    assert sorted(eigh_calls) == [(0, 126), (0, 251), (0, 252), (0, 501), (0, 503), (0, 1001)]


def test_phase_scan_decomposes_each_size_once(eigh_calls, tmp_path, capsys):
    _scan(tmp_path, "phase-scan", "--nbar", "40", "--r", "1.2", "--eta", "0.5", "--points", "25")
    # of 49 squeezes: the first point holds nothing, as no earlier probe had its
    # <n>, so the second decomposes that ladder again and holds it
    assert sorted(eigh_calls) == [(0, 106), (0, 106), (0, 211), (0, 211), (0, 212)]


def test_an_nbar_sweep_holds_nothing(eigh_calls, tmp_path):
    # every point has its own <n>, so its own cutoff ladder: no two points
    # squeeze at the same sizes, and holding would only add memory
    values = (10.0, 25.0, 50.0, 75.0)
    config = sweeps.SweepConfig("squeezed_coherent", "photon_number", "nbar", values,
                                {"n_r": 4.0, "eta": 0.9}, str(tmp_path / "nbar.csv"))
    with channels._scan_scope():  # run_sweep's scope nests in this one, so its holder stays visible
        sweeps.run_sweep(config)
        assert fock._held_squeezes["nbar"] == pytest.approx(values[-1]) and fock._held_squeezes["eigs"] is None
        swept = list(eigh_calls)
        spec = sweeps.resolve_point("squeezed_coherent", {"n_r": 4.0, "nbar": values[-1]})[0]
        make_probe_state(spec)  # the same <n> again: its ladder is held from now on
        assert fock._held_squeezes["eigs"]
    assert len(set(swept)) == len(swept)  # each size was decomposed by one point only


def test_nothing_is_held_across_scans(eigh_calls):
    grid = np.linspace(0.0, 8.0, 5)
    squeeze_scan(8.0, LossSpec(0.75), n_r_values=grid)
    first = list(eigh_calls)
    squeeze_scan(8.0, LossSpec(0.75), n_r_values=grid)
    assert first and eigh_calls == first + first
    assert fock._held_squeezes is None


def test_held_decompositions_are_read_only():
    spec = ProbeSpec(r=0.7, phi_r=0.3, alpha_abs=1.5, phi=0.2)
    with channels._scan_scope():
        make_probe_state(spec)
        assert fock._held_squeezes["eigs"] is None  # no earlier probe had this <n>
        make_probe_state(spec)
        held = fock._held_squeezes["eigs"]
        with channels._scan_scope():  # a nested scope holds nothing of its own
            make_probe_state(spec)
        assert fock._held_squeezes["eigs"] is held
    assert held and {p for p, _ in held} == {0}  # a probe squeezes the vacuum: even half only
    for lam, vec in held.values():
        assert not lam.flags.writeable and not vec.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vec[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            lam *= 2.0
    assert fock._held_squeezes is None


def test_nothing_is_held_after_a_scan_point_raises(eigh_calls, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("TPA_CUTOFF_MAX", "300")
    argv = ["squeeze-scan", "--nbar", "50", "--eta", "0.75", "--points", "9", "--output", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    assert "numerical contract violation" in capsys.readouterr().err
    assert (0, 126) in eigh_calls  # dim 251 was decomposed, and held, before the failure
    assert fock._held_squeezes is None and channels._held_band is None
    eigh_calls.clear()
    make_probe_state(ProbeSpec(r=0.5, alpha_abs=1.0), 250)
    assert eigh_calls == [(0, 126)]


def test_probe_amplitudes_are_bit_identical_in_and_out_of_scope(eigh_calls):
    spec = ProbeSpec(r=math.asinh(math.sqrt(6.0)), alpha_abs=3.0, phi=math.pi / 2)
    outside = make_probe_state(spec).amp
    builds = len(eigh_calls)
    with channels._scan_scope():
        first, second, third = (make_probe_state(spec).amp for _ in range(3))
    assert len(eigh_calls) == 3 * builds  # the second build in scope holds, the third reuses
    assert all(np.array_equal(amp, outside) for amp in (first, second, third))


@pytest.mark.parametrize(
    "command, flags",
    [
        ("squeeze-scan", ("--nbar", "3", "--eta", "0.8", "--points", "5")),
        ("phase-scan", ("--nbar", "4", "--r", "0.31", "--eta", "0.5", "--points", "5")),
    ],
)
def test_scan_csv_is_byte_identical_without_the_scope(command, flags, eigh_calls, monkeypatch, tmp_path, capsys):
    scoped = _scan(tmp_path, command, *flags)
    reused = len(eigh_calls)
    monkeypatch.setattr(sweeps, "_scan_scope", contextlib.nullcontext)
    fresh = _scan(tmp_path, command, *flags)
    assert len(eigh_calls) - reused > reused  # the scope did spare decompositions
    assert scoped == fresh
