import math

import numpy as np
import pytest
from scipy.linalg import expm

from tpa_metrology.exceptions import TruncationError
from tpa_metrology.fock import (
    ProbeSpec,
    StateVector,
    apply_displacement,
    apply_squeeze,
    ladder_matrices,
    make_probe_state,
    moments,
)

SQRT2 = math.sqrt(2.0)


def dense_squeeze_oracle(r: float, phi_r: float, n_max: int) -> np.ndarray:
    """S(zeta)|0> via a dense matrix exponential, independent of the library path."""
    a, adag = ladder_matrices(n_max)
    zeta = r * np.exp(1j * phi_r)
    gen = 0.5 * zeta * (adag @ adag) - 0.5 * np.conj(zeta) * (a @ a)
    vac = np.zeros(n_max + 1, dtype=complex)
    vac[0] = 1.0
    return expm(gen) @ vac


class TestLadderMatrices:
    def test_entries(self):
        a, adag = ladder_matrices(2)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(math.sqrt(2.0))
        assert np.count_nonzero(a) == 2
        assert np.allclose(adag, a.conj().T)

    def test_number_operator_diagonal(self):
        a, adag = ladder_matrices(6)
        assert np.allclose(np.diagonal(adag @ a).real, np.arange(7))

    def test_commutator_truncation(self):
        n_max = 8
        a, adag = ladder_matrices(n_max)
        comm = a @ adag - adag @ a
        assert np.allclose(comm[:n_max, :n_max], np.eye(n_max))
        assert comm[n_max, n_max].real == pytest.approx(-n_max)

    def test_rejects_trivial_cutoff(self):
        with pytest.raises(ValueError):
            ladder_matrices(0)


class TestProbeSpec:
    def test_phase_reduction(self):
        spec = ProbeSpec(r=1.0, phi_r=2.0 * math.pi + 0.3, alpha_abs=1.0, phi=-0.5)
        assert spec.phi_r == pytest.approx(0.3)
        assert spec.phi == pytest.approx(2.0 * math.pi - 0.5)

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError):
            ProbeSpec(r=-0.1)
        with pytest.raises(ValueError):
            ProbeSpec(alpha_abs=-1.0)

    def test_vacuum_flag(self):
        assert ProbeSpec.vacuum().is_vacuum
        assert not ProbeSpec.squeezed_vacuum(0.1).is_vacuum

    def test_mean_photon_number_closed_form(self):
        spec = ProbeSpec(r=0.8, alpha_abs=1.5, phi=0.7)
        n_r = math.sinh(0.8) ** 2
        gain = 1.0 + 2.0 * n_r + 2.0 * math.sqrt(n_r * (1 + n_r)) * math.cos(1.4)
        assert spec.mean_photon_number() == pytest.approx(n_r + 2.25 * gain)


class TestMakeProbeState:
    def test_vacuum(self):
        state = make_probe_state(ProbeSpec.vacuum())
        assert state.amp[0] == pytest.approx(1.0)
        assert np.allclose(state.amp[1:], 0.0)

    def test_squeezed_vacuum_against_dense_expm(self):
        state = make_probe_state(ProbeSpec.squeezed_vacuum(1.0), 64, tail_tol=1e-8)
        oracle = dense_squeeze_oracle(1.0, 0.0, 64)
        assert np.max(np.abs(state.amp - oracle)) < 1e-12
        # mean shifts by ~n_cut * tail at a hard cutoff; spec contract is rel 1e-8
        assert moments(state).mean_n == pytest.approx(math.sinh(1.0) ** 2, rel=1e-8)

    def test_squeezed_vacuum_parity(self):
        state = make_probe_state(ProbeSpec.squeezed_vacuum(1.0))
        assert np.max(np.abs(state.amp[1::2])) < 1e-14

    def test_coherent_amplitudes(self):
        alpha = 1.3 * np.exp(0.4j)
        state = make_probe_state(ProbeSpec(alpha_abs=1.3, phi=0.4))
        n = np.arange(state.dim)
        from scipy.special import gammaln

        expected = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(alpha) - 0.5 * gammaln(n + 1.0))
        assert np.max(np.abs(state.amp - expected)) < 1e-12

    def test_ordering_identity(self):
        # S(zeta) D(alpha) |0> = D(alpha cosh r + conj(alpha) sinh r) S(zeta) |0>
        r, alpha = 0.5, 1.0
        lhs = make_probe_state(ProbeSpec(r=r, alpha_abs=alpha), 128)
        sv = StateVector(np.eye(129, dtype=complex)[0])
        sv = apply_squeeze(sv, r)
        rhs = apply_displacement(sv, alpha * math.cosh(r) + alpha * math.sinh(r))
        assert lhs.fidelity(rhs) > 1.0 - 1e-10

    def test_general_phase_against_dense_expm(self):
        # cutoff 128 so both operator orderings agree to machine precision
        spec = ProbeSpec(r=0.7, phi_r=1.1, alpha_abs=0.9, phi=2.0)
        state = make_probe_state(spec, 128, tail_tol=1e-8)
        a, adag = ladder_matrices(128)
        alpha = spec.alpha
        disp = expm(alpha * adag - np.conj(alpha) * a)
        vac = np.zeros(129, dtype=complex)
        vac[0] = 1.0
        zeta = spec.r * np.exp(1j * spec.phi_r)
        squeeze = expm(0.5 * zeta * (adag @ adag) - 0.5 * np.conj(zeta) * (a @ a))
        oracle = squeeze @ (disp @ vac)
        assert np.max(np.abs(state.amp - oracle)) < 1e-11

    def test_strict_cutoff_rejection(self):
        with pytest.raises(TruncationError):
            make_probe_state(ProbeSpec.squeezed_vacuum(2.0), 16)

    def test_fixed_cutoff_checked_against_tail_tol(self):
        # the one tail_tol bounds a fixed cutoff as it does the adaptive one
        spec = ProbeSpec(r=0.8, alpha_abs=1.2, phi=0.4)
        assert make_probe_state(spec, 64, tail_tol=1e-5).n_max == 64
        with pytest.raises(TruncationError):
            make_probe_state(spec, 64)

    def test_auto_cutoff_unreachable(self):
        with pytest.raises(TruncationError):
            make_probe_state(ProbeSpec.squeezed_vacuum(2.5), max_n=64)

    def test_norm_within_tail_tol(self):
        for spec in (
            ProbeSpec.squeezed_vacuum(2.0),
            ProbeSpec.coherent(6.0),
            ProbeSpec(r=1.0, alpha_abs=2.0, phi=1.0),
        ):
            state = make_probe_state(spec)
            assert abs(state.norm() - 1.0) < 1e-10

    def test_unitarity_roundtrip(self):
        state = make_probe_state(ProbeSpec.coherent(1.0, 0.6), 96)
        roundtrip = apply_squeeze(apply_squeeze(state, 0.9, 0.4), -0.9, 0.4)
        assert state.fidelity(roundtrip) > 1.0 - 1e-10


class TestMoments:
    def test_vacuum_quadrature_variances(self):
        mom = moments(make_probe_state(ProbeSpec.vacuum()))
        assert mom.var_q == pytest.approx(0.5)
        assert mom.var_p == pytest.approx(0.5)

    def test_coherent_poisson_statistics(self):
        mom = moments(make_probe_state(ProbeSpec.coherent(2.0)))
        assert mom.mean_n == pytest.approx(4.0, rel=1e-10)
        assert mom.var_n == pytest.approx(4.0, rel=1e-9)
        assert mom.mean_q == pytest.approx(2.0 * SQRT2, rel=1e-10)

    def test_squeezed_vacuum_variances(self):
        mom = moments(make_probe_state(ProbeSpec.squeezed_vacuum(1.0)))
        assert mom.var_q == pytest.approx(math.exp(2.0) / 2.0, rel=1e-9)
        assert mom.var_p == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-9)

    def test_matrix_and_vector_paths_agree(self):
        state = make_probe_state(ProbeSpec(r=0.6, alpha_abs=1.1, phi=0.8))
        mv = moments(state)
        mm = moments(state.to_density_matrix())
        for name in ("mean_n", "var_n", "mean_q", "var_q", "mean_p", "var_p"):
            assert getattr(mv, name) == pytest.approx(getattr(mm, name), abs=1e-10)

    def test_mean_matches_analytic_over_grid(self):
        for r in (0.0, 0.5, 1.5):
            for a in (0.0, 1.0, 3.0):
                spec = ProbeSpec(r=r, alpha_abs=a, phi=0.9)
                got = moments(make_probe_state(spec)).mean_n
                want = spec.mean_photon_number()
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
