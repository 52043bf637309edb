import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import poisson

from tpa_metrology.channels import (
    LossSpec,
    binomial_loss_pmf,
    loss_channel,
    population_derivative,
    tpa_generator,
)
from tpa_metrology.fock import ProbeSpec, make_probe_state, moments


def fock_projector(n: int, dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


class TestTpaGenerator:
    def test_vacuum_fixed_point(self):
        assert np.allclose(tpa_generator(fock_projector(0, 8)), 0.0)

    def test_two_photon_state(self):
        diag = np.diagonal(tpa_generator(fock_projector(2, 8))).real
        assert diag[0] == pytest.approx(1.0)
        assert diag[2] == pytest.approx(-1.0)
        assert np.allclose(np.delete(diag, [0, 2]), 0.0)

    def test_four_photon_state_against_population_rule(self):
        # oracle: dP_n = (1/2)[(n+2)(n+1) P_{n+2} - n(n-1) P_n] at P = delta_4
        diag = np.diagonal(tpa_generator(fock_projector(4, 8))).real
        assert diag[2] == pytest.approx(0.5 * 4 * 3)
        assert diag[4] == pytest.approx(-0.5 * 4 * 3)

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        out = tpa_generator(rho)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestPopulationDerivative:
    def test_delta_two(self):
        dp = population_derivative(np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        assert dp[0] == pytest.approx(1.0)
        assert dp[2] == pytest.approx(-1.0)
        assert dp.sum() == pytest.approx(0.0, abs=1e-15)

    def test_fewer_than_two_photons(self):
        assert np.allclose(population_derivative(np.array([1.0, 0.0])), 0.0)
        assert np.allclose(population_derivative(np.array([0.0, 1.0, 0.0])), 0.0)

    def test_consistency_with_generator_diagonal(self):
        state = make_probe_state(ProbeSpec.squeezed_vacuum(1.0))
        p = state.populations()
        via_rho = np.diagonal(tpa_generator(np.diag(p.astype(complex)))).real
        assert np.max(np.abs(population_derivative(p) - via_rho)) < 1e-12


class TestLossChannel:
    def test_identity_at_full_transmission(self):
        rho = make_probe_state(ProbeSpec.coherent(1.0), 24).to_density_matrix()
        out = loss_channel(rho, LossSpec(1.0))
        assert np.allclose(out, rho)

    def test_coherent_stays_coherent(self):
        rho = make_probe_state(ProbeSpec.coherent(2.0)).to_density_matrix()
        out = loss_channel(rho, LossSpec(0.6))
        assert moments(out).mean_n == pytest.approx(0.6 * 4.0, rel=1e-9)
        target = make_probe_state(
            ProbeSpec.coherent(2.0 * math.sqrt(0.6)), out.shape[0] - 1
        ).amp
        fidelity = np.real(target.conj() @ out @ target)
        assert fidelity == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_variance_rule(self):
        # var_out = eta var_in + (1 - eta)/2 for each quadrature
        state = make_probe_state(ProbeSpec.squeezed_vacuum(1.0))
        eta = 0.35
        out = moments(loss_channel(state.to_density_matrix(), LossSpec(eta)))
        want_q = eta * math.exp(2.0) / 2.0 + (1.0 - eta) / 2.0
        want_p = eta * math.exp(-2.0) / 2.0 + (1.0 - eta) / 2.0
        assert out.var_q == pytest.approx(want_q, rel=1e-9)
        assert out.var_p == pytest.approx(want_p, rel=1e-9)

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        # binom.pmf overflows at the smallest normal eta; the Kraus weights must not
        for eta in (0.0, 0.2, 0.8, 2.2250738585072014e-308):
            g = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            out = loss_channel(rho, LossSpec(eta))
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_against_two_mode_beam_splitter(self):
        # oracle: couple to a vacuum ancilla with theta = arccos(sqrt(eta)), trace it out
        dim_s, dim_c, eta = 8, 10, 0.45
        rng = np.random.default_rng(3)
        g = rng.normal(size=(dim_s, dim_s)) + 1j * rng.normal(size=(dim_s, dim_s))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        ns, nc = np.arange(1, dim_s), np.arange(1, dim_c)
        a = np.zeros((dim_s, dim_s))
        a[ns - 1, ns] = np.sqrt(ns)
        c = np.zeros((dim_c, dim_c))
        c[nc - 1, nc] = np.sqrt(nc)
        theta = math.acos(math.sqrt(eta))
        u = expm(theta * (np.kron(a, c.T) - np.kron(a.T, c)))
        vac = np.zeros((dim_c, dim_c))
        vac[0, 0] = 1.0
        big = u @ np.kron(rho, vac) @ u.conj().T
        reduced = big.reshape(dim_s, dim_c, dim_s, dim_c).trace(axis1=1, axis2=3)
        assert np.max(np.abs(reduced - loss_channel(rho, LossSpec(eta)))) < 1e-10

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            LossSpec(1.2)
        with pytest.raises(ValueError):
            LossSpec(-0.1)


class TestBinomialLossPmf:
    def test_single_photon(self):
        out = binomial_loss_pmf(np.array([0.0, 1.0]), LossSpec(0.5))
        assert np.allclose(out, [0.5, 0.5])

    def test_two_photons(self):
        out = binomial_loss_pmf(np.array([0.0, 0.0, 1.0]), LossSpec(0.5))
        assert np.allclose(out, [0.25, 0.5, 0.25])

    def test_poisson_thinning(self):
        # thinning a Poisson(nbar) gives Poisson(eta nbar)
        nbar, eta, n_max = 5.0, 0.3, 80
        p_in = poisson.pmf(np.arange(n_max + 1), nbar)
        out = binomial_loss_pmf(p_in, LossSpec(eta))
        want = poisson.pmf(np.arange(n_max + 1), eta * nbar)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_matches_kraus_diagonal(self):
        rng = np.random.default_rng(5)
        p = rng.random(40)
        p /= p.sum()
        out = binomial_loss_pmf(p, LossSpec(0.7))
        via_kraus = np.diagonal(loss_channel(np.diag(p.astype(complex)), LossSpec(0.7))).real
        assert np.max(np.abs(out - via_kraus)) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            binomial_loss_pmf(np.array([0.5, 0.2]), LossSpec(0.5))


def first_order_pair(spec, cutoff=None, tail_tol=1e-10):
    """rho0 = |psi><psi| of the built probe and d rho / d eps = L(rho0) at eps = 0."""
    rho0 = make_probe_state(spec, cutoff, tail_tol=tail_tol).to_density_matrix()
    return rho0, tpa_generator(rho0)


class TestPerturbState:
    def test_vacuum_has_zero_derivative(self):
        _, drho = first_order_pair(ProbeSpec.vacuum())
        assert np.allclose(drho, 0.0)

    def test_coherent_intensity_slope(self):
        rho0, drho = first_order_pair(ProbeSpec.coherent(math.sqrt(2.0)))
        n = np.arange(rho0.shape[0])
        slope = float(np.dot(n, np.diagonal(drho).real))
        assert slope == pytest.approx(-4.0, rel=1e-9)

    def test_squeezed_vacuum_intensity_slope(self):
        n_r = math.sinh(1.0) ** 2
        rho0, drho = first_order_pair(ProbeSpec.squeezed_vacuum(1.0))
        n = np.arange(rho0.shape[0])
        slope = float(np.dot(n, np.diagonal(drho).real))
        assert slope == pytest.approx(-n_r * (1.0 + 3.0 * n_r), rel=1e-9)

    def test_invariants(self):
        # d rho / d eps is traceless and Hermitian
        _, drho = first_order_pair(ProbeSpec(r=0.7, alpha_abs=1.2, phi=0.5))
        assert abs(np.trace(drho)) <= 1e-12
        assert np.max(np.abs(drho - drho.conj().T)) <= 1e-12

    def test_first_order_against_rk4(self):
        # ||rho(eps) - rho0 - eps drho|| <= C eps^2 with stable C
        rho0, drho = first_order_pair(
            ProbeSpec(r=0.6, alpha_abs=1.0, phi=0.2), 48, tail_tol=1e-6
        )
        cs = []
        for eps in (1e-4, 1e-5):
            rho = rho0.copy()
            h = eps / 8
            for _ in range(8):
                k1 = tpa_generator(rho)
                k2 = tpa_generator(rho + 0.5 * h * k1)
                k3 = tpa_generator(rho + 0.5 * h * k2)
                k4 = tpa_generator(rho + h * k3)
                rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            err = np.linalg.norm(rho - rho0 - eps * drho)
            cs.append(err / eps**2)
        assert cs[0] == pytest.approx(cs[1], rel=0.05)

    def test_loss_commutes_with_linearity(self):
        # applying the loss channel to both members keeps trace/Hermiticity contracts
        _, drho = first_order_pair(ProbeSpec(r=0.5, alpha_abs=0.8, phi=1.0))
        loss = LossSpec(0.6)
        drho_lossy = loss_channel(drho, loss)
        assert abs(np.trace(drho_lossy)) < 1e-12
        assert np.max(np.abs(drho_lossy - drho_lossy.conj().T)) < 1e-12
