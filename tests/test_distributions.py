import math

import numpy as np
import pytest

from tpa_metrology.channels import LossSpec, loss_channel, tpa_generator
from tpa_metrology.distributions import (
    Pmf,
    coherent_pmf,
    hermite_functions,
    pmf_pair_from_state,
    quad_pdf_from_density,
    quad_pdf_pair_from_state,
    sv_pmf_closed_form,
)
from tpa_metrology.exceptions import GridError
from tpa_metrology.fock import ProbeSpec, StateVector, make_probe_state, moments


class TestSvPmfClosedForm:
    def test_vacuum_limit(self):
        pmf = sv_pmf_closed_form(0.0, 10)
        assert pmf.p[0] == pytest.approx(1.0)
        assert np.allclose(pmf.p[1:], 0.0)

    def test_nbar_one_values(self):
        # brute force from the Fock amplitudes of S(r)|0> with sinh^2 r = 1
        r = math.asinh(1.0)
        state = make_probe_state(ProbeSpec.squeezed_vacuum(r))
        pmf = sv_pmf_closed_form(1.0, state.n_max)
        assert pmf.p[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert pmf.p[2] == pytest.approx(state.populations()[2], rel=1e-12)
        assert pmf.p[2] == pytest.approx(0.17678, rel=1e-4)

    def test_matches_fock_construction(self):
        for r in (0.4, 1.0, 1.5):
            state = make_probe_state(ProbeSpec.squeezed_vacuum(r))
            closed = sv_pmf_closed_form(math.sinh(r) ** 2, state.n_max)
            assert np.max(np.abs(closed.p - state.populations())) < 1e-12

    def test_normalization_converges(self):
        assert sv_pmf_closed_form(5.0, 400).total() == pytest.approx(1.0, abs=1e-10)

    def test_mean(self):
        assert sv_pmf_closed_form(3.0, 300).mean() == pytest.approx(3.0, rel=1e-10)


class TestCoherentPmf:
    def test_vacuum_limit(self):
        assert coherent_pmf(0.0, 8).p[0] == pytest.approx(1.0)

    def test_poisson_value(self):
        assert coherent_pmf(1.0, 40).p[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_mean(self):
        assert coherent_pmf(10.0, 200).mean() == pytest.approx(10.0, abs=1e-10)


class TestPmfWithDerivative:
    def test_vacuum_derivative_zero(self):
        state = make_probe_state(ProbeSpec.vacuum())
        _, dpmf = pmf_pair_from_state(state, LossSpec(0.7))
        assert np.allclose(dpmf, 0.0)

    def test_coherent_intensity_slope(self):
        # sum_n n dP_n = -eta |alpha|^4 with |alpha|^2 = 4, eta = 1
        state = make_probe_state(ProbeSpec.coherent(2.0))
        pmf, dpmf = pmf_pair_from_state(state, LossSpec(1.0))
        slope = float(np.dot(np.arange(pmf.p.size), dpmf))
        assert slope == pytest.approx(-16.0, rel=1e-9)

    def test_sv_eta_linearity(self):
        # r = 1 probe; slope is eta-linear: -eta n_r (1 + 3 n_r) = -0.5 * 7.1034
        n_r = math.sinh(1.0) ** 2
        state = make_probe_state(ProbeSpec.squeezed_vacuum(1.0))
        pmf, dpmf = pmf_pair_from_state(state, LossSpec(0.5))
        slope = float(np.dot(np.arange(pmf.p.size), dpmf))
        assert slope == pytest.approx(-0.5 * n_r * (1 + 3 * n_r), rel=1e-9)
        assert slope == pytest.approx(-3.5517, rel=1e-4)

    def test_derivative_sums_to_zero(self):
        state = make_probe_state(ProbeSpec(r=0.8, alpha_abs=1.5, phi=0.3))
        _, dpmf = pmf_pair_from_state(state, LossSpec(0.4))
        assert abs(dpmf.sum()) < 1e-12

    def test_pmf_normalized(self):
        state = make_probe_state(ProbeSpec(r=0.5, alpha_abs=1.0, phi=0.1))
        pmf, _ = pmf_pair_from_state(state, LossSpec(0.25))
        assert pmf.total() == pytest.approx(1.0, abs=1e-9)


class TestPmfType:
    def test_clips_roundoff_negatives(self):
        pmf = Pmf(np.array([1.0, -1e-15]))
        assert pmf.p[1] == 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            Pmf(np.array([1.0, -1e-3]))


class TestHermiteFunctions:
    def test_ground_state(self):
        x = np.array([0.0, 1.0])
        psi = hermite_functions(x, 0)
        assert psi[0, 0] == pytest.approx(math.pi ** (-0.25))

    def test_orthonormality_small(self):
        x = np.linspace(-12, 12, 4001)
        psi = hermite_functions(x, 20)
        gram = psi @ psi.T * (x[1] - x[0])
        assert np.max(np.abs(gram - np.eye(21))) < 1e-8

    def test_stability_to_512(self):
        x = np.linspace(-42.0, 42.0, 24001)
        psi = hermite_functions(x, 512)
        assert np.isfinite(psi).all()
        norms = np.trapezoid(psi**2, x=x, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_underflow_region_recovers(self):
        # beyond |x| ~ 38.6 the Gaussian seed underflows, but psi_n with
        # n > x^2/2 must still come out finite and nonzero
        x = np.array([40.0])
        psi = hermite_functions(x, 900)
        assert psi[900, 0] != 0.0
        assert np.isfinite(psi[900, 0])


class TestQuadPdf:
    def test_vacuum_density(self):
        state = make_probe_state(ProbeSpec.vacuum())
        pdf, dpdf = quad_pdf_pair_from_state(state, LossSpec(1.0), "q")
        mid = np.argmin(np.abs(pdf.grid))
        assert pdf.density[mid] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)
        assert np.allclose(dpdf.density, 0.0)

    def test_squeezed_vacuum_p_variance(self):
        # Gaussian moment oracle: var_p = e^{-2r}/2 at eta = 1
        r = 1.0
        state = make_probe_state(ProbeSpec.squeezed_vacuum(r))
        pdf, _ = quad_pdf_pair_from_state(state, LossSpec(1.0), "p")
        assert pdf.var() == pytest.approx(math.exp(-2.0 * r) / 2.0, rel=1e-8)

    def test_squeezed_vacuum_lossy_q_variance(self):
        # variance mixing rule: 0.5 e^2/2 + 0.25
        state = make_probe_state(ProbeSpec.squeezed_vacuum(1.0))
        pdf, _ = quad_pdf_pair_from_state(state, LossSpec(0.5), "q")
        assert pdf.var() == pytest.approx(0.5 * math.exp(2.0) / 2.0 + 0.25, rel=1e-7)
        assert pdf.var() == pytest.approx(2.09727, rel=1e-4)

    def test_density_normalized_and_derivative_traceless(self):
        state = make_probe_state(ProbeSpec(r=0.8, alpha_abs=1.2, phi=0.7))
        pdf, dpdf = quad_pdf_pair_from_state(state, LossSpec(0.6), "q")
        assert pdf.integral() == pytest.approx(1.0, abs=1e-6)
        assert abs(dpdf.integral()) < 1e-6

    def test_coherent_mean_after_loss(self):
        alpha, eta = 1.5, 0.4
        state = make_probe_state(ProbeSpec.coherent(alpha))
        pdf, _ = quad_pdf_pair_from_state(state, LossSpec(eta), "q")
        assert pdf.mean() == pytest.approx(math.sqrt(2 * eta) * alpha, rel=1e-8)

    def test_grid_too_narrow_raises(self):
        # a density that does not integrate to 1 +- 1e-6 breaks the grid contract
        state = make_probe_state(ProbeSpec.coherent(2.0))
        with pytest.raises(GridError):
            quad_pdf_pair_from_state(StateVector(0.999 * state.amp), LossSpec(1.0), "q")

    def test_convolution_matches_kraus_marginal(self):
        # rescale-and-convolve equals the Kraus channel followed by the marginal
        state = make_probe_state(ProbeSpec(r=0.7, alpha_abs=1.0, phi=0.6), 64, tail_tol=1e-6)
        for eta, which in ((0.3, "q"), (0.8, "p")):
            pdf, _ = quad_pdf_pair_from_state(state, LossSpec(eta), which)
            lossy = loss_channel(state.to_density_matrix(), LossSpec(eta))
            direct = quad_pdf_from_density(lossy, pdf.grid, which)
            assert np.max(np.abs(direct - pdf.density)) < 1e-8

    def test_moment_consistency_with_operators(self):
        spec = ProbeSpec(r=0.9, alpha_abs=1.4, phi=0.8)
        state = make_probe_state(spec)
        eta = 0.55
        lossy = loss_channel(state.to_density_matrix(), LossSpec(eta))
        mom = moments(lossy)
        pdf_q, _ = quad_pdf_pair_from_state(state, LossSpec(eta), "q")
        pdf_p, _ = quad_pdf_pair_from_state(state, LossSpec(eta), "p")
        assert pdf_q.mean() == pytest.approx(mom.mean_q, abs=1e-6)
        assert pdf_q.var() == pytest.approx(mom.var_q, abs=1e-6)
        assert pdf_p.mean() == pytest.approx(mom.mean_p, abs=1e-6)
        assert pdf_p.var() == pytest.approx(mom.var_p, abs=1e-6)

    def test_derivative_second_moment_matches_operator_side(self):
        spec = ProbeSpec(r=0.8, alpha_abs=1.1, phi=0.3)
        state = make_probe_state(spec)
        eta = 0.7
        drho = tpa_generator(state.to_density_matrix())
        drho_lossy = loss_channel(drho, LossSpec(eta))
        n = np.arange(drho_lossy.shape[0], dtype=float)
        ea2 = complex(np.sum(np.sqrt(n[2:] * (n[2:] - 1.0)) * np.diagonal(drho_lossy, -2)))
        dn = float(np.dot(n, np.diagonal(drho_lossy).real))
        pdf, dpdf = quad_pdf_pair_from_state(state, LossSpec(eta), "q")
        got = float(np.trapezoid(pdf.grid**2 * dpdf.density, dx=pdf.dq))
        assert got == pytest.approx(ea2.real + dn, abs=1e-6)

    def test_p_density_distinguishes_phase(self):
        # coherent state along p: its p-density is displaced, q-density centered
        spec = ProbeSpec(alpha_abs=1.5, phi=math.pi / 2)
        state = make_probe_state(spec)
        pdf_p, _ = quad_pdf_pair_from_state(state, LossSpec(1.0), "p")
        pdf_q, _ = quad_pdf_pair_from_state(state, LossSpec(1.0), "q")
        assert pdf_p.mean() == pytest.approx(1.5 * math.sqrt(2.0), rel=1e-8)
        assert abs(pdf_q.mean()) < 1e-9
