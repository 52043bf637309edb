import contextlib
import math
import warnings

import numpy as np
import pytest

from tpa_metrology import channels, metrology
from tpa_metrology.channels import LossSpec
from tpa_metrology.distributions import QuadPdf
from tpa_metrology.exceptions import IllConditionedBinWarning
from tpa_metrology.fock import ProbeSpec, make_probe_state
from tpa_metrology.metrology import (
    amplitude_for_mean_n,
    fisher_continuous,
    fisher_discrete,
    fisher_from_state,
    fisher_photon_counting,
    fisher_ratio_coh_over_sv,
    limit_table,
    sensitivity_analytic,
    sensitivity_from_state,
    sensitivity_numeric,
    squeeze_scan,
)


def sv_spec(nbar: float) -> ProbeSpec:
    return ProbeSpec.squeezed_vacuum(math.asinh(math.sqrt(nbar)))


class TestSensitivity:
    def test_coherent_photon_counting(self):
        # 1/(eta n^3) at n = 4, eta = 0.5
        res = sensitivity_numeric(ProbeSpec.coherent(2.0), LossSpec(0.5), "photon_number")
        assert res.delta_eps_sq == pytest.approx(1.0 / (0.5 * 64.0), rel=1e-9)
        assert res.delta_eps_sq == pytest.approx(0.03125, rel=1e-9)

    def test_sv_photon_counting(self):
        # (1/(eta n_r)) (1 + eta(2 n_r + 1)) / (1 + 3 n_r)^2 at n_r = 1, eta = 1
        res = sensitivity_numeric(sv_spec(1.0), LossSpec(1.0), "photon_number")
        assert res.delta_eps_sq == pytest.approx(0.25, rel=1e-6)

    def test_sv_quadrature_diverges(self):
        for obs in ("quad_q", "quad_p"):
            num = sensitivity_numeric(sv_spec(1.0), LossSpec(1.0), obs)
            ana = sensitivity_analytic(sv_spec(1.0), LossSpec(1.0), obs)
            assert num.diverges and ana.diverges

    def test_coherent_quadrature_formulas(self):
        spec = ProbeSpec.coherent(2.0, 0.4)
        for obs, trig in (("quad_q", math.cos(0.4)), ("quad_p", math.sin(0.4))):
            res = sensitivity_analytic(spec, LossSpec(0.8), obs)
            want = 1.0 / (0.8 * 64.0 * trig**2)
            assert res.delta_eps_sq == pytest.approx(want, rel=1e-12)

    def test_coherent_quadrature_divergence_at_orthogonal_phase(self):
        assert sensitivity_analytic(ProbeSpec.coherent(2.0, 0.0), LossSpec(1.0), "quad_p").diverges
        assert sensitivity_analytic(
            ProbeSpec.coherent(2.0, math.pi / 2), LossSpec(1.0), "quad_q"
        ).diverges

    def test_sv_large_n_limit(self):
        # 2/(9 n_r^2), independent of eta
        spec = sv_spec(200.0)
        limit = 2.0 / (9.0 * 200.0**2)
        for eta in (0.3, 1.0):
            res = sensitivity_analytic(spec, LossSpec(eta), "photon_number")
            assert res.delta_eps_sq == pytest.approx(limit, rel=0.02)

    def test_phase_squeezed_large_n_scaling(self):
        # e^{2r}/n^3 once the coherent part dominates; eta = 1 (at eta < 1 the
        # exact fixed-r asymptote carries a 1 + (1-eta) e^{-2r}/eta factor)
        r, n = 1.0, 2000.0
        alpha = amplitude_for_mean_n(n, math.sinh(r) ** 2, 0.0)
        res = sensitivity_analytic(
            ProbeSpec(r=r, alpha_abs=alpha, phi=0.0), LossSpec(1.0), "photon_number"
        )
        assert res.delta_eps_sq == pytest.approx(math.exp(2 * r) / n**3, rel=0.02)

    def test_numeric_agreement_sample(self):
        for spec, eta, obs in (
            (ProbeSpec(r=0.5, alpha_abs=1.0, phi=0.3), 0.7, "photon_number"),
            (ProbeSpec(r=1.0, alpha_abs=2.0, phi=1.2), 0.4, "quad_q"),
            (ProbeSpec(r=0.8, alpha_abs=1.5, phi=1.0), 0.9, "quad_p"),
        ):
            ana = sensitivity_analytic(spec, LossSpec(eta), obs)
            num = sensitivity_numeric(spec, LossSpec(eta), obs)
            assert num.delta_eps_sq == pytest.approx(ana.delta_eps_sq, rel=1e-6)

    @pytest.mark.parametrize("obs", ["photon_number", "quad_q", "quad_p"])
    def test_from_state_is_the_numeric_route(self, obs):
        spec, loss = ProbeSpec(r=0.5, alpha_abs=1.0, phi=0.3), LossSpec(0.7)
        assert sensitivity_from_state(make_probe_state(spec), loss, obs) == sensitivity_numeric(
            spec, loss, obs
        )

    def test_invalid_observable(self):
        with pytest.raises(ValueError):
            sensitivity_numeric(ProbeSpec.vacuum(), LossSpec(1.0), "energy")


class TestFisherDiscrete:
    def test_vacuum_is_zero(self):
        fi = fisher_photon_counting(ProbeSpec.vacuum(), LossSpec(1.0))
        assert fi.fi == 0.0

    def test_coherent_value(self):
        # n^3 + n^2/2 is exact for Poisson statistics at eta = 1
        fi = fisher_photon_counting(ProbeSpec.coherent(math.sqrt(10.0)), LossSpec(1.0))
        assert fi.fi == pytest.approx(1050.0, rel=1e-6)

    def test_sv_loss_ratio_at_moderate_n(self):
        # loss-independence sets in slowly: at n_r = 50 the eta = 0.1 and 0.9
        # FIs still differ by ~12% (converged value, cross-checked by a
        # finite-difference oracle); the 10% level is reached near n ~ 70
        a = fisher_photon_counting(sv_spec(50.0), LossSpec(0.1)).fi
        b = fisher_photon_counting(sv_spec(50.0), LossSpec(0.9)).fi
        assert a / b == pytest.approx(0.877, abs=0.005)

    def test_floor_policy_skips_empty_bins(self):
        p = np.array([0.5, 0.5, 0.0])
        dp = np.array([0.1, -0.1, 0.0])
        res = fisher_discrete(p, dp)
        assert res.fi == pytest.approx(0.01 / 0.5 * 2)
        assert res.ill_bins == 0

    def test_floor_policy_caps_ill_bins(self):
        p = np.array([1.0, 0.0])
        dp = np.array([0.0, 1e-3])
        with pytest.warns(IllConditionedBinWarning):
            res = fisher_discrete(p, dp)
        assert res.ill_bins == 1
        assert res.fi == pytest.approx(1e-6 / 1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fisher_discrete(np.array([1.0]), np.array([0.0, 0.0]))


class TestFisherContinuous:
    def test_vacuum_is_zero(self):
        fi = fisher_from_state(make_probe_state(ProbeSpec.vacuum()), LossSpec(1.0), "quad_q")
        assert fi.fi == pytest.approx(0.0, abs=1e-12)

    def test_sv_squeezed_quadrature_quartic(self):
        # leading order 32 n^4 at eta = 1; 15% tolerance at n = 10
        n = 10.0
        fi = fisher_from_state(make_probe_state(sv_spec(n)), LossSpec(1.0), "quad_p")
        assert fi.fi == pytest.approx(32.0 * n**4, rel=0.15)

    def test_sv_antisqueezed_quadratic(self):
        # leading order 21 n^2 / 2; 15% tolerance at n = 20, eta = 0.5
        n = 20.0
        fi = fisher_from_state(make_probe_state(sv_spec(n)), LossSpec(0.5), "quad_q")
        assert fi.fi == pytest.approx(10.5 * n**2, rel=0.15)

    def test_grid_mismatch_rejected(self):
        x1 = np.linspace(-1, 1, 11)
        x2 = np.linspace(-2, 2, 11)
        pdf = QuadPdf(x1, np.ones(11) / 2.0, float(x1[1] - x1[0]))
        dpdf = QuadPdf(x2, np.zeros(11), float(x2[1] - x2[0]))
        with pytest.raises(ValueError):
            fisher_continuous(pdf, dpdf)


class TestCramerRao:
    @pytest.mark.parametrize(
        "spec,eta",
        [
            (ProbeSpec.coherent(2.0), 0.5),
            (sv_spec(4.0), 0.8),
            (ProbeSpec(r=0.6, alpha_abs=1.5, phi=math.pi / 2), 0.9),
        ],
    )
    def test_fi_bounds_sensitivity(self, spec, eta):
        fi = fisher_photon_counting(spec, LossSpec(eta)).fi
        sens = sensitivity_analytic(spec, LossSpec(eta), "photon_number")
        assert fi * sens.delta_eps_sq >= 1.0 - 1e-6


class TestFisherRatio:
    def test_small_n_prefers_squeezed(self):
        assert fisher_ratio_coh_over_sv(3.0, LossSpec(0.99)) < 1.0

    def test_large_n_prefers_coherent(self):
        assert fisher_ratio_coh_over_sv(100.0, LossSpec(0.99)) > 1.0

    def test_tiny_n_limit(self):
        assert fisher_ratio_coh_over_sv(0.05, LossSpec(0.99)) < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fisher_ratio_coh_over_sv(0.0, LossSpec(0.5))


class TestLimitTable:
    def test_spot_values(self):
        rows = {(r.measurement, r.state, r.regime): r.value for r in limit_table(1.0, 30.0, 0.5)}
        assert rows[("photon_number", "squeezed_vacuum", "n_r >> 1")] == pytest.approx(
            2.0 / 8100.0
        )
        assert rows[("photon_number", "squeezed_vacuum", "n_r >> 1")] == pytest.approx(
            2.469e-4, rel=1e-3
        )
        assert rows[("photon_number", "coherent", "any n")] == pytest.approx(7.407e-5, rel=1e-3)

    def test_amplitude_squeezed_quadrature_row(self):
        rows = {(r.measurement, r.state, r.regime): r.value for r in limit_table(1.0, 100.0, 0.5)}
        want = (0.5 / 0.5) * math.exp(-2.0) / 1e6
        assert rows[("quad_p", "amplitude_squeezed", "alpha >> 1")] == pytest.approx(want)
        assert rows[("quad_p", "amplitude_squeezed", "alpha >> 1")] == pytest.approx(
            1.353e-7, rel=1e-3
        )

    def test_row_count(self):
        assert len(limit_table(1.0, 10.0, 0.9)) == 10


class TestSqueezeScan:
    def test_holds_mean_photon_number(self):
        nbar = 8.0
        for n_r in (0.0, 2.0, 8.0):
            alpha = amplitude_for_mean_n(nbar, n_r, math.pi / 2)
            spec = ProbeSpec(r=math.asinh(math.sqrt(n_r)), alpha_abs=alpha, phi=math.pi / 2)
            assert spec.mean_photon_number() == pytest.approx(nbar, rel=1e-12)

    def test_endpoint_is_squeezed_vacuum(self):
        assert amplitude_for_mean_n(5.0, 5.0, math.pi / 2) == 0.0
        with pytest.raises(ValueError):
            amplitude_for_mean_n(5.0, 6.0, math.pi / 2)

    def test_scan_returns_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            n_r, fi = squeeze_scan(4.0, LossSpec(0.9), n_r_values=np.linspace(0.0, 4.0, 5))
        assert len(n_r) == len(fi) == 5
        assert np.all(fi > 0.0)

    @pytest.mark.filterwarnings("ignore::tpa_metrology.exceptions.IllConditionedBinWarning")
    def test_scan_reuses_one_band_bit_identically(self, monkeypatch):
        sizes = []
        real_band_arrays = channels._band_arrays

        def counting(size, eta):
            sizes.append(size)
            return real_band_arrays(size, eta)

        monkeypatch.setattr(channels, "_band_arrays", counting)
        grid = np.linspace(0.0, 20.0, 9)
        _, scoped = squeeze_scan(20.0, LossSpec(0.75), n_r_values=grid, tail_tol=1e-8)
        builds = len(sizes)
        monkeypatch.setattr(metrology, "_scan_scope", contextlib.nullcontext)
        _, fresh = squeeze_scan(20.0, LossSpec(0.75), n_r_values=grid, tail_tol=1e-8)
        assert np.array_equal(scoped, fresh)
        assert len(sizes) - builds == grid.size
        # at the one eta, a band is rebuilt only for a larger cutoff
        assert builds < grid.size
        assert sizes[:builds] == sorted(set(sizes[:builds]))
