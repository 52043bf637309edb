"""Executable property suite covering the numerical contracts of every module.

Each check is a named callable that raises AssertionError on violation or
SkipCheck when not applicable (e.g. loss checks in an eta = 1 run).  The CLI
``validate`` subcommand renders the results as one line per check plus a
machine-readable JSON report and exits nonzero on any failure.
"""

from __future__ import annotations

import itertools
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .channels import (
    LossSpec,
    binomial_loss_pmf,
    loss_channel,
    population_derivative,
    tpa_generator,
)
from .distributions import quad_pdf_from_density, quad_pdf_pair_from_state, sv_pmf_closed_form
from .fock import (
    DEFAULT_TAIL_TOL,
    ProbeSpec,
    _hermite_blocks,
    _matrix_sums,
    apply_squeeze,
    ladder_matrices,
    make_probe_state,
    moments,
)
from .metrology import (
    fisher_from_state,
    fisher_photon_counting,
    sensitivity_analytic,
    sensitivity_from_state,
    sensitivity_numeric,
)
from .sweeps import SweepConfig, run_sweep


# Seed of the random states and pmfs the checks draw; fixed so reports repeat.
_SEED = 20230817


class SkipCheck(Exception):
    """Raised by a check that does not apply in the current configuration."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


@dataclass
class _Ctx:
    eta_values: tuple[float, ...]
    loss_checks_apply: bool
    rng: np.random.Generator


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_pmf(rng: np.random.Generator, dim: int) -> np.ndarray:
    p = rng.random(dim)
    return p / p.sum()


# ---------------------------------------------------------------------------
# fock-core
# ---------------------------------------------------------------------------


def check_norm_preservation(ctx: _Ctx) -> str:
    cases = [
        (ProbeSpec.coherent(10.0), DEFAULT_TAIL_TOL),
        (ProbeSpec(r=1.0, alpha_abs=1.0, phi=math.pi / 4), DEFAULT_TAIL_TOL),
        (ProbeSpec(r=1.5, alpha_abs=3.0, phi=math.pi / 2), DEFAULT_TAIL_TOL),
        # n_r ~ 100: the default tail_tol needs n_max ~ 4600; 1e-9 is met within the default cap
        (ProbeSpec.squeezed_vacuum(3.0), 1e-9),
    ]
    worst = 0.0
    for spec, tol in cases:
        state = make_probe_state(spec, tail_tol=tol)
        dev = abs(state.norm() - 1.0)
        assert dev < tol, f"norm deviation {dev:.2e} > {tol:.0e} for {spec}"
        worst = max(worst, dev)
    return f"{len(cases)} states, worst |norm-1| = {worst:.2e}"


def check_squeezed_parity(ctx: _Ctx) -> str:
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        state = make_probe_state(ProbeSpec.squeezed_vacuum(r))
        worst = max(worst, float(np.max(np.abs(state.amp[1::2]))))
    assert worst < 1e-14, f"odd squeezed-vacuum amplitude {worst:.2e}"
    return f"max odd amplitude {worst:.2e}"


def check_mean_photon_agreement(ctx: _Ctx) -> str:
    worst = 0.0
    for r, a, phi in itertools.product((0.0, 0.5, 1.5), (0.0, 1.0, 3.0), (0.0, 1.1, math.pi / 2)):
        spec = ProbeSpec(r=r, alpha_abs=a, phi=phi)
        expected = spec.mean_photon_number()
        got = moments(make_probe_state(spec)).mean_n
        rel = abs(got - expected) / max(expected, 1e-12) if expected else abs(got)
        assert rel < 1e-8, f"mean_n mismatch {rel:.2e} for {spec}"
        worst = max(worst, rel)
    return f"worst relative error {worst:.2e}"


def check_squeeze_unitarity(ctx: _Ctx) -> str:
    state = make_probe_state(ProbeSpec.coherent(1.5, 0.3), 128)
    there = apply_squeeze(state, 1.2, 0.7)
    back = apply_squeeze(there, -1.2, 0.7)
    fid = state.fidelity(back)
    assert abs(1.0 - fid) < 1e-10, f"fidelity after squeeze/unsqueeze {fid}"
    return f"|1 - fidelity| = {abs(1.0 - fid):.2e}"


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def check_loss_trace_preservation(ctx: _Ctx) -> str:
    if not ctx.loss_checks_apply:
        raise SkipCheck("not applicable at eta = 1")
    worst = 0.0
    for eta in ctx.eta_values:
        for _ in range(5):
            rho = _random_density(ctx.rng, 24)
            out = loss_channel(rho, LossSpec(eta))
            worst = max(worst, abs(np.trace(out).real - np.trace(rho).real))
    assert worst < 1e-12, f"trace deviation {worst:.2e}"
    return f"worst |trace change| = {worst:.2e}"


def check_generator_population_consistency(ctx: _Ctx) -> str:
    pmfs = [_random_pmf(ctx.rng, 48) for _ in range(10)]
    pmfs.append(make_probe_state(ProbeSpec.squeezed_vacuum(1.0)).populations())
    worst = 0.0
    for p in pmfs:
        direct = population_derivative(p)
        via_rho = np.diagonal(tpa_generator(np.diag(p.astype(complex)))).real
        worst = max(worst, float(np.max(np.abs(direct - via_rho))))
    assert worst < 1e-12, f"population/generator mismatch {worst:.2e}"
    return f"max elementwise difference {worst:.2e}"


def _rk4_evolve(rho0: np.ndarray, eps: float, steps: int, generator) -> np.ndarray:
    rho = rho0.copy()
    h = eps / steps
    for _ in range(steps):
        k1 = generator(rho)
        k2 = generator(rho + 0.5 * h * k1)
        k3 = generator(rho + 0.5 * h * k2)
        k4 = generator(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def first_order_gradient_check(generator: Callable[[np.ndarray], np.ndarray] = tpa_generator) -> float:
    """RK4 finite-absorbance propagation vs first-order prediction.

    Returns the spread of the fitted quadratic coefficient C = err / eps^2
    across eps values; raises AssertionError when the first-order term is
    wrong (C blows up as 1/eps) or unstable.
    """
    state = make_probe_state(ProbeSpec(r=0.8, alpha_abs=1.2, phi=0.4), 64, tail_tol=1e-5)
    rho0 = state.to_density_matrix()
    drho = generator(rho0)
    cs = []
    for eps in (1e-4, 1e-5):
        evolved = _rk4_evolve(rho0, eps, steps=8, generator=tpa_generator)
        err = float(np.linalg.norm(evolved - rho0 - eps * drho))
        cs.append(err / eps**2)
    ratio = cs[0] / cs[1]
    assert 0.5 < ratio < 2.0, (
        f"quadratic-residual coefficient unstable: C(1e-4)={cs[0]:.6g}, "
        f"C(1e-5)={cs[1]:.6g}, ratio={ratio:.3g}"
    )
    return ratio


def check_first_order_gradient(ctx: _Ctx) -> str:
    ratio = first_order_gradient_check()
    return f"C(eps)/C(eps/10) = {ratio:.4f}"


def check_kraus_binomial_equivalence(ctx: _Ctx) -> str:
    if not ctx.loss_checks_apply:
        raise SkipCheck("not applicable at eta = 1")
    worst = 0.0
    for i in range(100):
        dim = int(ctx.rng.integers(8, 65))
        eta = float(ctx.rng.uniform(0.05, 0.95))
        p = _random_pmf(ctx.rng, dim)
        via_pmf = binomial_loss_pmf(p, LossSpec(eta))
        via_kraus = np.diagonal(loss_channel(np.diag(p.astype(complex)), LossSpec(eta))).real
        worst = max(worst, float(np.max(np.abs(via_pmf - via_kraus))))
    assert worst < 1e-12, f"pmf/Kraus mismatch {worst:.2e}"
    return f"100 random pmfs, worst difference {worst:.2e}"


def check_kraus_two_mode_equivalence(ctx: _Ctx) -> str:
    if not ctx.loss_checks_apply:
        raise SkipCheck("not applicable at eta = 1")
    dim_s, dim_c = 10, 12
    rho = _random_density(ctx.rng, dim_s)  # the equivalence holds for any state
    a, c = (ladder_matrices(dim - 1)[0].real for dim in (dim_s, dim_c))
    worst = 0.0
    for eta in ctx.eta_values:
        theta = math.acos(math.sqrt(eta))
        gen = theta * (np.kron(a, c.T) - np.kron(a.T, c))
        u = expm(gen)
        vac = np.zeros((dim_c, dim_c))
        vac[0, 0] = 1.0
        big = u @ np.kron(rho, vac) @ u.conj().T
        reduced = big.reshape(dim_s, dim_c, dim_s, dim_c).trace(axis1=1, axis2=3)
        via_kraus = loss_channel(rho, LossSpec(eta))
        worst = max(worst, float(np.max(np.abs(reduced - via_kraus))))
    assert worst < 1e-10, f"two-mode/Kraus mismatch {worst:.2e}"
    return f"worst elementwise difference {worst:.2e}"


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def check_hermite_norms(ctx: _Ctx) -> str:
    x = np.linspace(-42.0, 42.0, 24001)
    worst = 0.0
    for _, block in _hermite_blocks(x, 512):  # integrated as streamed, never held whole
        assert np.isfinite(block).all(), "non-finite oscillator eigenfunction values"
        norms = np.trapezoid(block**2, x=x, axis=1)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    assert worst < 1e-8, f"norm deviation {worst:.2e}"
    return f"n <= 512, worst |norm-1| = {worst:.2e}"


def check_sv_pmf_closed_form(ctx: _Ctx) -> str:
    worst = 0.0
    for r in (0.5, 1.0, 1.5):
        state = make_probe_state(ProbeSpec.squeezed_vacuum(r))
        closed = sv_pmf_closed_form(math.sinh(r) ** 2, state.n_max).p
        worst = max(worst, float(np.max(np.abs(closed - state.populations()))))
    assert worst < 1e-12, f"closed form vs Fock populations {worst:.2e}"
    return f"worst difference {worst:.2e}"


def check_convolution_vs_kraus(ctx: _Ctx) -> str:
    if not ctx.loss_checks_apply:
        raise SkipCheck("not applicable at eta = 1")
    # truncation artifacts in the derivative density scale with the actual
    # truncated tail; keep it well under the 1e-6 contract
    state = make_probe_state(ProbeSpec(r=0.7, alpha_abs=1.0, phi=0.6), 64, tail_tol=1e-6)
    rho = state.to_density_matrix()
    worst = 0.0
    for eta in ctx.eta_values:
        for which in ("q", "p"):
            pdf, _ = quad_pdf_pair_from_state(state, LossSpec(eta), which)
            lossy = loss_channel(rho, LossSpec(eta))
            direct = quad_pdf_from_density(lossy, pdf.grid, which)
            worst = max(worst, float(np.max(np.abs(direct - pdf.density))))
    assert worst < 1e-8, f"convolution vs Kraus L-inf distance {worst:.2e}"
    return f"worst L-inf distance {worst:.2e}"


def check_pdf_moment_consistency(ctx: _Ctx) -> str:
    state = make_probe_state(ProbeSpec(r=0.9, alpha_abs=1.4, phi=0.8))
    rho = state.to_density_matrix()
    worst = 0.0
    for eta in ctx.eta_values:
        mom = moments(loss_channel(rho, LossSpec(eta)))
        for which in ("q", "p"):
            pdf, _ = quad_pdf_pair_from_state(state, LossSpec(eta), which)
            mean_ref = mom.mean_q if which == "q" else mom.mean_p
            var_ref = mom.var_q if which == "q" else mom.var_p
            worst = max(worst, abs(pdf.mean() - mean_ref), abs(pdf.var() - var_ref))
    assert worst < 1e-6, f"pdf moments vs operator moments {worst:.2e}"
    return f"worst moment difference {worst:.2e}"


def check_pdf_derivative_consistency(ctx: _Ctx) -> str:
    state = make_probe_state(ProbeSpec(r=0.8, alpha_abs=1.1, phi=0.3))
    drho = tpa_generator(state.to_density_matrix())
    worst = 0.0
    for eta in ctx.eta_values:
        drho_lossy = loss_channel(drho, LossSpec(eta)) if eta < 1.0 else drho
        dn, _, _, ea2 = _matrix_sums(drho_lossy)
        d_q2 = ea2.real + dn  # d<q^2>/d eps = Re tr(a^2 drho) + tr(n drho)
        d_p2 = -ea2.real + dn
        for which, ref in (("q", d_q2), ("p", d_p2)):
            pdf, dpdf = quad_pdf_pair_from_state(state, LossSpec(eta), which)
            got = float(np.trapezoid(pdf.grid**2 * dpdf.density, dx=pdf.dq))
            worst = max(worst, abs(got - ref))
    assert worst < 1e-6, f"pdf-side vs operator-side second-moment slope {worst:.2e}"
    return f"worst difference {worst:.2e}"


# ---------------------------------------------------------------------------
# metrology
# ---------------------------------------------------------------------------


def check_cramer_rao_ordering(ctx: _Ctx) -> str:
    worst = math.inf
    for spec, eta in (
        (ProbeSpec.coherent(2.0), 0.5),
        (ProbeSpec.squeezed_vacuum(1.0), 0.9),
        (ProbeSpec(r=0.8, alpha_abs=2.0, phi=math.pi / 2), 0.7),
        (ProbeSpec(r=0.5, alpha_abs=1.5, phi=0.0), 1.0),
    ):
        loss = LossSpec(eta)
        fi = fisher_photon_counting(spec, loss).fi
        sens = sensitivity_analytic(spec, loss, "photon_number")
        product = fi * sens.delta_eps_sq
        assert product >= 1.0 - 1e-6, f"Cramer-Rao violated: FI * deps2 = {product}"
        worst = min(worst, product)
    return f"min FI * deps2 = {worst:.4f}"


def check_analytic_numeric_agreement(ctx: _Ctx) -> str:
    worst = 0.0
    count = 0
    for r, a, phi in itertools.product((0.0, 0.5, 1.0, 1.5), (0.0, 1.0, 3.0),
                                       (0.0, math.pi / 4, math.pi / 2)):
        spec = ProbeSpec(r=r, alpha_abs=a, phi=phi)
        state = make_probe_state(spec)
        for eta, obs in itertools.product(ctx.eta_values, ("photon_number", "quad_q", "quad_p")):
            loss = LossSpec(eta)
            ana = sensitivity_analytic(spec, loss, obs)
            num = sensitivity_from_state(state, loss, obs)
            assert ana.diverges == num.diverges, f"divergence mismatch at {spec}, {eta}, {obs}"
            if not ana.diverges:
                rel = abs(ana.delta_eps_sq - num.delta_eps_sq) / ana.delta_eps_sq
                assert rel < 1e-6, f"relative difference {rel:.2e} at {spec}, eta={eta}, {obs}"
                worst = max(worst, rel)
                count += 1
    return f"{count} finite cases, worst relative difference {worst:.2e}"


def check_sv_eta_cancellation(ctx: _Ctx) -> str:
    details = []
    for n_r in (25.0, 50.0):
        spec = ProbeSpec.squeezed_vacuum(math.asinh(math.sqrt(n_r)))
        lossy = sensitivity_analytic(spec, LossSpec(0.2), "photon_number").delta_eps_sq
        ideal = sensitivity_analytic(spec, LossSpec(1.0), "photon_number").delta_eps_sq
        rel = abs(lossy - ideal) / ideal
        bound = 3.0 / (2.0 * 0.2 * n_r)
        assert rel < bound, f"eta-cancellation {rel:.3f} >= bound {bound:.3f} at n_r={n_r}"
        details.append(f"n_r={n_r:g}: {rel:.4f} < {bound:.4f}")
    spec = ProbeSpec.squeezed_vacuum(math.asinh(5.0))
    num = sensitivity_numeric(spec, LossSpec(0.2), "photon_number").delta_eps_sq
    ana = sensitivity_analytic(spec, LossSpec(0.2), "photon_number").delta_eps_sq
    assert abs(num - ana) / ana < 1e-6
    return "; ".join(details)


def check_coherent_fi_loss_linearity(ctx: _Ctx) -> str:
    if not ctx.loss_checks_apply:
        raise SkipCheck("not applicable at eta = 1")
    state = make_probe_state(ProbeSpec.coherent(math.sqrt(10.0)))
    fi_ideal = fisher_from_state(state, LossSpec(1.0), "photon_number").fi
    details = []
    for eta in (0.1, 0.9):
        ratio = fisher_from_state(state, LossSpec(eta), "photon_number").fi / fi_ideal
        assert abs(ratio - eta) < 0.01, f"FI(eta)/FI(1) = {ratio:.4f} vs eta = {eta}"
        details.append(f"eta={eta}: ratio={ratio:.4f}")
    return "; ".join(details)


def check_slope_sign_divergence(ctx: _Ctx) -> str:
    # amplitude-squeezed probes at fixed r: d<p>/d eps changes sign as the
    # seed amplitude grows, so the sensitivity passes through a pole
    r = math.asinh(math.sqrt(0.1))
    slopes = []
    for alpha in (0.1, 0.3, 0.5, 0.8, 1.2):
        spec = ProbeSpec(r=r, alpha_abs=alpha, phi=math.pi / 2)
        state = make_probe_state(spec)
        _, dpdf = quad_pdf_pair_from_state(state, LossSpec(1.0), "p")
        slopes.append(dpdf.mean())
    signs = np.sign(slopes)
    assert signs.min() < 0 < signs.max(), f"no slope sign change: {slopes}"
    flip = int(np.argmax(signs != signs[0]))
    return f"slope changes sign between alpha grid points {flip - 1} and {flip}"


# ---------------------------------------------------------------------------
# sweeps / cli
# ---------------------------------------------------------------------------


def check_sweep_determinism(ctx: _Ctx) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(
            state_family="sv",
            observable="photon_number",
            sweep_axis="nbar",
            axis_values=(0.5, 1.0, 2.0),
            fixed_params={"eta": 0.8},
        )
        paths = [Path(tmp) / f"out{i}.csv" for i in range(2)]
        for path in paths:
            run_sweep(SweepConfig(**cfg, output_path=str(path)))
        a, b = (p.read_bytes() for p in paths)
        assert a == b, "identical configs produced different CSV bytes"
    return "rerun byte-identical"


CHECKS: dict[str, Callable[[_Ctx], str]] = {
    "norm-preservation": check_norm_preservation,
    "squeezed-parity": check_squeezed_parity,
    "mean-photon-agreement": check_mean_photon_agreement,
    "squeeze-unitarity": check_squeeze_unitarity,
    "loss-trace-preservation": check_loss_trace_preservation,
    "generator-population-consistency": check_generator_population_consistency,
    "first-order-gradient": check_first_order_gradient,
    "kraus-binomial-equivalence": check_kraus_binomial_equivalence,
    "kraus-two-mode-equivalence": check_kraus_two_mode_equivalence,
    "hermite-norms": check_hermite_norms,
    "sv-pmf-closed-form": check_sv_pmf_closed_form,
    "convolution-vs-kraus": check_convolution_vs_kraus,
    "pdf-moment-consistency": check_pdf_moment_consistency,
    "pdf-derivative-consistency": check_pdf_derivative_consistency,
    "cramer-rao-ordering": check_cramer_rao_ordering,
    "analytic-numeric-agreement": check_analytic_numeric_agreement,
    "sv-eta-cancellation": check_sv_eta_cancellation,
    "coherent-fi-loss-linearity": check_coherent_fi_loss_linearity,
    "slope-sign-divergence": check_slope_sign_divergence,
    "sweep-determinism": check_sweep_determinism,
}


def run_validate(eta: float | None = None, checks: list[str] | None = None) -> list[CheckResult]:
    """Run the property suite; eta = 1 skips loss-specific checks as not applicable."""
    if eta is None:
        eta_values: tuple[float, ...] = (0.1, 0.5, 0.9, 1.0)
        loss_apply = True
    else:
        eta_values = (float(eta),)
        loss_apply = eta < 1.0
    ctx = _Ctx(eta_values=eta_values, loss_checks_apply=loss_apply, rng=np.random.default_rng(_SEED))
    selected = checks or list(CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
    results = []
    for name in selected:
        try:
            detail = CHECKS[name](ctx)
            results.append(CheckResult(name, "pass", detail))
        except SkipCheck as skip:
            results.append(CheckResult(name, "skip", str(skip)))
        except AssertionError as err:
            results.append(CheckResult(name, "fail", str(err)))
        except Exception as err:  # a crashed check is a failed contract, keep going
            results.append(CheckResult(name, "fail", f"{type(err).__name__}: {err}"))
    return results


def report_dict(results: list[CheckResult]) -> dict:
    return {
        "checks": [{"name": r.name, "status": r.status, "detail": r.detail} for r in results],
        "n_pass": sum(r.status == "pass" for r in results),
        "n_fail": sum(r.status == "fail" for r in results),
        "n_skip": sum(r.status == "skip" for r in results),
        "ok": all(r.status != "fail" for r in results),
    }
