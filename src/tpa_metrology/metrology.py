"""Sensitivities and classical Fisher information for TPA detection.

The numeric route evaluates measurement distributions from the truncated-Fock
pipeline; the analytic route evaluates closed-form expressions for the same
quantities (squeezed-coherent probes with squeezing phase zero, coherent and
squeezed vacuum as special cases).  Both evaluate at zero absorbance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import LossSpec, _reused_band, apply_binomial_loss, population_derivative
from .distributions import (
    Pmf,
    QuadPdf,
    coherent_pmf,
    pmf_auto_cutoff,
    pmf_pair_from_state,
    quad_pdf_pair_from_state,
    sv_pmf_closed_form,
)
from .exceptions import GridError, IllConditionedBinWarning
from .fock import DEFAULT_TAIL_TOL, ProbeSpec, StateVector, make_probe_state

OBSERVABLES = ("photon_number", "quad_q", "quad_p")

P_FLOOR = 1e-14
D_FLOOR = 1e-14
# A slope integral cancelling below this fraction of its absolute mass is
# treated as exactly zero (divergent sensitivity).
_SLOPE_CANCEL = 1e-9


@dataclass(frozen=True)
class SensitivityResult:
    """Variance of the absorbance estimate from error propagation, Var(O)/|d<O>/d eps|^2."""

    delta_eps_sq: float | None
    observable: str
    source: str
    diverges: bool = False

    def inverse(self) -> float | None:
        if self.diverges:
            return None
        return 1.0 / self.delta_eps_sq


@dataclass(frozen=True)
class FisherResult:
    """Classical Fisher information per unit squared absorbance."""

    fi: float
    observable: str
    ill_bins: int = 0


def _check_observable(observable: str) -> None:
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}, got {observable!r}")


def _error_propagation(var_det: float, slope: float, observable: str, source: str) -> SensitivityResult:
    """Var(O)/slope^2; a slope whose square underflows to 0 diverges like a zero slope."""
    if slope**2 == 0.0:
        return SensitivityResult(None, observable, source, diverges=True)
    return SensitivityResult(var_det / slope**2, observable, source)


def _finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise GridError(f"{what} is {value!r}: the detected distribution is not resolved")


# ---------------------------------------------------------------------------
# closed-form squeezed-coherent statistics (squeezing phase zero)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ScStats:
    n_r: float
    sc: float  # sinh r cosh r
    a2: float  # |alpha|^2
    gain: float  # <n> = n_r + a2 * gain
    nbar: float
    pair_moment: float  # <a_dag^2 a^2>
    var_n: float


def _sc_stats(r: float, alpha_abs: float, phi: float) -> _ScStats:
    s, c = math.sinh(r), math.cosh(r)
    n_r = s * s
    sc = s * c
    a2 = alpha_abs * alpha_abs
    c2 = math.cos(2.0 * phi)
    gain = 1.0 + 2.0 * n_r + 2.0 * sc * c2
    nbar = n_r + a2 * gain
    u = sc * (1.0 + 2.0 * a2) + a2 * (1.0 + 2.0 * n_r) * c2
    v = a2 * math.sin(2.0 * phi)
    pair = u * u + v * v + 4.0 * n_r * a2 * gain + 2.0 * n_r * n_r
    var_n = pair + nbar - nbar * nbar
    return _ScStats(n_r=n_r, sc=sc, a2=a2, gain=gain, nbar=nbar, pair_moment=pair, var_n=var_n)


def _analytic_photon_number(spec: ProbeSpec, eta: float) -> tuple[float, float]:
    """(detected variance, detected slope) for photon counting; any squeezing phase."""
    phi_eff = spec.phi - 0.5 * spec.phi_r  # photon statistics only see phi - phi_r/2
    st = _sc_stats(spec.r, spec.alpha_abs, phi_eff)
    var_det = eta * eta * st.var_n + eta * (1.0 - eta) * st.nbar
    slope = -eta * st.pair_moment
    return var_det, slope


def _snap_zero(value: float, tol: float = 1e-12) -> float:
    """Treat angles like phi = pi/2 as exact zeros of cos/sin despite float pi."""
    return 0.0 if abs(value) < tol else value


def _analytic_quadrature(spec: ProbeSpec, eta: float, which: str) -> tuple[float, float]:
    """(detected variance, detected slope) for a quadrature; needs phi_r = 0."""
    if spec.phi_r != 0.0:
        raise ValueError("analytic quadrature sensitivities assume squeezing phase zero")
    st = _sc_stats(spec.r, spec.alpha_abs, spec.phi)
    root = math.sqrt(eta / 2.0)
    if which == "q":
        var_det = 0.5 * eta * math.exp(2.0 * spec.r) + 0.5 * (1.0 - eta)
        trig = _snap_zero(math.cos(spec.phi))
        slope = (
            -root
            * spec.alpha_abs
            * trig
            * math.exp(spec.r)
            * (2.0 * st.n_r + st.sc + st.a2 * st.gain)
        )
    else:
        var_det = 0.5 * eta * math.exp(-2.0 * spec.r) + 0.5 * (1.0 - eta)
        trig = _snap_zero(math.sin(spec.phi))
        slope = (
            -root
            * spec.alpha_abs
            * trig
            * math.exp(-spec.r)
            * (2.0 * st.n_r - st.sc + st.a2 * st.gain)
        )
    return var_det, slope


def sensitivity_analytic(spec: ProbeSpec, loss: LossSpec, observable: str) -> SensitivityResult:
    """Closed-form error-propagation sensitivity at zero absorbance."""
    _check_observable(observable)
    if observable == "photon_number":
        var_det, slope = _analytic_photon_number(spec, loss.eta)
    else:
        var_det, slope = _analytic_quadrature(spec, loss.eta, observable[-1])
    return _error_propagation(var_det, slope, observable, "analytic")


def _detected_pair(state: StateVector, loss: LossSpec, observable: str) -> tuple:
    """(distribution, d/d eps) of one observable after loss: a pmf pair or a q/p density pair."""
    _check_observable(observable)
    if observable == "photon_number":
        return pmf_pair_from_state(state, loss)
    return quad_pdf_pair_from_state(state, loss, observable[-1])


def sensitivity_from_state(state: StateVector, loss: LossSpec, observable: str) -> SensitivityResult:
    """Error-propagation sensitivity of an already-built probe state, one observable after loss."""
    dist, deriv = _detected_pair(state, loss, observable)
    if isinstance(dist, Pmf):
        n = np.arange(dist.p.size, dtype=float)
        slope = float(np.dot(n, deriv))
        slope_mass = float(np.dot(n, np.abs(deriv)))
    else:
        weighted = dist.grid * deriv.density
        slope = float(np.trapezoid(weighted, dx=dist.dq))
        slope_mass = float(np.trapezoid(np.abs(weighted), dx=dist.dq))
    if slope_mass == 0.0 or abs(slope) < _SLOPE_CANCEL * slope_mass:
        slope = 0.0  # cancelled to roundoff
    res = _error_propagation(dist.var(), slope, observable, "numeric")
    if not res.diverges:
        _finite(res.delta_eps_sq, "numeric sensitivity")
    return res


def sensitivity_numeric(
    spec: ProbeSpec, loss: LossSpec, observable: str, *, tail_tol: float = DEFAULT_TAIL_TOL
) -> SensitivityResult:
    """Error-propagation sensitivity from the truncated-Fock measurement distributions."""
    return sensitivity_from_state(make_probe_state(spec, tail_tol=tail_tol), loss, observable)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def _fisher_terms(p: np.ndarray, dp: np.ndarray) -> tuple[np.ndarray, int]:
    skip = (p < P_FLOOR) & (np.abs(dp) < D_FLOOR)
    ill = (p < P_FLOOR) & ~skip
    n_ill = int(np.count_nonzero(ill))
    if n_ill:
        warnings.warn(
            f"{n_ill} bins with probability below {P_FLOOR:.0e} but non-negligible "
            "derivative; terms capped at the probability floor",
            IllConditionedBinWarning,
            stacklevel=3,
        )
    denom = np.where(p < P_FLOOR, P_FLOOR, p)
    terms = np.where(skip, 0.0, dp * dp / denom)
    return terms, n_ill


def fisher_discrete(
    pmf: Pmf | np.ndarray, dpmf: np.ndarray, observable: str = "photon_number"
) -> FisherResult:
    """F = sum_n (dP_n/d eps)^2 / P_n with floor handling for empty bins."""
    p = pmf.p if isinstance(pmf, Pmf) else np.asarray(pmf, dtype=float)
    dp = np.asarray(dpmf, dtype=float)
    if p.shape != dp.shape:
        raise ValueError(f"pmf and derivative lengths differ: {p.shape} vs {dp.shape}")
    terms, n_ill = _fisher_terms(p, dp)
    return FisherResult(float(terms.sum()), observable, n_ill)


def fisher_continuous(pdf: QuadPdf, dpdf: QuadPdf, observable: str = "quad_q") -> FisherResult:
    """F = integral (dP/d eps)^2 / P dq by trapezoid, same floor policy per grid point."""
    if pdf.grid.shape != dpdf.grid.shape or not np.allclose(pdf.grid, dpdf.grid):
        raise ValueError("pdf and derivative must share the same grid")
    terms, n_ill = _fisher_terms(pdf.density, dpdf.density)
    return FisherResult(float(np.trapezoid(terms, dx=pdf.dq)), observable, n_ill)


def fisher_from_state(state: StateVector, loss: LossSpec, observable: str) -> FisherResult:
    """FI of an already-built probe state for one observable after loss."""
    dist, deriv = _detected_pair(state, loss, observable)
    if isinstance(dist, Pmf):
        res = fisher_discrete(dist, deriv)
    else:
        res = fisher_continuous(dist, deriv, observable=observable)
    _finite(res.fi, "Fisher information")
    return res


def fisher_photon_counting(
    spec: ProbeSpec, loss: LossSpec, *, tail_tol: float = DEFAULT_TAIL_TOL
) -> FisherResult:
    """Photon-counting FI of a probe through TPA derivative and binomial loss."""
    return fisher_from_state(make_probe_state(spec, tail_tol=tail_tol), loss, "photon_number")


def fisher_ratio_coh_over_sv(nbar: float, loss: LossSpec) -> float:
    """Ratio of photon-counting FIs, coherent over squeezed vacuum, at equal incident <n>.

    Below one the squeezed probe carries more information.  Uses the
    closed-form distributions; the Fock route is cross-checked in validation.
    """
    if nbar <= 0.0:
        raise ValueError("nbar must be positive")
    n_max = max(pmf_auto_cutoff("sv", nbar), pmf_auto_cutoff("coherent", nbar))
    fis = {}
    for kind, builder in (("coherent", coherent_pmf), ("sv", sv_pmf_closed_form)):
        p0 = builder(nbar, n_max).p
        p, dp = apply_binomial_loss(np.stack([p0, population_derivative(p0)], axis=1), loss.eta).T
        fis[kind] = fisher_discrete(p, dp).fi
    return fis["coherent"] / fis["sv"]


# ---------------------------------------------------------------------------
# optimal-squeezing scan and limit table
# ---------------------------------------------------------------------------


def amplitude_for_mean_n(nbar: float, n_r: float, phi: float) -> float:
    """|alpha| keeping the incident mean photon number fixed at nbar given n_r and phi."""
    if n_r > nbar:
        raise ValueError("n_r may not exceed the target mean photon number")
    r = math.asinh(math.sqrt(n_r))
    gain = math.cosh(2.0 * r) + math.sinh(2.0 * r) * math.cos(2.0 * phi)
    return math.sqrt(max(nbar - n_r, 0.0) / gain)


def default_squeeze_grid(nbar: float) -> np.ndarray:
    """n_r grid dense near zero (where the FI maximum sits) up to the sv endpoint."""
    if nbar <= 5.0:
        return np.linspace(0.0, nbar, 26)
    head = np.linspace(0.0, 5.0, 21)
    tail = np.linspace(5.0, nbar, 28)[1:]
    return np.concatenate([head, tail])


def squeeze_scan(
    nbar: float,
    loss: LossSpec,
    phi: float = math.pi / 2.0,
    n_r_values: np.ndarray | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Photon-counting FI vs n_r at fixed incident <n>, amplitude adjusted per point.

    The endpoint n_r = nbar is the squeezed vacuum.  Returns (n_r grid, FI).
    """
    if n_r_values is None:
        n_r_values = default_squeeze_grid(nbar)
    fi = np.empty(len(n_r_values))
    with _reused_band():  # every point thins at the one eta
        for i, n_r in enumerate(n_r_values):
            r = math.asinh(math.sqrt(n_r))
            alpha = amplitude_for_mean_n(nbar, n_r, phi)
            spec = ProbeSpec(r=r, alpha_abs=alpha, phi=phi)
            fi[i] = fisher_photon_counting(spec, loss, tail_tol=tail_tol).fi
    return np.asarray(n_r_values, dtype=float), fi


@dataclass(frozen=True)
class LimitRow:
    """One closed-form sensitivity limit evaluated at given (r, n, eta)."""

    measurement: str
    state: str
    regime: str
    value: float


def limit_table(r: float, n: float, eta: float) -> list[LimitRow]:
    """Closed-form sensitivity limits for all measurement/state combinations.

    Formulas are evaluated exactly as published; coherent quadrature rows use
    their natural phases (phi = 0 for q, phi = pi/2 for p).
    """
    e2r = math.exp(2.0 * r)
    n2, n3 = n * n, n**3
    loss_factor = (1.0 - eta) / eta
    return [
        LimitRow("photon_number", "squeezed_vacuum", "n_r >> 1", 2.0 / (9.0 * n2)),
        LimitRow("photon_number", "coherent", "any n", 1.0 / (eta * n3)),
        LimitRow("photon_number", "phase_squeezed", "n_r >> 1", e2r / n3),
        LimitRow("photon_number", "amplitude_squeezed", "n_r >> 1", 1.0 / (e2r**2 * n3)),
        LimitRow("quad_q", "coherent", "phi = 0", 1.0 / (eta * n3)),
        LimitRow("quad_q", "phase_squeezed", "alpha << 1", 32.0 / (25.0 * n * e2r)),
        LimitRow("quad_q", "phase_squeezed", "alpha >> e^r", e2r / n3),
        LimitRow("quad_p", "coherent", "phi = pi/2", 1.0 / (eta * n3)),
        LimitRow("quad_p", "amplitude_squeezed", "alpha << 1", loss_factor * 32.0 / (9.0 * n * e2r**3)),
        LimitRow("quad_p", "amplitude_squeezed", "alpha >> 1", loss_factor / (e2r * n3)),
    ]
