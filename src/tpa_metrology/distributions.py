"""Measurement-outcome distributions and their exact absorbance derivatives.

Photon-number side: closed-form squeezed-vacuum and Poisson distributions,
plus the pipeline pre-loss populations -> TPA population derivative ->
binomial thinning.  Quadrature side: position/momentum densities contracted
against the 64-row blocks of the oscillator-eigenfunction recurrence that
`fock` streams (vacuum variance 1/2), with single-photon loss realized as a
rescale of the argument followed by a convolution with the vacuum Gaussian of
the auxiliary mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .channels import LossSpec, apply_binomial_loss, population_derivative
from .exceptions import GridError
# make_probe_state is not called here; it stays importable from this module
# because the benchmark's tracer self-test (bench/selftest.py) reads it.
from .fock import StateVector, _hermite_blocks, initial_cutoff, make_probe_state, moments  # noqa: F401

_NEG_CLIP = -1e-12
# Quadrature output grid: uniform points over |mean| + span * sigma of the
# detected density (span widened where the derivative tails need it).
_GRID_POINTS = 2001
_SIGMA_SPAN = 6.0


@dataclass
class Pmf:
    """Photon-number distribution; index = photon count."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if np.any(p < -1e-14):
            raise ValueError(f"pmf has negative entry {p.min():.3e}")
        self.p = np.where(p < 0.0, 0.0, p)

    @property
    def n_max(self) -> int:
        return self.p.size - 1

    def total(self) -> float:
        return float(self.p.sum())

    def mean(self) -> float:
        return float(np.dot(np.arange(self.p.size), self.p))

    def var(self) -> float:
        n = np.arange(self.p.size, dtype=float)
        m = float(np.dot(n, self.p))
        return float(np.dot(n * n, self.p)) - m * m


@dataclass
class QuadPdf:
    """Probability density of a field quadrature sampled on a uniform grid."""

    grid: np.ndarray
    density: np.ndarray
    dq: float

    def integral(self) -> float:
        return float(np.trapezoid(self.density, dx=self.dq))

    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.density, dx=self.dq))

    def var(self) -> float:
        m = self.mean()
        return float(np.trapezoid(self.grid**2 * self.density, dx=self.dq)) - m * m


def sv_pmf_closed_form(nbar: float, n_max: int) -> Pmf:
    """Squeezed-vacuum photon distribution with mean nbar = sinh^2 r.

    P_{2k} = (2k)! / (4^k (k!)^2) * nbar^k / (1 + nbar)^{k + 1/2}, odd terms zero.
    Matches |<m|S(r)|0>|^2 from the Fock construction.
    """
    if nbar < 0.0:
        raise ValueError("nbar must be nonnegative")
    p = np.zeros(n_max + 1, dtype=float)
    if nbar == 0.0:
        p[0] = 1.0
        return Pmf(p)
    k = np.arange(0, n_max // 2 + 1, dtype=float)
    logp = (
        gammaln(2.0 * k + 1.0)
        - k * math.log(4.0)
        - 2.0 * gammaln(k + 1.0)
        + k * math.log(nbar)
        - (k + 0.5) * math.log1p(nbar)
    )
    p[:: 2] = np.exp(logp)
    return Pmf(p)


def coherent_pmf(nbar: float, n_max: int) -> Pmf:
    """Poisson photon distribution with mean nbar, bit for bit scipy.stats.poisson.pmf.

    That is exp(k log nbar - log k! - nbar), clipped to [0, 1] as
    rv_discrete.pmf clips it.
    """
    if nbar < 0.0:
        raise ValueError("nbar must be nonnegative")
    k = np.arange(n_max + 1)
    return Pmf(np.clip(np.exp(xlogy(k, nbar) - gammaln(k + 1) - nbar), 0.0, 1.0))


def pmf_auto_cutoff(kind: str, nbar: float, tail_tol: float = 1e-12) -> int:
    """Smallest power-of-two-ish n_max with closed-form pmf tail below tail_tol."""
    builder = sv_pmf_closed_form if kind == "sv" else coherent_pmf
    n_max = initial_cutoff(nbar)
    while True:
        pmf = builder(nbar, n_max)
        if 1.0 - pmf.total() <= tail_tol:
            return n_max
        n_max *= 2


def pmf_pair_from_state(state: StateVector, loss: LossSpec) -> tuple[Pmf, np.ndarray]:
    p0 = state.populations()
    p, dp = apply_binomial_loss(np.stack([p0, population_derivative(p0)], axis=1), loss.eta).T
    return Pmf(p), dp


def hermite_functions(x: np.ndarray, n_max: int) -> np.ndarray:
    """Oscillator eigenfunctions psi_n(x) for n = 0..n_max, shape (n_max+1, len(x)).

    The blocks of `fock._hermite_blocks` stacked into one matrix: a normalized
    three-term recurrence with per-column exponent scaling, stable past the
    naive underflow point |x| > 38.6.  Convention: vacuum density has variance 1/2.
    """
    psi = np.empty((n_max + 1, np.size(x)), dtype=float)
    for n0, block in _hermite_blocks(x, n_max):
        psi[n0 : n0 + len(block)] = block
    return psi


def _momentum_rotated(amp: np.ndarray) -> np.ndarray:
    """Amplitudes whose q-distribution is the p-distribution of the input state."""
    n = np.arange(amp.size)
    return amp * (-1j) ** n


def _gaussian_convolve(values: np.ndarray, dq: float, var: float) -> np.ndarray:
    """Direct-quadrature convolution with a centered Gaussian of given variance."""
    g = values.size
    lags = dq * np.arange(-(g - 1), g, dtype=float)
    kernel = np.exp(-0.5 * lags**2 / var) / math.sqrt(2.0 * math.pi * var)
    weights = np.full(g, dq)
    weights[0] = weights[-1] = 0.5 * dq
    return np.convolve(values * weights, kernel)[g - 1 : 2 * g - 1]


def _clip_roundoff_negative(density: np.ndarray) -> np.ndarray:
    return np.where((density < 0.0) & (density > _NEG_CLIP), 0.0, density)


def quad_pdf_pair_from_state(
    state: StateVector, loss: LossSpec, which: str
) -> tuple[QuadPdf, QuadPdf]:
    """Detected quadrature density P(x) and its absorbance derivative dP(x)/d eps.

    ``which`` selects "q" or "p"; the momentum density is obtained by the
    number-phase rotation a -> -i a of the state.  Losses rescale the argument
    by sqrt(eta) and convolve with a Gaussian of variance (1 - eta)/2.

    The output contracts (probability integrates to 1 +- 1e-6, derivative to
    0 +- 1e-6) hold when the state's truncated tail population is well below
    1e-6; hard-truncated states leave artifacts of that order in the
    derivative density near the truncation turning radius.
    """
    if which not in ("q", "p"):
        raise ValueError(f"which must be 'q' or 'p', got {which!r}")
    eta = loss.eta
    mom = moments(state)
    mean0, var0 = (mom.mean_q, mom.var_q) if which == "q" else (mom.mean_p, mom.var_p)
    mean_det = math.sqrt(eta) * mean0
    var_det = eta * var0 + 0.5 * (1.0 - eta)
    # The derivative density carries polynomially enhanced tails (the
    # n(n-1)-weighted term scales with <a_dag^2 a^2>); widen beyond
    # _SIGMA_SPAN where needed so it still integrates to 0 within 1e-6.
    pair_moment = max(mom.var_n + mom.mean_n**2 - mom.mean_n, 0.0)
    span = max(_SIGMA_SPAN, math.sqrt(2.0 * math.log((pair_moment + 1.0) * 1e8)) + 1.0)
    half = abs(mean_det) + span * math.sqrt(var_det)
    x = np.linspace(-half, half, _GRID_POINTS)
    dq = float(x[1] - x[0])

    amp = state.amp if which == "q" else _momentum_rotated(state.amp)
    # Lossless densities are evaluated at x/sqrt(eta); loss then maps
    # P0 -> P0(x/sqrt(eta))/sqrt(eta) convolved with the vacuum Gaussian.
    if eta < 1.0:
        # The convolution input must resolve the fastest Hermite oscillation
        # (wavelength pi/sqrt(2 n_max + 1) in the stretched coordinate), or
        # truncation-edge ringing aliases into the integrals; refine, convolve
        # on the fine grid, then subsample back to the output grid.
        lam_min = math.pi / math.sqrt(2.0 * state.dim - 1.0)
        dy = dq / math.sqrt(eta)
        refine = min(max(1, math.ceil(3.0 * dy / lam_min)), 16)
        fine = np.linspace(-half, half, refine * (_GRID_POINTS - 1) + 1)
        p0, dp0 = _pure_state_densities(amp, fine / math.sqrt(eta))
        scale = 1.0 / math.sqrt(eta)
        dq_fine = float(fine[1] - fine[0])
        p_det = _gaussian_convolve(p0 * scale, dq_fine, 0.5 * (1.0 - eta))[::refine]
        dp_det = _gaussian_convolve(dp0 * scale, dq_fine, 0.5 * (1.0 - eta))[::refine]
    else:
        p_det, dp_det = _pure_state_densities(amp, x)

    p_det = _clip_roundoff_negative(p_det)
    total = float(np.trapezoid(p_det, dx=dq))
    if not abs(total - 1.0) <= 1e-6:  # a NaN total fails too
        raise GridError(f"quadrature density integrates to {total!r}, expected 1 +- 1e-6")
    dtotal = float(np.trapezoid(dp_det, dx=dq))
    if not abs(dtotal) <= 1e-6:
        raise GridError(f"derivative density integrates to {dtotal!r}, expected 0 +- 1e-6")
    return QuadPdf(x, p_det, dq), QuadPdf(x, dp_det, dq)


def _pure_state_densities(amp: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lossless P0(x) = |<x|psi>|^2 and its TPA derivative for a pure state.

    For rho = |psi><psi| the generator gives
    dP0 = (1/2)|<x|a^2 psi>|^2 - Re[<x|a_dag^2 a^2 psi> <x|psi>*] / 2,
    which equals sum_{m,n} (L rho)_{mn} psi_m(x) psi_n(x) without forming rho.
    Re and Im of psi, a^2 psi and n(n-1) psi form one real (6, dim) matrix that
    multiplies each row block of the recurrence as it is produced, so memory is
    O(_HERMITE_ROWS * len(x)) and no (dim, len(x)) matrix is held.
    """
    dim = amp.size
    n = np.arange(dim, dtype=float)
    a2_amp = np.zeros(dim, dtype=complex)
    if dim > 2:
        a2_amp[:-2] = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) * amp[2:]
    stacked = np.stack([amp, a2_amp, n * (n - 1.0) * amp])
    coef = np.concatenate([stacked.real, stacked.imag])  # one real (6, dim) matrix
    fr, gr, hr, fi, gi, hi = sum(coef[:, n0 : n0 + len(b)] @ b for n0, b in _hermite_blocks(x, dim - 1))
    return fr * fr + fi * fi, 0.5 * (gr * gr + gi * gi - (hr * fr + hi * fi))


def quad_pdf_from_density(rho: np.ndarray, x: np.ndarray, which: str = "q") -> np.ndarray:
    """General-density quadrature density sum_{m,n} rho_{mn} psi_m(x) psi_n(x).

    Reference path used to validate the rescale-and-convolve loss transform
    against the Kraus channel at small cutoffs; O(dim^2 * len(x)).
    """
    rho = np.asarray(rho, dtype=complex)
    if which == "p":
        phase = _momentum_rotated(np.ones(rho.shape[0]))
        rho = phase[:, None] * rho * np.conj(phase)[None, :]
    psi = hermite_functions(np.asarray(x, dtype=float), rho.shape[0] - 1)
    return np.einsum("mg,mn,ng->g", psi, rho, psi, optimize=True).real
