"""Two-photon-absorption generator and single-photon loss channels.

The TPA generator is the Lindblad form (1/4)(2 a^2 rho a_dag^2 - a_dag^2 a^2 rho
- rho a_dag^2 a^2) per unit absorbance.  Single-photon loss with transmission
probability eta is provided both as the Kraus channel on density matrices and
as binomial thinning on photon-count distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.stats import binom

# Half width of the thinning band in column m: 14 sigma_m + 40 with
# sigma_m^2 = m eta (1 - eta).  Bernstein's inequality for a sum of m
# Bernoulli(eta) terms, P(|X - m eta| >= t) <= 2 exp(-t^2 / (2 sigma^2 + 2t/3)),
# at t = 14 sigma + 40 has exponent at least 1600 / (80/3) = 60 (at sigma = 0,
# growing toward 98), so the entries dropped from any column weigh less than
# 2 exp(-60) < 1e-25 of that column.
_BAND_SIGMAS = 14.0
_BAND_PAD = 40.0
# The band is filled a block of whole columns of about this many cells at a
# time, so its index and pmf temporaries stay small next to the matrix.
_BLOCK_CELLS = 65536


@dataclass(frozen=True)
class LossSpec:
    """Single-photon transmission probability; eta = 1 is the identity channel."""

    eta: float

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


def tpa_generator(rho: np.ndarray) -> np.ndarray:
    """Apply the TPA Lindbladian (per unit absorbance) to a density matrix.

    Implemented with index shifts instead of explicit ladder matrices:
    (a^2 rho a_dag^2)[m, n] = sqrt((m+1)(m+2)(n+1)(n+2)) rho[m+2, n+2] and
    a_dag^2 a^2 = n(n-1) is diagonal.
    """
    mat = np.asarray(rho)
    dim = mat.shape[0]
    n = np.arange(dim, dtype=float)
    n2 = n * (n - 1.0)
    out = np.zeros_like(mat, dtype=complex)
    if dim > 2:
        shift = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
        out[:-2, :-2] = 0.5 * (shift[:, None] * shift[None, :]) * mat[2:, 2:]
    out -= 0.25 * (n2[:, None] + n2[None, :]) * mat
    return out


def population_derivative(pmf: np.ndarray) -> np.ndarray:
    """d P_n / d eps = (1/2)[(n+2)(n+1) P_{n+2} - n(n-1) P_n]; sums to zero."""
    p = np.asarray(pmf, dtype=float)
    n = np.arange(p.size, dtype=float)
    out = -0.5 * n * (n - 1.0) * p
    if p.size > 2:
        out[:-2] += 0.5 * (n[:-2] + 1.0) * (n[:-2] + 2.0) * p[2:]
    return out


def loss_channel(rho: np.ndarray, loss: LossSpec) -> np.ndarray:
    """Pure-loss channel with transmissivity eta via the standard Kraus family.

    K_k removes k photons: (K_k rho K_k_dag)[m, n] = c_k[m] c_k[n] rho[m+k, n+k]
    with c_k[j]^2 = C(j+k, k) eta^j (1-eta)^k, exact within the truncated space.
    """
    mat = np.asarray(rho)
    eta = loss.eta
    if eta == 1.0:
        return mat.astype(complex)
    dim = mat.shape[0]
    out = np.zeros_like(mat, dtype=complex)
    j = np.arange(dim)
    for k in range(dim):
        keep = dim - k
        jj = j[:keep]
        c = np.sqrt(binom.pmf(jj, jj + k, eta))
        out[:keep, :keep] += (c[:, None] * c[None, :]) * mat[k:, k:]
    return out


def _binom_pmf(n: np.ndarray, m: np.ndarray, eta: float) -> np.ndarray:
    """binom.pmf(n, m, eta), through logpmf where pmf overflows (eta near 1e-308)."""
    try:
        return binom.pmf(n, m, eta)
    except OverflowError:
        return np.exp(binom.logpmf(n, m, eta))


def apply_binomial_loss(vec: np.ndarray, eta: float) -> np.ndarray:
    """Binomial-thinning linear map on a photon-count vector (need not be a pmf).

    out[n] = sum_m binom.pmf(n, m, eta) vec[m].  A 2-D ``vec`` is thinned
    column by column, so a stacked (P, dP) pair pays for one map.  Column m
    keeps only the band |n - eta m| <= 14 sigma_m + 40, O(N sigma) pmf
    evaluations in all; the dropped entries weigh < 1e-25 of each column.
    """
    v = np.asarray(vec, dtype=float)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return v.copy()
    size = v.shape[0]
    m = np.arange(size)
    width = _BAND_SIGMAS * np.sqrt(m * (eta * (1.0 - eta))) + _BAND_PAD
    lo = np.maximum(np.ceil(eta * m - width), 0).astype(np.int64)
    hi = np.minimum(np.floor(eta * m + width), m).astype(np.int64)
    counts = hi - lo + 1
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)  # csc_matrix would copy int64 to int32
    c0 = 0
    while c0 < size:
        c1 = int(np.searchsorted(indptr, indptr[c0] + _BLOCK_CELLS, side="right")) - 1
        c1 = min(max(c1, c0 + 1), size)
        cells = slice(indptr[c0], indptr[c1])
        cols = np.repeat(m[c0:c1], counts[c0:c1])
        rows = np.arange(indptr[c0], indptr[c1]) - np.repeat(indptr[c0:c1] - lo[c0:c1], counts[c0:c1])
        indices[cells] = rows
        data[cells] = _binom_pmf(rows, cols, eta)
        c0 = c1
    band = csc_matrix((data, indices, indptr), shape=(size, size))
    return band @ v


def binomial_loss_pmf(pmf: np.ndarray, loss: LossSpec) -> np.ndarray:
    """Detected photon-number distribution after single-photon losses.

    P_n = sum_{m >= n} C(m, n) eta^n (1-eta)^{m-n} P_m; equals the diagonal of
    the Kraus loss channel applied to diag(pmf).
    """
    p = np.asarray(pmf, dtype=float)
    total = p.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"input pmf sums to {total!r}, expected ~1")
    return apply_binomial_loss(p, loss.eta)

