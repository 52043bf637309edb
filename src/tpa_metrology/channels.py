"""Two-photon-absorption generator and single-photon loss channels.

The TPA generator is the Lindblad form (1/4)(2 a^2 rho a_dag^2 - a_dag^2 a^2 rho
- rho a_dag^2 a^2) per unit absorbance.  Single-photon loss with transmission
probability eta is provided both as the Kraus channel on density matrices and
as binomial thinning on photon-count distributions.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.special import gammaln, xlog1py, xlogy
from scipy.special._ufuncs import _binom_pmf as _boost_binom_pmf

from . import fock

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
# Inside a `_scan_scope`: the one band kept, as {"eta", "size",
# "arrays": (data, indices, indptr)}, or {} before the first thinning.
_held_band: dict | None = None


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


def _binom_logpmf(n: np.ndarray, m: np.ndarray, eta: float) -> np.ndarray:
    """log C(m, n) eta^n (1-eta)^(m-n) for 0 <= n <= m, summed in scipy.stats.binom.logpmf's order."""
    return gammaln(m + 1) - (gammaln(n + 1) + gammaln(m - n + 1)) + xlogy(n, eta) + xlog1py(m - n, -eta)


def _binom_pmf(n: np.ndarray, m: np.ndarray, eta: float) -> np.ndarray:
    """C(m, n) eta^n (1-eta)^(m-n) for 0 <= n <= m, bit for bit scipy.stats.binom.pmf.

    That is the Boost kernel binom.pmf calls, clipped to [0, 1] as
    rv_discrete.pmf clips it (unclipped, it reads 1 + 6e-15 at n = 0 for
    some eta below 1e-21).  Where the kernel overflows (eta near 1e-308) it
    raises OverflowError, and the logpmf is exponentiated instead.
    """
    try:
        return np.clip(_boost_binom_pmf(n, m, eta), 0.0, 1.0)
    except OverflowError:
        return np.exp(_binom_logpmf(n, m, eta))


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
        c = np.sqrt(_binom_pmf(jj, jj + k, eta))
        out[:keep, :keep] += (c[:, None] * c[None, :]) * mat[k:, k:]
    return out


@contextmanager
def _scan_scope():
    """Within the scope, a scan reuses what its points would otherwise rebuild.

    apply_binomial_loss keeps one band: a call at the held eta and at most
    the held size thins with the band's leading block; any other call drops
    the held band before it builds and keeps its own.  fock.apply_squeeze
    keeps its decompositions while probes repeat one <n>
    (`fock._holding_squeezes`).  Both are released when the (outermost) scope
    exits, also on an error.
    """
    global _held_band
    if _held_band is not None:  # nested: the outer scope owns what is held
        yield
        return
    _held_band = {}
    try:
        with fock._holding_squeezes():
            yield
    finally:
        _held_band = None


def _band_arrays(size: int, eta: float) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], bool]:
    """(data, indices, indptr) of the size x size thinning band in CSC form, and reusability.

    Column m depends on (m, eta) alone, so the band at any size is the
    leading block of the band at a larger one, with the same entries in the
    same order.  Not so where a block of columns fell back to logpmf (eta
    near 1e-308, where the pmf kernel of `_binom_pmf` is also off by ~3e-14
    in columns it does not overflow): whether a block overflows depends on
    where the band ends, so such a band is reported as not reusable.
    """
    m = np.arange(size)
    width = _BAND_SIGMAS * np.sqrt(m * (eta * (1.0 - eta))) + _BAND_PAD
    lo = np.maximum(np.ceil(eta * m - width), 0).astype(np.int64)
    hi = np.minimum(np.floor(eta * m + width), m).astype(np.int64)
    counts = hi - lo + 1
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)  # csc_matrix would copy int64 to int32
    reusable = True
    c0 = 0
    while c0 < size:
        c1 = int(np.searchsorted(indptr, indptr[c0] + _BLOCK_CELLS, side="right")) - 1
        c1 = min(max(c1, c0 + 1), size)
        cells = slice(indptr[c0], indptr[c1])
        cols = np.repeat(m[c0:c1], counts[c0:c1])
        rows = np.arange(indptr[c0], indptr[c1]) - np.repeat(indptr[c0:c1] - lo[c0:c1], counts[c0:c1])
        indices[cells] = rows
        try:
            data[cells] = np.clip(_boost_binom_pmf(rows, cols, eta), 0.0, 1.0)
        except OverflowError:  # see _binom_pmf
            data[cells] = np.exp(_binom_logpmf(rows, cols, eta))
            reusable = False
        c0 = c1
    return (data, indices, indptr), reusable


def apply_binomial_loss(vec: np.ndarray, eta: float) -> np.ndarray:
    """Binomial-thinning linear map on a photon-count vector (need not be a pmf).

    out[n] = sum_m C(m, n) eta^n (1-eta)^(m-n) vec[m], with the weights of
    `_binom_pmf` (scipy.stats.binom.pmf bit for bit).  A 2-D ``vec`` is thinned
    column by column, so a stacked (P, dP) pair pays for one map.  Column m
    keeps only the band |n - eta m| <= 14 sigma_m + 40, O(N sigma) pmf
    evaluations in all; the dropped entries weigh < 1e-25 of each column.
    The band is built, used and freed, except inside a scan
    (`_scan_scope`), which keeps the last one and thins every later call at
    the same eta and no larger size with its leading block: the same numbers
    bit for bit, without rebuilding.
    """
    v = np.asarray(vec, dtype=float)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return v.copy()
    size = v.shape[0]
    held = _held_band
    if held and held["eta"] == eta and held["size"] >= size:
        data, indices, indptr = held["arrays"]
    else:
        if held:
            held.clear()  # two bands are never alive at once
        (data, indices, indptr), reusable = _band_arrays(size, eta)
        if held is not None and reusable:
            held.update(eta=eta, size=size, arrays=(data, indices, indptr))
    cells = indptr[size]
    band = csc_matrix((data[:cells], indices[:cells], indptr[: size + 1]), shape=(size, size))
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

