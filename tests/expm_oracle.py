"""Sparse truncated generators of the squeeze and displacement, applied by
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 488 (2011)).

This is the route the probe builder took before it moved to tridiagonal
eigendecompositions (MRRR for the squeeze, Gauss-Hermite nodes and
oscillator functions for the displacement); the tests keep it as an
independent oracle for `fock.apply_squeeze`, `fock.apply_displacement` and
the probe build.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

from tpa_metrology.fock import ProbeSpec


def squeeze_generator(r: float, phi_r: float, dim: int):
    """Sparse (zeta/2) a_dag^2 - (zeta*/2) a^2 on the truncated space, zeta = r e^{i phi_r}."""
    zeta = r * cmath.exp(1j * phi_r)
    n = np.arange(dim - 2, dtype=float)
    band = np.sqrt((n + 1.0) * (n + 2.0))  # <n+2| a_dag^2 |n>
    return diags(
        [0.5 * zeta * band, -0.5 * np.conj(zeta) * band],
        offsets=[-2, 2],
        shape=(dim, dim),
        format="csr",
        dtype=complex,
    )


def displacement_generator(beta: complex, dim: int):
    """Sparse beta a_dag - beta* a on the truncated space."""
    n = np.arange(dim - 1, dtype=float)
    band = np.sqrt(n + 1.0)  # <n+1| a_dag |n>
    return diags(
        [beta * band, -np.conj(beta) * band],
        offsets=[-1, 1],
        shape=(dim, dim),
        format="csr",
        dtype=complex,
    )


def build_probe(spec: ProbeSpec, n_max: int) -> np.ndarray:
    """S(zeta) D(alpha) |0> as D(beta) S(zeta) |0> at cutoff n_max, by expm_multiply."""
    amp = np.zeros(n_max + 1, dtype=complex)
    amp[0] = 1.0
    if spec.r > 0.0:
        amp = expm_multiply(squeeze_generator(spec.r, spec.phi_r, n_max + 1), amp)
    if spec.alpha_abs > 0.0:
        alpha = spec.alpha
        beta = alpha * math.cosh(spec.r) + np.conj(alpha) * cmath.exp(1j * spec.phi_r) * math.sinh(spec.r)
        amp = expm_multiply(displacement_generator(beta, n_max + 1), amp)
    nrm = np.linalg.norm(amp)
    return amp / nrm if nrm > 1.0 else amp
