"""Truncated Fock-space states, operators and moments.

Probe states are built as S(zeta) D(alpha) |0>, i.e. a coherent seed that is
squeezed afterwards.  Construction goes through the equivalent
displaced-squeezed form D(beta) S(zeta) |0> with beta = alpha cosh r +
conj(alpha) e^{i phi_r} sinh r, so that every intermediate state has a mean
photon number bounded by the final one.  Both unitaries are the exact
exponentials of their truncated generators, each a diagonal phase similarity
of a real symmetric tridiagonal matrix, applied through that matrix's
eigendecomposition: MRRR for the squeeze; for the displacement, whose matrix
is the Hermite Jacobi matrix, Gauss-Hermite nodes and oscillator functions,
evaluated at the non-negative nodes only.  The oscillator functions psi_n(x)
come from one blocked recurrence, `_hermite_blocks`, which the quadrature
densities in `distributions` stream as well.
"""

from __future__ import annotations

import cmath
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_hermite

from .exceptions import CutoffGrowthWarning, TruncationError

DEFAULT_TAIL_TOL = 1e-10
CUTOFF_CAP_ENV = "TPA_CUTOFF_MAX"
DEFAULT_CUTOFF_CAP = 4096

_SQRT2 = math.sqrt(2.0)
_PI_QUARTER = math.pi ** (-0.25)
_HERMITE_ROWS = 64  # rows per block of the Hermite recurrence
# Top-band population below which tail_estimate reads no tail at all: the
# probe's amplitudes carry a roundoff floor near 1e-15 (populations ~1e-30
# per bin), which would otherwise read as growth towards the cutoff.
_TAIL_FLOOR = 1e-20
_HERMITE_NODES: dict[int, np.ndarray] = {}  # refined Gauss-Hermite nodes per dimension


def cutoff_cap() -> int:
    """Largest n_max the adaptive cutoff may reach: TPA_CUTOFF_MAX, else 4096."""
    env = os.environ.get(CUTOFF_CAP_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            cap = 0  # not an integer: rejected below with the variable's name
        if cap < 1:
            raise ValueError(f"{CUTOFF_CAP_ENV} must be a positive integer, got {env!r}")
        return cap
    return DEFAULT_CUTOFF_CAP


def _reduce_phase(phi: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi < 0.0:
        phi += 2.0 * math.pi
    return phi


@dataclass(frozen=True)
class ProbeSpec:
    """Input light field S(zeta) D(alpha) |0> with zeta = r e^{i phi_r}, alpha = |alpha| e^{i phi}."""

    r: float = 0.0
    phi_r: float = 0.0
    alpha_abs: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        for name in ("r", "phi_r", "alpha_abs", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.r >= 0.0):
            raise ValueError(f"squeezing magnitude r must be >= 0, got {self.r}")
        if not (self.alpha_abs >= 0.0):
            raise ValueError(f"coherent amplitude |alpha| must be >= 0, got {self.alpha_abs}")
        object.__setattr__(self, "phi_r", _reduce_phase(self.phi_r))
        object.__setattr__(self, "phi", _reduce_phase(self.phi))

    @classmethod
    def vacuum(cls) -> "ProbeSpec":
        return cls()

    @classmethod
    def squeezed_vacuum(cls, r: float, phi_r: float = 0.0) -> "ProbeSpec":
        return cls(r=r, phi_r=phi_r)

    @classmethod
    def coherent(cls, alpha_abs: float, phi: float = 0.0) -> "ProbeSpec":
        return cls(alpha_abs=alpha_abs, phi=phi)

    @property
    def is_vacuum(self) -> bool:
        return self.r == 0.0 and self.alpha_abs == 0.0

    @property
    def alpha(self) -> complex:
        return self.alpha_abs * cmath.exp(1j * self.phi)

    @property
    def n_squeeze(self) -> float:
        """Mean photon number of the squeezing part alone, sinh^2 r."""
        return math.sinh(self.r) ** 2

    @property
    def seed_gain(self) -> float:
        """Factor g with <n> = sinh^2 r + |alpha|^2 g; g = cosh 2r + sinh 2r cos(2 phi - phi_r)."""
        return math.cosh(2.0 * self.r) + math.sinh(2.0 * self.r) * math.cos(2.0 * self.phi - self.phi_r)

    def mean_photon_number(self) -> float:
        """Incident mean photon number (before any loss, at zero absorbance)."""
        return self.n_squeeze + self.alpha_abs**2 * self.seed_gain


@dataclass
class StateVector:
    """Pure state amplitudes c_n in the truncated Fock basis."""

    amp: np.ndarray

    def __post_init__(self):
        self.amp = np.asarray(self.amp, dtype=complex)
        if self.amp.ndim != 1 or self.amp.size < 1:
            raise ValueError("amp must be a nonempty 1-d complex vector")

    @property
    def n_max(self) -> int:
        return self.amp.size - 1

    @property
    def dim(self) -> int:
        return self.amp.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def populations(self) -> np.ndarray:
        return np.abs(self.amp) ** 2

    def to_density_matrix(self) -> np.ndarray:
        return np.outer(self.amp, self.amp.conj())

    def fidelity(self, other: "StateVector") -> float:
        n = min(self.dim, other.dim)
        return float(abs(np.vdot(self.amp[:n], other.amp[:n])) ** 2)


def ladder_matrices(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense annihilation/creation matrices; a[n-1, n] = sqrt(n)."""
    if n_max < 1:
        raise ValueError("ladder matrices need n_max >= 1")
    dim = n_max + 1
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def _phased_exp(lam: np.ndarray, vec: np.ndarray, s: float, d: complex, x: np.ndarray) -> np.ndarray:
    """D exp(i s T) D* x for D = diag(d^k), |d| = 1, and T = V diag(lam) V^T real symmetric.

    exp(i s T) = V diag(e^{i s lam}) V^T (Moler & Van Loan, SIAM Rev. 45, 3
    (2003)); each product with V is one real (N x N)(N x 2) multiply on the
    stacked real and imaginary parts.
    """
    phase = d ** np.arange(x.size)
    y = np.conj(phase) * x
    w = vec.T @ np.column_stack([y.real, y.imag])
    z = (w[:, 0] + 1j * w[:, 1]) * np.exp(1j * s * lam)
    u = vec @ np.column_stack([z.real, z.imag])
    return phase * (u[:, 0] + 1j * u[:, 1])


def _hermite_blocks(x: np.ndarray, n_max: int):
    """Yield (n0, block) with block[k] = psi_{n0+k}(x), up to n0 + k = n_max.

    The oscillator functions (vacuum variance 1/2) from their normalized
    three-term recurrence, _HERMITE_ROWS rows at a time in one reused buffer
    that the next block overwrites.  exp(-x^2/2) underflows for |x| > 38.6,
    where psi_n can be O(1) once n > x^2/2, so each column carries a
    log-scale offset that is paid back on output.
    """
    x = np.asarray(x, dtype=float)
    buf = np.empty((min(_HERMITE_ROWS, n_max + 1), x.size), dtype=float)
    half_sq = 0.5 * x * x
    log_scale = -np.maximum(half_sq - 350.0, 0.0)
    half_pay = np.exp(0.5 * log_scale)  # applied twice so offsets to ~ -1400 survive
    pm1 = _PI_QUARTER * np.exp(-half_sq - log_scale)
    p = _SQRT2 * x * pm1
    for n0 in range(0, n_max + 1, len(buf)):
        block = buf[: min(len(buf), n_max + 1 - n0)]
        for n, row in enumerate(block, n0):
            if n >= 2:
                p, pm1 = math.sqrt(2.0 / n) * x * p - math.sqrt((n - 1.0) / n) * pm1, p
                grown = np.abs(p) > 1e250
                if grown.any():
                    shrink = math.exp(-500.0)
                    p[grown] *= shrink
                    pm1[grown] *= shrink
                    log_scale[grown] += 500.0
                    half_pay[grown] = np.exp(0.5 * log_scale[grown])
            np.multiply(p if n else pm1, half_pay, out=row)
            row *= half_pay
        yield n0, block


def _hermite_nodes(dim: int) -> np.ndarray:
    """Gauss-Hermite nodes x_j, H_dim(x_j) = 0, ascending; cached per dim.

    `roots_hermite` refined by one Newton step on psi_dim, whose derivative
    at a zero is sqrt(2 dim) psi_{dim-1}.  The result is exactly
    mirror-symmetric, x == -x[::-1].
    """
    x = _HERMITE_NODES.get(dim)
    if x is None:
        x = roots_hermite(dim)[0]
        psi = np.empty((0, dim))  # ends as psi_{dim-1}, psi_dim: the last two rows streamed
        for _, block in _hermite_blocks(x, dim):
            psi = np.concatenate([psi, block[-2:]])[-2:]
        x = x - psi[1] / (math.sqrt(2.0 * dim) * psi[0])
        x.flags.writeable = False
        _HERMITE_NODES[dim] = x
    return x


def apply_squeeze(state: StateVector, r: float, phi_r: float = 0.0) -> StateVector:
    """Apply S(zeta) = exp((zeta/2) a_dag^2 - (zeta*/2) a^2), zeta = r e^{i phi_r}.

    On the Fock states n = 2k + p of parity p the truncated generator is
    D (i r K_p) D* with D = diag((-i e^{i phi_r})^k) and K_p real tridiagonal
    with off-diagonal sqrt((2k+p+1)(2k+p+2))/2; a parity the input leaves
    empty stays empty, so a vacuum seed needs only the even half.
    """
    if r == 0.0:
        return StateVector(state.amp.copy())
    d = -1j * cmath.exp(1j * phi_r)
    out = np.zeros(state.dim, dtype=complex)
    for p in (0, 1):
        x = state.amp[p::2]
        if not x.any():
            continue
        n = np.arange(p, state.dim - 2, 2, dtype=float)
        off = 0.5 * np.sqrt((n + 1.0) * (n + 2.0))
        out[p::2] = _phased_exp(*eigh_tridiagonal(np.zeros(x.size), off, lapack_driver="stemr"), r, d, x)
    return StateVector(out)


def apply_displacement(state: StateVector, beta: complex) -> StateVector:
    """Apply D(beta) = exp(beta a_dag - beta* a).

    The truncated generator is D (i |beta| J) D* with D = diag((-i e^{i arg beta})^n)
    and J real tridiagonal with off-diagonal sqrt(n+1), the Jacobi matrix of
    the Hermite polynomials: its eigenvalues are sqrt(2) x_j with
    H_dim(x_j) = 0, and its eigenvector at x_j is (psi_0(x_j), ...,
    psi_{dim-1}(x_j)), normalised (Golub & Welsch, Math. Comp. 23, 221
    (1969)).  As psi_n(-x) = (-1)^n psi_n(x) exactly, only the non-negative
    nodes are evaluated: with S = diag((-1)^n) and V the (unnormalised)
    dim x ceil(dim/2) vectors there, exp(i s J) y = V N (e^{i s lam} V^T y)
    + S V N (e^{-i s lam} V^T S y), N the inverse squared norms, counting a
    zero node (odd dim) once.  Each product with V is a real multiply on four
    stacked columns.
    """
    if beta == 0:
        return StateVector(state.amp.copy())
    dim = state.dim
    x = _hermite_nodes(dim)[dim // 2 :]
    # V stays in the recurrence's 64-row blocks: one 16 MB matrix (dim 2001),
    # once freed, lifts glibc's mmap threshold, and a later 32 MB squeeze
    # eigenvector matrix then lands in a fresh mmap on top of the free heap.
    blocks = [(n0, block.copy()) for n0, block in _hermite_blocks(x, dim - 1)]
    phase = (-1j * cmath.exp(1j * cmath.phase(beta))) ** np.arange(dim)
    sign = (-1.0) ** np.arange(dim)
    y = np.conj(phase) * state.amp
    ys = np.column_stack([y.real, y.imag, sign * y.real, sign * y.imag])
    w = sum(block.T @ ys[n0 : n0 + len(block)] for n0, block in blocks)
    norm_sq = sum(np.einsum("ij,ij->j", block, block) for _, block in blocks)
    turn = np.exp(1j * abs(beta) * (_SQRT2 * x)) / norm_sq
    z_pos = (w[:, 0] + 1j * w[:, 1]) * turn
    z_neg = (w[:, 2] + 1j * w[:, 3]) * turn.conj()
    if dim % 2:
        z_neg[0] = 0.0  # the zero node is its own mirror
    zs = np.column_stack([z_pos.real, z_pos.imag, z_neg.real, z_neg.imag])
    u = np.concatenate([block @ zs for _, block in blocks])
    return StateVector(phase * (u[:, 0] + 1j * u[:, 1] + sign * (u[:, 2] + 1j * u[:, 3])))


def _build_probe(spec: ProbeSpec, n_max: int) -> np.ndarray:
    dim = n_max + 1
    amp = np.zeros(dim, dtype=complex)
    amp[0] = 1.0
    state = StateVector(amp)
    if spec.r > 0.0:
        state = apply_squeeze(state, spec.r, spec.phi_r)
    # S(zeta) D(alpha) |0> = D(beta) S(zeta) |0>, beta = alpha cosh r + conj(alpha) e^{i phi_r} sinh r
    if spec.alpha_abs > 0.0:
        alpha = spec.alpha
        beta = alpha * math.cosh(spec.r) + np.conj(alpha) * cmath.exp(1j * spec.phi_r) * math.sinh(spec.r)
        state = apply_displacement(state, beta)
    out = state.amp
    nrm = np.linalg.norm(out)
    if nrm > 1.0:  # roundoff can push the (unitary) norm above one
        out = out / nrm
    return out


def initial_cutoff(nbar: float) -> int:
    """First n_max tried for a probe of incident mean photon number nbar."""
    return max(int(math.ceil(4.0 * nbar)) + 50, 64)


def tail_estimate(populations: np.ndarray) -> float:
    """Conservative estimate of the population truncated beyond the cutoff.

    Uses geometric extrapolation of the two top index bands, each at least two
    indices wide so that it spans both parities (a squeezed vacuum fills only
    the even ones); returns inf when the populations still grow towards the
    cutoff, and 0 when the top band sums to at most ``_TAIL_FLOOR`` (1e-20).
    """
    dim = populations.size
    w = max(16, dim // 32)
    if dim < 2 * w + 1:
        w = max(2, dim // 4)
    b1 = float(populations[-2 * w : -w].sum())
    b2 = float(populations[-w:].sum())
    if b2 <= _TAIL_FLOOR:
        return 0.0
    if b1 <= b2:
        return math.inf
    ratio = min(b2 / b1, 0.99)
    return b2 * ratio / (1.0 - ratio)


def make_probe_state(
    spec: ProbeSpec,
    cutoff: int | None = None,
    *,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> StateVector:
    """Construct S(zeta) D(alpha) |0> in a truncated Fock basis.

    The cutoff n_max (the highest retained Fock index) starts at
    `initial_cutoff` and doubles until the tail estimate drops below
    ``tail_tol``, up to `cutoff_cap` (TPA_CUTOFF_MAX, default 4096).  A fixed
    ``cutoff`` is both the start and the cap: the state is built once and
    rejected with `TruncationError` if its tail estimate exceeds ``tail_tol``.
    """
    if cutoff is None:
        cap = cutoff_cap()
        n_max = min(initial_cutoff(spec.mean_photon_number()), cap)
    else:
        n_max = cap = cutoff
    if spec.is_vacuum:
        return StateVector(_build_probe(spec, n_max))
    if n_max < 2:
        raise TruncationError("non-vacuum probes need n_max >= 2")
    first_guess = n_max
    while True:
        amp = _build_probe(spec, n_max)
        est = tail_estimate(np.abs(amp) ** 2)
        if est <= tail_tol:
            break
        if n_max >= cap:
            where = f"n_max={cap}"
            if cutoff is None:
                where = f"the cutoff cap {where}; raise {CUTOFF_CAP_ENV} or loosen tail_tol"
            raise TruncationError(f"tail population ~{est:.3e} exceeds tail_tol={tail_tol:.1e} at {where}")
        n_max = min(2 * n_max, cap)
    if n_max > 8 * first_guess:
        warnings.warn(
            f"cutoff grew from {first_guess} to {n_max} while chasing tail_tol={tail_tol:.1e}",
            CutoffGrowthWarning,
            stacklevel=2,
        )
    return StateVector(amp)


@dataclass(frozen=True)
class Moments:
    """First and second moments of photon number and both quadratures."""

    mean_n: float
    var_n: float
    mean_q: float
    var_q: float
    mean_p: float
    var_p: float


def _vector_moments(amp: np.ndarray) -> Moments:
    n = np.arange(amp.size, dtype=float)
    p = np.abs(amp) ** 2
    mean_n = float(np.dot(n, p))
    var_n = float(np.dot(n * n, p)) - mean_n**2
    # <a> = sum_n sqrt(n+1) conj(c_n) c_{n+1},  <a^2> = sum_n sqrt((n+1)(n+2)) conj(c_n) c_{n+2}
    ea = complex(np.sum(np.sqrt(n[1:]) * np.conj(amp[:-1]) * amp[1:]))
    ea2 = complex(np.sum(np.sqrt(n[1:-1] * (n[1:-1] + 1.0)) * np.conj(amp[:-2]) * amp[2:]))
    return _quad_moments(mean_n, var_n, ea, ea2)


def _matrix_sums(rho: np.ndarray) -> tuple[float, float, complex, complex]:
    """tr(rho n), tr(rho n^2), tr(rho a), tr(rho a^2): linear in rho, so also for a traceless drho."""
    n = np.arange(rho.shape[0], dtype=float)
    diag = np.diagonal(rho).real
    # tr(rho a) picks the first subdiagonal, tr(rho a^2) the second.
    ea = complex(np.sum(np.sqrt(n[1:]) * np.diagonal(rho, -1)))
    ea2 = complex(np.sum(np.sqrt(n[2:] * (n[2:] - 1.0)) * np.diagonal(rho, -2)))
    return float(np.dot(n, diag)), float(np.dot(n * n, diag)), ea, ea2


def _matrix_moments(rho: np.ndarray) -> Moments:
    mean_n, mean_n2, ea, ea2 = _matrix_sums(rho)
    return _quad_moments(mean_n, mean_n2 - mean_n**2, ea, ea2)


def _quad_moments(mean_n: float, var_n: float, ea: complex, ea2: complex) -> Moments:
    # q = (a + a_dag)/sqrt(2), p = (a - a_dag)/(i sqrt(2)); vacuum variance 1/2.
    mean_q = _SQRT2 * ea.real
    mean_p = _SQRT2 * ea.imag
    mean_q2 = ea2.real + mean_n + 0.5
    mean_p2 = -ea2.real + mean_n + 0.5
    return Moments(
        mean_n=mean_n,
        var_n=var_n,
        mean_q=mean_q,
        var_q=mean_q2 - mean_q**2,
        mean_p=mean_p,
        var_p=mean_p2 - mean_p**2,
    )


def moments(state: StateVector | np.ndarray) -> Moments:
    """Photon-number and quadrature moments of a state vector or density matrix."""
    arr = state.amp if isinstance(state, StateVector) else np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return _vector_moments(arr)
    if arr.ndim == 2:
        return _matrix_moments(arr)
    raise ValueError("state must be a vector or a square matrix")
