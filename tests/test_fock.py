import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm
from scipy.special import gammaln

from tpa_metrology import fock
from tpa_metrology.distributions import hermite_functions
from tpa_metrology.exceptions import TruncationError
from tpa_metrology.fock import (
    ProbeSpec,
    StateVector,
    apply_displacement,
    apply_squeeze,
    ladder_matrices,
    make_probe_state,
    moments,
    tail_estimate,
)

import expm_oracle

SQRT2 = math.sqrt(2.0)


def dense_squeeze_oracle(r: float, phi_r: float, n_max: int) -> np.ndarray:
    """S(zeta)|0> via a dense matrix exponential, independent of the library path."""
    a, adag = ladder_matrices(n_max)
    zeta = r * np.exp(1j * phi_r)
    gen = 0.5 * zeta * (adag @ adag) - 0.5 * np.conj(zeta) * (a @ a)
    vac = np.zeros(n_max + 1, dtype=complex)
    vac[0] = 1.0
    return expm(gen) @ vac


class TestLadderMatrices:
    def test_entries(self):
        a, adag = ladder_matrices(2)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(math.sqrt(2.0))
        assert np.count_nonzero(a) == 2
        assert np.allclose(adag, a.conj().T)

    def test_number_operator_diagonal(self):
        a, adag = ladder_matrices(6)
        assert np.allclose(np.diagonal(adag @ a).real, np.arange(7))

    def test_commutator_truncation(self):
        n_max = 8
        a, adag = ladder_matrices(n_max)
        comm = a @ adag - adag @ a
        assert np.allclose(comm[:n_max, :n_max], np.eye(n_max))
        assert comm[n_max, n_max].real == pytest.approx(-n_max)

    def test_rejects_trivial_cutoff(self):
        with pytest.raises(ValueError):
            ladder_matrices(0)


class TestProbeSpec:
    def test_phase_reduction(self):
        spec = ProbeSpec(r=1.0, phi_r=2.0 * math.pi + 0.3, alpha_abs=1.0, phi=-0.5)
        assert spec.phi_r == pytest.approx(0.3)
        assert spec.phi == pytest.approx(2.0 * math.pi - 0.5)

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError):
            ProbeSpec(r=-0.1)
        with pytest.raises(ValueError):
            ProbeSpec(alpha_abs=-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["r", "phi_r", "alpha_abs", "phi"])
    def test_rejects_non_finite_fields_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ProbeSpec(**{field: value})

    def test_vacuum_flag(self):
        assert ProbeSpec.vacuum().is_vacuum
        assert not ProbeSpec.squeezed_vacuum(0.1).is_vacuum

    def test_mean_photon_number_closed_form(self):
        spec = ProbeSpec(r=0.8, alpha_abs=1.5, phi=0.7)
        n_r = math.sinh(0.8) ** 2
        gain = 1.0 + 2.0 * n_r + 2.0 * math.sqrt(n_r * (1 + n_r)) * math.cos(1.4)
        assert spec.mean_photon_number() == pytest.approx(n_r + 2.25 * gain)


class TestMakeProbeState:
    def test_vacuum(self):
        state = make_probe_state(ProbeSpec.vacuum())
        assert state.amp[0] == pytest.approx(1.0)
        assert np.allclose(state.amp[1:], 0.0)

    def test_squeezed_vacuum_against_dense_expm(self):
        state = make_probe_state(ProbeSpec.squeezed_vacuum(1.0), 64, tail_tol=1e-8)
        oracle = dense_squeeze_oracle(1.0, 0.0, 64)
        assert np.max(np.abs(state.amp - oracle)) < 1e-12
        # mean shifts by ~n_cut * tail at a hard cutoff; spec contract is rel 1e-8
        assert moments(state).mean_n == pytest.approx(math.sinh(1.0) ** 2, rel=1e-8)

    def test_squeezed_vacuum_parity(self):
        state = make_probe_state(ProbeSpec.squeezed_vacuum(1.0))
        assert np.max(np.abs(state.amp[1::2])) < 1e-14

    def test_coherent_amplitudes(self):
        alpha = 1.3 * np.exp(0.4j)
        state = make_probe_state(ProbeSpec(alpha_abs=1.3, phi=0.4))
        n = np.arange(state.dim)
        expected = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(alpha) - 0.5 * gammaln(n + 1.0))
        assert np.max(np.abs(state.amp - expected)) < 1e-12

    def test_ordering_identity(self):
        # S(zeta) D(alpha) |0> = D(alpha cosh r + conj(alpha) sinh r) S(zeta) |0>
        r, alpha = 0.5, 1.0
        lhs = make_probe_state(ProbeSpec(r=r, alpha_abs=alpha), 128)
        sv = StateVector(np.eye(129, dtype=complex)[0])
        sv = apply_squeeze(sv, r)
        rhs = apply_displacement(sv, alpha * math.cosh(r) + alpha * math.sinh(r))
        assert lhs.fidelity(rhs) > 1.0 - 1e-10

    def test_general_phase_against_dense_expm(self):
        # cutoff 128 so both operator orderings agree to machine precision
        spec = ProbeSpec(r=0.7, phi_r=1.1, alpha_abs=0.9, phi=2.0)
        state = make_probe_state(spec, 128, tail_tol=1e-8)
        a, adag = ladder_matrices(128)
        alpha = spec.alpha
        disp = expm(alpha * adag - np.conj(alpha) * a)
        vac = np.zeros(129, dtype=complex)
        vac[0] = 1.0
        zeta = spec.r * np.exp(1j * spec.phi_r)
        squeeze = expm(0.5 * zeta * (adag @ adag) - 0.5 * np.conj(zeta) * (a @ a))
        oracle = squeeze @ (disp @ vac)
        assert np.max(np.abs(state.amp - oracle)) < 1e-11

    def test_strict_cutoff_rejection(self):
        with pytest.raises(TruncationError):
            make_probe_state(ProbeSpec.squeezed_vacuum(2.0), 16)

    @pytest.mark.parametrize("cutoff", range(2, 8))
    def test_small_cutoff_tail_spans_both_parities(self, cutoff):
        # a squeezed vacuum fills only even indices: a one-index top band on an
        # odd index read as no tail and let these truncated states through
        with pytest.raises(TruncationError):
            make_probe_state(ProbeSpec.squeezed_vacuum(2.0), cutoff)

    def test_fixed_cutoff_checked_against_tail_tol(self):
        # the one tail_tol bounds a fixed cutoff as it does the adaptive one
        spec = ProbeSpec(r=0.8, alpha_abs=1.2, phi=0.4)
        assert make_probe_state(spec, 64, tail_tol=1e-5).n_max == 64
        with pytest.raises(TruncationError):
            make_probe_state(spec, 64)

    def test_auto_cutoff_unreachable(self, monkeypatch):
        monkeypatch.setenv("TPA_CUTOFF_MAX", "64")
        with pytest.raises(TruncationError, match="TPA_CUTOFF_MAX"):
            make_probe_state(ProbeSpec.squeezed_vacuum(2.5))

    def test_fixed_cutoff_is_its_own_cap(self, monkeypatch):
        # a fixed cutoff is built once at that size, whatever TPA_CUTOFF_MAX says
        monkeypatch.setenv("TPA_CUTOFF_MAX", "abc")
        spec = ProbeSpec.squeezed_vacuum(0.5)
        assert make_probe_state(spec, 100).n_max == 100
        with pytest.raises(TruncationError) as err:
            make_probe_state(ProbeSpec.squeezed_vacuum(2.5), 64)
        assert "TPA_CUTOFF_MAX" not in str(err.value)

    def test_vacuum_at_any_cutoff(self):
        # the n_max >= 2 rule is for non-vacuum probes only
        for cutoff in (0, 1, 5):
            state = make_probe_state(ProbeSpec.vacuum(), cutoff)
            assert state.n_max == cutoff and state.populations()[0] == 1.0

    def test_norm_within_tail_tol(self):
        for spec in (
            ProbeSpec.squeezed_vacuum(2.0),
            ProbeSpec.coherent(6.0),
            ProbeSpec(r=1.0, alpha_abs=2.0, phi=1.0),
        ):
            state = make_probe_state(spec)
            assert abs(state.norm() - 1.0) < 1e-10

    def test_unitarity_roundtrip(self):
        state = make_probe_state(ProbeSpec.coherent(1.0, 0.6), 96)
        roundtrip = apply_squeeze(apply_squeeze(state, 0.9, 0.4), -0.9, 0.4)
        assert state.fidelity(roundtrip) > 1.0 - 1e-10


_ANGLES = st.floats(0.0, 2.0 * math.pi)
_AMPLITUDES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
_STATES = st.integers(2, 80).flatmap(lambda dim: hnp.arrays(np.complex128, dim, elements=_AMPLITUDES))


class TestUnitaries:
    @settings(deadline=None)
    @given(x=_STATES, r=st.floats(-3.0, 3.0), phi_r=_ANGLES, beta_abs=st.floats(0.0, 6.0), arg_beta=_ANGLES)
    def test_match_dense_expm_of_the_same_generator(self, x, r, phi_r, beta_abs, arg_beta):
        # a general input occupies both parities, as validate's squeeze of a
        # coherent state does; 1e-300 covers roundoff in subnormal amplitudes
        bound = 1e-12 * math.sqrt(x.size) * np.max(np.abs(x)) + 1e-300
        squeezed = apply_squeeze(StateVector(x), r, phi_r).amp
        oracle = expm(expm_oracle.squeeze_generator(r, phi_r, x.size).toarray()) @ x
        assert np.max(np.abs(squeezed - oracle)) <= bound
        beta = beta_abs * np.exp(1j * arg_beta)
        displaced = apply_displacement(StateVector(x), beta).amp
        oracle = expm(expm_oracle.displacement_generator(beta, x.size).toarray()) @ x
        assert np.max(np.abs(displaced - oracle)) <= bound

    @pytest.mark.parametrize(
        "spec, cutoff",
        [
            (ProbeSpec.squeezed_vacuum(math.asinh(math.sqrt(50.0))), 2000),
            (ProbeSpec.coherent(math.sqrt(50.0), math.pi / 2.0), 251),
        ],
        ids=["sv", "coherent"],
    )
    def test_probe_matches_expm_multiply_at_fifty_photons(self, spec, cutoff):
        # the squeeze-scan endpoints at <n> = 50 and tail_tol 1e-8: the cutoff
        # the expm_multiply route chose, and the same truncated state
        state = make_probe_state(spec, tail_tol=1e-8)
        assert state.n_max == cutoff
        assert np.max(np.abs(state.amp - expm_oracle.build_probe(spec, cutoff))) < 5e-12

    @pytest.mark.parametrize("dim, mean_n", [(2001, 50.0), (4001, 1000.0)])
    def test_displaced_vacuum_matches_poisson_amplitudes(self, dim, mean_n):
        # away from the cutoff the truncated D(beta)|0> is the untruncated
        # coherent state e^{-|beta|^2/2} beta^n / sqrt(n!)
        beta = math.sqrt(mean_n) * np.exp(0.4j)
        amp = apply_displacement(StateVector(np.eye(1, dim, dtype=complex)[0]), beta).amp
        n = np.arange(dim // 2)
        exact = np.exp(-0.5 * mean_n + n * np.log(beta) - 0.5 * gammaln(n + 1.0))
        assert np.max(np.abs(amp[: dim // 2] - exact)) <= 5e-13

    def test_displacement_roundtrip_at_large_dimension(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4001) + 1j * rng.standard_normal(4001)
        x /= np.linalg.norm(x)
        beta = math.sqrt(1000.0) * np.exp(0.4j)
        back = apply_displacement(apply_displacement(StateVector(x), beta), -beta).amp
        assert np.max(np.abs(back - x)) <= 1e-12

    def test_displacement_nodes_are_cached_per_dimension(self, monkeypatch):
        calls = []

        def counting_roots(dim):
            calls.append(dim)
            return real_roots(dim)

        def no_eigh(*args, **kwargs):
            raise AssertionError("the displacement must not decompose J")

        real_roots = fock.roots_hermite
        monkeypatch.setattr(fock, "roots_hermite", counting_roots)
        monkeypatch.setattr(fock, "eigh_tridiagonal", no_eigh)
        monkeypatch.setattr(fock, "_HERMITE_NODES", {})
        x = StateVector(np.eye(1, 97, dtype=complex)[0])
        first = apply_displacement(x, 1.5 + 0.5j).amp
        assert calls == [97]
        assert np.array_equal(apply_displacement(x, 1.5 + 0.5j).amp, first)
        assert calls == [97]
        apply_displacement(StateVector(np.eye(1, 98, dtype=complex)[0]), 1.5 + 0.5j)
        assert calls == [97, 98]
        assert sorted(fock._HERMITE_NODES) == [97, 98]
        assert all(nodes.shape == (dim,) for dim, nodes in fock._HERMITE_NODES.items())

    @pytest.mark.parametrize("dim", [65, 251, 2001])
    def test_cached_nodes_match_one_newton_step_on_the_full_matrix(self, dim, monkeypatch):
        # the streamed Newton step keeps the same two rows of the recurrence
        monkeypatch.setattr(fock, "_HERMITE_NODES", {})
        fock._hermite_nodes(dim)
        x = fock.roots_hermite(dim)[0]
        psi = hermite_functions(x, dim)[dim - 1 :]
        assert np.array_equal(fock._HERMITE_NODES[dim], x - psi[1] / (math.sqrt(2.0 * dim) * psi[0]))


_PARITY_DIMS = [*range(2, 601), 1001, 1005, 2001, 4001]


def full_node_displacement(amp: np.ndarray, beta: complex) -> np.ndarray:
    """D(beta) amp from every Gauss-Hermite node: one dim x dim eigenvector matrix."""
    dim = amp.size
    x = fock._hermite_nodes(dim)
    lam = SQRT2 * x
    vec = hermite_functions(x, dim - 1)
    vec /= np.sqrt(np.einsum("ij,ij->j", vec, vec))
    phase = (-1j * np.exp(1j * np.angle(beta))) ** np.arange(dim)
    y = np.conj(phase) * amp
    w = vec.T @ np.column_stack([y.real, y.imag])
    z = (w[:, 0] + 1j * w[:, 1]) * np.exp(1j * abs(beta) * lam)
    u = vec @ np.column_stack([z.real, z.imag])
    return phase * (u[:, 0] + 1j * u[:, 1])


class TestNodeParity:
    """The displacement evaluates the recurrence at the non-negative nodes only."""

    def test_nodes_are_mirror_symmetric(self):
        asymmetric = [dim for dim in _PARITY_DIMS
                      if not np.array_equal(fock._hermite_nodes(dim), -fock._hermite_nodes(dim)[::-1])]
        assert asymmetric == []

    def test_hermite_functions_are_exactly_even_or_odd_on_the_nodes(self):
        # x and -x together cover every node
        for dim in _PARITY_DIMS:
            x = fock._hermite_nodes(dim)[dim // 2 :]
            if dim > 600:  # the 48 largest, past |x| = 38.6 where columns rescale, and every 16th
                x = np.concatenate([x[:-48:16], x[-48:]])
                assert x[-1] > 38.6
            # one call on [x, -x]: the recurrence treats each column on its own
            psi = hermite_functions(np.concatenate([x, -x]), dim - 1)
            sign = (-1.0) ** np.arange(dim)[:, None]
            assert np.array_equal(psi[:, x.size :], sign * psi[:, : x.size]), dim

    @pytest.mark.parametrize("dim", [65, 252, 1001, 2001])
    def test_matches_the_full_node_formula(self, dim):
        rng = np.random.default_rng(dim)
        vac = StateVector(np.eye(1, dim, dtype=complex)[0])
        noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for state, beta in [
            (vac, math.sqrt(50.0) * np.exp(0.4j)),
            (apply_squeeze(vac, math.asinh(5.0)), 5.0 * np.exp(0.4j)),
            (StateVector(noise / np.linalg.norm(noise)), 2.0 * np.exp(-1.1j)),
        ]:
            half = apply_displacement(state, beta).amp
            assert np.max(np.abs(half - full_node_displacement(state.amp, beta))) <= 1e-15

    def test_holds_half_the_eigenvector_matrix(self):
        # the full-node matrix is 32 MB at dimension 2001, the half-node one 16 MB
        state = StateVector(np.eye(1, 2001, dtype=complex)[0])
        fock._hermite_nodes(2001)
        tracemalloc.start()
        try:
            apply_displacement(state, 3.0 + 1.0j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestTailEstimate:
    def test_growing_band_below_floor_reads_zero(self):
        # roundoff-level populations that grow towards the cutoff are no tail
        pops = np.geomspace(1e-34, 1e-23, 256)
        assert pops[-16:].sum() <= 1e-20
        assert tail_estimate(pops) == 0.0
        assert tail_estimate(pops * 1e4) == math.inf


class TestMoments:
    def test_vacuum_quadrature_variances(self):
        mom = moments(make_probe_state(ProbeSpec.vacuum()))
        assert mom.var_q == pytest.approx(0.5)
        assert mom.var_p == pytest.approx(0.5)

    def test_coherent_poisson_statistics(self):
        mom = moments(make_probe_state(ProbeSpec.coherent(2.0)))
        assert mom.mean_n == pytest.approx(4.0, rel=1e-10)
        assert mom.var_n == pytest.approx(4.0, rel=1e-9)
        assert mom.mean_q == pytest.approx(2.0 * SQRT2, rel=1e-10)

    def test_squeezed_vacuum_variances(self):
        mom = moments(make_probe_state(ProbeSpec.squeezed_vacuum(1.0)))
        assert mom.var_q == pytest.approx(math.exp(2.0) / 2.0, rel=1e-9)
        assert mom.var_p == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-9)

    def test_matrix_and_vector_paths_agree(self):
        state = make_probe_state(ProbeSpec(r=0.6, alpha_abs=1.1, phi=0.8))
        mv = moments(state)
        mm = moments(state.to_density_matrix())
        for name in ("mean_n", "var_n", "mean_q", "var_q", "mean_p", "var_p"):
            assert getattr(mv, name) == pytest.approx(getattr(mm, name), abs=1e-10)

    def test_mean_matches_analytic_over_grid(self):
        for r in (0.0, 0.5, 1.5):
            for a in (0.0, 1.0, 3.0):
                spec = ProbeSpec(r=r, alpha_abs=a, phi=0.9)
                got = moments(make_probe_state(spec)).mean_n
                want = spec.mean_photon_number()
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_fock_imports_nothing_from_distributions():
    # distributions builds on fock's Hermite kernel; an import back would be a cycle
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(fock))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not [name for name in names if "distributions" in name]
