"""The banded binomial-thinning kernel against scipy.stats: its weights and the dense binom.pmf matrix."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import binom, poisson

from tpa_metrology import channels
from tpa_metrology.channels import apply_binomial_loss, population_derivative
from tpa_metrology.distributions import coherent_pmf, pmf_auto_cutoff, sv_pmf_closed_form
from tpa_metrology.metrology import fisher_discrete
from tpa_metrology.sweeps import SweepConfig, run_sweep


def _scipy_binom_pmf(n, m, eta):
    try:
        return binom.pmf(n, m, eta)
    except OverflowError:  # eta near the smallest normal double
        return np.exp(binom.logpmf(n, m, eta))


def dense_thin(vec, eta, chunk=1024):
    """Reference map: every entry of the N x N binom.pmf matrix, in row chunks."""
    v = np.asarray(vec, dtype=float)
    if eta == 1.0:
        return v.copy()
    size = v.shape[0]
    m = np.arange(size)
    out = np.empty(v.shape)
    for start in range(0, size, chunk):
        rows = np.arange(start, min(start + chunk, size))
        out[rows] = _scipy_binom_pmf(rows[:, None], m[None, :], eta) @ v
    return out


_SIGNED = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_VECTORS = st.integers(1, 600).flatmap(
    lambda n: hnp.arrays(np.float64, st.sampled_from([(n,), (n, 1), (n, 2)]), elements=_SIGNED)
)
_UNIT_ROUNDOFF = 2.0**-53
_ETAS = st.one_of(st.sampled_from([0.0, 1e-6, 1.0 - 1e-6, 1.0]), st.floats(0.0, 1.0))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(v=_VECTORS, eta=_ETAS)
# At eta = 0 every entry of a column lands in out[0], so both routes sum all n
# equal terms, in different orders; these two sizes need more than 1e-14.
@example(v=np.full(500, 880116.41), eta=0.0)
@example(v=np.full(600, 880116.41), eta=0.0)
# binom.pmf overflows (OverflowError) at this eta; logpmf does not.
@example(v=np.ones(5), eta=2.2250738585072014e-308)
def test_banded_matches_dense(v, eta):
    banded = apply_binomial_loss(v, eta)
    assert banded.shape == v.shape
    # Each route sums at most n products w v with 0 <= w <= 1, so each is within
    # gamma_n * sum|v| of the exact sum, gamma_n = n u / (1 - n u) with unit
    # roundoff u = 2^-53 (Higham, Accuracy and Stability of Numerical
    # Algorithms, sec. 4.2); the band drops < 1e-25 of each column's weight.
    n = v.shape[0]
    gamma_n = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    bound = (2.0 * gamma_n + 1e-25) * np.abs(v).sum(axis=0)
    assert np.all(np.abs(banded - dense_thin(v, eta)) <= bound)


@settings(deadline=None)
@given(size=st.integers(1, 4096), eta=_ETAS)
# unclipped, the pmf kernel reads 1 + 6e-15 at n = 0 for this eta
@example(size=600, eta=9.772411357992438e-218)
# the pmf kernel raises OverflowError at this eta, so both routes take logpmf
@example(size=300, eta=2.2250738585072014e-308)
@example(size=4096, eta=5e-324)
def test_weights_equal_scipy_stats_bit_for_bit(size, eta):
    (data, indices, indptr), _ = channels._band_arrays(size, eta)
    cols = np.repeat(np.arange(size), np.diff(indptr))
    assert np.array_equal(data, _scipy_binom_pmf(indices, cols, eta))
    m = np.repeat(np.arange(min(size, 200)), np.arange(1, min(size, 200) + 1))
    n = np.concatenate([np.arange(j + 1) for j in range(min(size, 200))])
    assert np.array_equal(channels._binom_pmf(n, m, eta), _scipy_binom_pmf(n, m, eta))
    # the overflow fallback's log weights, here at every eta
    assert np.array_equal(channels._binom_logpmf(n, m, eta), binom.logpmf(n, m, eta))


@pytest.mark.parametrize("nbar", [0.0, 1e-300, 0.5, 12.7, 50.0, 1000.0])
def test_coherent_pmf_equals_scipy_stats_bit_for_bit(nbar):
    assert np.array_equal(coherent_pmf(nbar, 4499).p, poisson.pmf(np.arange(4500), nbar))


@pytest.mark.filterwarnings("ignore::tpa_metrology.exceptions.IllConditionedBinWarning")
@pytest.mark.parametrize("eta", [0.1, 0.75])
@pytest.mark.parametrize("kind, builder", [("sv", sv_pmf_closed_form), ("coherent", coherent_pmf)])
def test_fisher_information_unchanged(kind, builder, eta):
    p0 = builder(50.0, pmf_auto_cutoff(kind, 50.0)).p
    pair = np.stack([p0, population_derivative(p0)], axis=1)
    banded = fisher_discrete(*apply_binomial_loss(pair, eta).T)
    dense = fisher_discrete(*dense_thin(pair, eta).T)
    assert banded.fi == pytest.approx(dense.fi, rel=1e-13, abs=0.0)
    assert banded.ill_bins == dense.ill_bins


def test_one_dimensional_contract():
    v = np.array([0.2, 0.5, 0.3])
    out = apply_binomial_loss(v, 0.4)
    assert out.shape == v.shape
    same = apply_binomial_loss(v, 1.0)
    assert same is not v and np.array_equal(same, v)
    same[0] = 9.0
    assert v[0] == 0.2


@pytest.mark.parametrize("eta", [-0.1, 1.5, float("nan")])
def test_rejects_eta_outside_unit_interval(eta):
    with pytest.raises(ValueError, match="eta"):
        apply_binomial_loss(np.array([0.5, 0.5]), eta)


_TINY_ETA = 2.2250738585072014e-308


def _pairs(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((size, 2)) for size in sizes]


@pytest.mark.parametrize("eta", [0.75, 0.1, 0.0, _TINY_ETA])
def test_reused_band_is_bit_identical_to_a_fresh_one(eta):
    # the held band's leading block thins a smaller vector, a larger one rebuilds
    vecs = _pairs([2001, 251, 1005, 2001, 64, 3])
    fresh = [apply_binomial_loss(v, eta) for v in vecs]
    with channels._scan_scope():
        reused = [apply_binomial_loss(v, eta) for v in vecs]
    assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))


def test_reused_band_follows_eta_changes():
    calls = [(501, 0.3), (251, 0.3), (501, 0.0), (1005, 1.0), (300, 0.0), (64, _TINY_ETA), (2, _TINY_ETA),
             (700, 0.3), (64, 0.3)]
    vecs = _pairs([size for size, _ in calls], seed=1)
    fresh = [apply_binomial_loss(v, eta) for v, (_, eta) in zip(vecs, calls)]
    with channels._scan_scope():
        reused = [apply_binomial_loss(v, eta) for v, (_, eta) in zip(vecs, calls)]
    assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))


def test_no_band_is_held_outside_the_scope():
    v = np.ones((300, 2))
    with channels._scan_scope():
        apply_binomial_loss(v, 0.5)
        assert channels._held_band["size"] == 300
        with channels._scan_scope():  # a nested scope leaves the band to the outer one
            apply_binomial_loss(v, 0.5)
        assert channels._held_band["size"] == 300
    assert channels._held_band is None
    with pytest.raises(RuntimeError):
        with channels._scan_scope():
            apply_binomial_loss(v, 0.5)
            raise RuntimeError("a sweep point failed")
    assert channels._held_band is None
    apply_binomial_loss(v, 0.5)
    assert channels._held_band is None


@pytest.mark.filterwarnings("ignore::tpa_metrology.exceptions.IllConditionedBinWarning")
def test_an_eta_sweep_never_holds_two_bands(monkeypatch, tmp_path):
    # every point of an eta sweep needs a new band; when it is built, the
    # memory still traced from the sweep's start must not hold the last one
    built = []
    real_band_arrays = channels._band_arrays

    def traced_band_arrays(size, eta):
        alive = tracemalloc.get_traced_memory()[0] - start
        band, reusable = real_band_arrays(size, eta)
        built.append((alive, sum(a.nbytes for a in band)))
        return band, reusable

    monkeypatch.setattr(channels, "_band_arrays", traced_band_arrays)
    etas = (0.2, 0.4, 0.6, 0.8)
    config = SweepConfig(state_family="sv", observable="photon_number", sweep_axis="eta", axis_values=etas,
                         fixed_params={"nbar": 20.0}, output_path=str(tmp_path / "eta.csv"))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_sweep(config)
    finally:
        tracemalloc.stop()
    assert len(built) == len(etas)
    assert all(nbytes > 500_000 for _, nbytes in built)
    assert all(alive < last for (alive, _), (_, last) in zip(built[1:], built))
