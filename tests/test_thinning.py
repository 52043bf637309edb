"""The banded binomial-thinning kernel against the dense binom.pmf matrix."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import binom

from tpa_metrology.channels import apply_binomial_loss, population_derivative
from tpa_metrology.distributions import coherent_pmf, pmf_auto_cutoff, sv_pmf_closed_form
from tpa_metrology.metrology import fisher_discrete


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
        try:
            weights = binom.pmf(rows[:, None], m[None, :], eta)
        except OverflowError:  # eta near the smallest normal double
            weights = np.exp(binom.logpmf(rows[:, None], m[None, :], eta))
        out[rows] = weights @ v
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
