import numpy as np
import pytest

from tpa_metrology.validate import (
    CHECKS,
    first_order_gradient_check,
    report_dict,
    run_validate,
)


def test_analytic_numeric_agreement_builds_each_probe_once(probe_builds):
    # 36 probes, each evaluated at every eta for all three observables
    (res,) = run_validate(checks=["analytic-numeric-agreement"])
    assert res.status == "pass"
    assert len(probe_builds) == 36


def test_non_finite_densities_fail_their_checks():
    # at this eta the Hermite functions overflow at x / sqrt(eta); a NaN
    # density must fail its check, not pass as max(0.0, nan) = 0.0
    pdf_checks = ["convolution-vs-kraus", "pdf-moment-consistency", "pdf-derivative-consistency"]
    results = run_validate(eta=2.2250738585072014e-308, checks=["loss-trace-preservation", *pdf_checks])
    assert [r.status for r in results] == ["pass", "fail", "fail", "fail"]
    assert all("GridError" in r.detail for r in results[1:])


def test_mutated_generator_fails_gradient_check():
    # wrong Lindblad prefactor (1/2 instead of 1/4) must break the
    # gradient-vs-propagation consistency
    def bad_generator(rho):
        dim = rho.shape[0]
        n = np.arange(dim, dtype=float)
        n2 = n * (n - 1.0)
        out = np.zeros_like(rho, dtype=complex)
        if dim > 2:
            shift = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
            out[:-2, :-2] = 1.0 * (shift[:, None] * shift[None, :]) * rho[2:, 2:]
        out -= 0.5 * (n2[:, None] + n2[None, :]) * rho
        return out

    with pytest.raises(AssertionError):
        first_order_gradient_check(generator=bad_generator)


def test_correct_generator_passes_gradient_check():
    ratio = first_order_gradient_check()
    assert 0.5 < ratio < 2.0


def test_eta_one_skips_loss_checks():
    results = run_validate(
        eta=1.0,
        checks=["loss-trace-preservation", "kraus-binomial-equivalence", "squeezed-parity"],
    )
    by_name = {r.name: r for r in results}
    assert by_name["loss-trace-preservation"].status == "skip"
    assert "not applicable" in by_name["loss-trace-preservation"].detail
    assert by_name["kraus-binomial-equivalence"].status == "skip"
    assert by_name["squeezed-parity"].status == "pass"


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_validate(checks=["no-such-check"])


def test_report_dict_shape():
    results = run_validate(checks=["squeezed-parity"])
    report = report_dict(results)
    assert report["ok"] is True
    assert report["n_pass"] == 1
    assert report["checks"][0]["name"] == "squeezed-parity"


def test_registry_covers_all_modules():
    names = set(CHECKS)
    assert {"norm-preservation", "hermite-norms", "cramer-rao-ordering", "sweep-determinism"} <= names
