"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 3 is expected to fail: the converged eta = 0.1 vs
eta = 0.9 squeezed-vacuum Fisher informations at n = 50 differ by ~12.3%
(cross-checked by a finite-difference oracle), outside the stated 10%.
"""

import math
import time
import warnings

import numpy as np
import pytest

import conftest
from tpa_metrology import LossSpec, ProbeSpec, make_probe_state
from tpa_metrology.metrology import (
    amplitude_for_mean_n,
    fisher_from_state,
    fisher_photon_counting,
    fisher_ratio_coh_over_sv,
    limit_table,
    sensitivity_analytic,
    sensitivity_numeric,
    squeeze_scan,
)
from tpa_metrology.validate import report_dict, run_validate

warnings.filterwarnings("ignore")


def sv_spec(nbar: float) -> ProbeSpec:
    return ProbeSpec.squeezed_vacuum(math.asinh(math.sqrt(nbar)))


def report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    if not ok:
        pytest.fail(f"criterion {num}: {detail}")


def test_criterion_1_coherent_sensitivity():
    t0 = time.monotonic()
    worst = 0.0
    for n in (1.0, 4.0, 16.0, 64.0):
        for eta in (0.1, 0.5, 1.0):
            res = sensitivity_numeric(
                ProbeSpec.coherent(math.sqrt(n)), LossSpec(eta), "photon_number"
            )
            rel = abs(res.delta_eps_sq - 1.0 / (eta * n**3)) * (eta * n**3)
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(1, ok, f"numeric vs 1/(eta n^3): worst rel {worst:.2e}, runtime {elapsed:.1f} s")


def test_criterion_2_sv_loss_independence():
    n_r = 50.0
    spec = sv_spec(n_r)
    limit = 2.0 / (9.0 * n_r**2)
    devs = {}
    agree = 0.0
    for eta, tol in ((0.2, 0.12), (0.9, 0.03)):
        ana = sensitivity_analytic(spec, LossSpec(eta), "photon_number").delta_eps_sq
        devs[eta] = (abs(ana - limit) / limit, tol)
        num = sensitivity_numeric(spec, LossSpec(eta), "photon_number").delta_eps_sq
        agree = max(agree, abs(num - ana) / ana)
    ok = all(dev < tol for dev, tol in devs.values()) and agree < 1e-6
    report(
        2,
        ok,
        f"limit deviation eta=0.2: {devs[0.2][0]:.3f} (<0.12), "
        f"eta=0.9: {devs[0.9][0]:.4f} (<0.03); numeric-analytic {agree:.2e}",
    )


def test_criterion_3_sv_fi_convergence():
    spec = sv_spec(50.0)
    fi, product = {}, {}
    for eta in (0.1, 0.9):
        fi[eta] = fisher_photon_counting(spec, LossSpec(eta)).fi
        deps2 = sensitivity_analytic(spec, LossSpec(eta), "photon_number").delta_eps_sq
        product[eta] = fi[eta] * deps2
    spread = abs(fi[0.1] - fi[0.9]) / max(fi.values())
    brackets_ok = all(1.3 <= p <= 3.0 for p in product.values())
    ok = spread <= 0.10 and brackets_ok
    report(
        3,
        ok,
        f"FI(0.1)={fi[0.1]:.1f}, FI(0.9)={fi[0.9]:.1f}, spread {spread:.3f} (required <= 0.10); "
        f"FI*deps2: {product[0.1]:.2f}, {product[0.9]:.2f} (required in [1.3, 3])",
    )


def test_criterion_4_coherent_fi_equals_mean_information():
    spec = ProbeSpec.coherent(math.sqrt(10.0))
    fi = fisher_photon_counting(spec, LossSpec(0.5)).fi
    deps2 = sensitivity_analytic(spec, LossSpec(0.5), "photon_number").delta_eps_sq
    dev = abs(fi * deps2 - 1.0)
    report(4, dev < 0.05, f"|FI * deps2 - 1| = {dev:.4f} at nbar=10, eta=0.5")


def test_criterion_5_quadrature_scaling():
    t0 = time.monotonic()
    ns_p = np.array([5.0, 7.0, 10.0, 14.0, 20.0])
    fi_p = np.array(
        [
            fisher_from_state(
                make_probe_state(sv_spec(n), tail_tol=1e-9, max_n=1024), LossSpec(1.0), "quad_p"
            ).fi
            for n in ns_p
        ]
    )
    slope_p = float(np.polyfit(np.log(ns_p), np.log(fi_p), 1)[0])
    pref_p = float(np.exp(np.mean(np.log(fi_p / ns_p**4))))

    ns_q = np.array([10.0, 15.0, 22.0, 30.0, 40.0])
    fi_q = np.array(
        [
            fisher_from_state(
                make_probe_state(sv_spec(n), tail_tol=1e-5, max_n=1024), LossSpec(0.5), "quad_q"
            ).fi
            for n in ns_q
        ]
    )
    slope_q = float(np.polyfit(np.log(ns_q), np.log(fi_q), 1)[0])
    pref_q = float(np.exp(np.mean(np.log(fi_q / ns_q**2))))
    elapsed = time.monotonic() - t0

    ok = (
        abs(slope_p - 4.0) <= 0.15
        and abs(pref_p / 32.0 - 1.0) <= 0.20
        and abs(slope_q - 2.0) <= 0.15
        and abs(pref_q / 10.5 - 1.0) <= 0.20
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"squeezed: slope {slope_p:.3f} (4 +- 0.15), prefactor {pref_p:.1f} (32 +- 20%); "
        f"anti-squeezed: slope {slope_q:.3f} (2 +- 0.15), prefactor {pref_q:.2f} "
        f"(10.5 +- 20%); runtime {elapsed:.0f} s",
    )


def test_criterion_6_coherent_quadrature_fi():
    n = 25.0
    state_q = make_probe_state(ProbeSpec.coherent(math.sqrt(n), 0.0))
    fi_q = fisher_from_state(state_q, LossSpec(1.0), "quad_q").fi
    fi_p = fisher_from_state(state_q, LossSpec(1.0), "quad_p").fi
    dev_q = abs(fi_q / (n**3 + n**2 / 2.0) - 1.0)
    dev_p = abs(fi_p / (n**2 / 2.0) - 1.0)
    fi_q_lossy = fisher_from_state(state_q, LossSpec(0.5), "quad_q").fi
    reduced = fi_q_lossy < fi_q
    ok = dev_q < 0.05 and dev_p < 0.05 and reduced
    report(
        6,
        ok,
        f"F(q)/(n^3+n^2/2) - 1 = {dev_q:.2e}, F(p)/(n^2/2) - 1 = {dev_p:.2e}; "
        f"eta=0.5 reduces q-FI: {fi_q_lossy:.0f} < {fi_q:.0f} = {reduced}",
    )


def test_criterion_7_limit_table_golden_values():
    r, n, eta = 1.0, 100.0, 0.5
    n_r = math.sinh(r) ** 2
    e2r = math.exp(2.0 * r)
    # independent hand substitution of the published formulas
    hand = {
        ("photon_number", "squeezed_vacuum", "n_r >> 1"): 2.0 / (9.0 * n * n),
        ("photon_number", "coherent", "any n"): 1.0 / (eta * n**3),
        ("photon_number", "phase_squeezed", "n_r >> 1"): e2r / n**3,
        ("photon_number", "amplitude_squeezed", "n_r >> 1"): math.exp(-4.0 * r) / n**3,
        ("quad_q", "coherent", "phi = 0"): 1.0 / (eta * n**3 * math.cos(0.0) ** 2),
        ("quad_q", "phase_squeezed", "alpha << 1"): math.exp(-2.0 * r) * 32.0 / (25.0 * n),
        ("quad_q", "phase_squeezed", "alpha >> e^r"): e2r / n**3,
        ("quad_p", "coherent", "phi = pi/2"): 1.0 / (eta * n**3 * math.sin(math.pi / 2) ** 2),
        ("quad_p", "amplitude_squeezed", "alpha << 1"): (1 - eta) / eta * math.exp(-6 * r) * 32 / (9 * n),
        ("quad_p", "amplitude_squeezed", "alpha >> 1"): (1 - eta) / eta * math.exp(-2 * r) / n**3,
    }
    rows = limit_table(r, n, eta)
    assert len(rows) == len(hand)
    worst_hand = max(
        abs(row.value / hand[(row.measurement, row.state, row.regime)] - 1.0) for row in rows
    )

    def probe_for(row):
        if row.state == "squeezed_vacuum":
            return sv_spec(n), "photon_number"
        if row.state == "coherent":
            phi = math.pi / 2 if row.measurement == "quad_p" else 0.0
            return ProbeSpec.coherent(math.sqrt(n), phi), row.measurement
        phi = 0.0 if row.state == "phase_squeezed" else math.pi / 2
        alpha = amplitude_for_mean_n(n, n_r, phi)
        return ProbeSpec(r=r, alpha_abs=alpha, phi=phi), row.measurement

    held, worst_num = [], 0.0
    for row in rows:
        spec, obs = probe_for(row)
        exact = sensitivity_analytic(spec, LossSpec(eta), obs)
        if exact.diverges or abs(row.value / exact.delta_eps_sq - 1.0) > 0.15:
            continue  # regime assumptions do not hold at desk scale
        held.append((row.measurement, row.state, row.regime))
        num = sensitivity_numeric(spec, LossSpec(eta), obs, tail_tol=1e-8).delta_eps_sq
        worst_num = max(worst_num, abs(num / row.value - 1.0))

    expected_held = [
        ("photon_number", "squeezed_vacuum", "n_r >> 1"),
        ("photon_number", "coherent", "any n"),
        ("photon_number", "phase_squeezed", "n_r >> 1"),
        ("quad_q", "coherent", "phi = 0"),
        ("quad_q", "phase_squeezed", "alpha >> e^r"),
        ("quad_p", "coherent", "phi = pi/2"),
    ]
    ok = worst_hand < 1e-12 and held == expected_held and worst_num <= 0.15
    report(
        7,
        ok,
        f"hand-substitution worst rel {worst_hand:.1e}; {len(held)}/10 rows in regime, "
        f"numeric within {worst_num * 100:.1f}% (<= 15%)",
    )


def test_criterion_8_squeezed_advantage_crossover():
    ns = (3.0, 5.0, 8.0, 12.0, 16.0, 20.0, 25.0)
    ratios = [fisher_ratio_coh_over_sv(n, LossSpec(0.99)) for n in ns]
    crossing = None
    for (n1, r1), (n2, r2) in zip(zip(ns, ratios), zip(ns[1:], ratios[1:])):
        if r1 < 1.0 <= r2:
            crossing = (n1, n2)
            break
    ok = crossing is not None and crossing[0] >= 5.0 and crossing[1] <= 20.0
    report(
        8,
        ok,
        f"coh/sv FI ratio crosses 1 between n = {crossing[0]:g} and {crossing[1]:g}"
        if crossing
        else f"no crossing found; ratios {np.round(ratios, 3)}",
    )


def test_criterion_9_optimal_squeezing_scan():
    n_r_a, fi_a = squeeze_scan(50.0, LossSpec(0.75), tail_tol=1e-8)
    i_max = int(np.argmax(fi_a))
    interior_max = 0 < i_max < len(fi_a) - 1
    j_min = i_max + int(np.argmin(fi_a[i_max:]))
    interior_min = interior_max and i_max < j_min < len(fi_a) - 1 and fi_a[-1] > fi_a[j_min]

    n_r_b, fi_b = squeeze_scan(25.0, LossSpec(0.25), tail_tol=1e-8)
    endpoint_max = int(np.argmax(fi_b)) == len(fi_b) - 1

    ok = interior_max and interior_min and endpoint_max
    report(
        9,
        ok,
        f"eta=0.75, <n>=50: max at n_r={n_r_a[i_max]:.2f} (interior: {interior_max}), "
        f"min at n_r={n_r_a[j_min]:.2f} then rising; "
        f"eta=0.25, <n>=25: global max at sv endpoint: {endpoint_max}",
    )


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    results = run_validate()
    elapsed = time.monotonic() - t0
    rep = report_dict(results)
    failed = [c["name"] for c in rep["checks"] if c["status"] == "fail"]
    ok = rep["ok"] and elapsed < 120.0
    report(
        10,
        ok,
        f"{rep['n_pass']} checks pass, {rep['n_skip']} skip, failures: {failed or 'none'}; "
        f"runtime {elapsed:.0f} s",
    )
