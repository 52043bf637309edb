"""Correctness gate for the outputs of one benchmark pass.

It runs in the benchmark's parent process, outside every timed region.  Every
operation (scan or sweep point, `fisher` call, validate check) passes or
fails; a step that exits nonzero, raises or prints unparseable output fails
all its operations.  The checks:

* photon-counting FIs of squeezed vacuum and coherent probes equal the
  closed-form route `sv_pmf_closed_form` / `coherent_pmf` ->
  `population_derivative` -> `apply_binomial_loss` -> `fisher_discrete`,
  within 1e-6 plus the truncation error the program's cutoff allows
  (squeeze-scan endpoints n_r = 0 and n_r = <n>, `fisher` sv);
* every point with a finite analytic sensitivity obeys the Cramer-Rao
  ordering FI >= 1/d_eps^2;
* the squeezed-vacuum quadrature FI rises with eta along the eta sweep;
* at seed 0 only, squeezed-vacuum quadrature FIs equal the reference values
  stored in reference.json;
* `validate` reports no failed check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from pathlib import Path

# The README's accuracy contract.  Where the cutoff holds the whole
# distribution, closed forms and Fock pipeline agree to ~1e-13.
ORACLE_RTOL = 1e-6
# At squeeze-scan's tail_tol = 1e-8 the sv endpoint (<n> = 50, cutoff 2000)
# is 8.5e-5 off the converged closed form, 1.3 times what a hard cut of the
# closed form at 2000 moves it.
TRUNCATION_FACTOR = 2.0
CONVERGED_TAIL = 1e-13
CR_RTOL = 1e-6
# Looser than the 1e-6 contract, so that an accuracy fix recorded in
# CHANGES.md does not read as a failure.
REFERENCE_RTOL = 1e-5
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


class Gate:
    def __init__(self, seed: int):
        import tpa_metrology as tpa
        from tpa_metrology import channels, distributions, metrology

        self._tpa = tpa
        self._thin = channels.apply_binomial_loss
        self._metrology = metrology
        self._auto_cutoff = distributions.pmf_auto_cutoff
        self.reference = json.loads(REFERENCE_FILE.read_text()) if seed == 0 else None
        self._closed: dict[tuple, float] = {}

    # -- oracles ------------------------------------------------------------

    def _closed_form_fi(self, kind: str, nbar: float, eta: float, n_max: int) -> float:
        key = (kind, nbar, eta, n_max)
        if key not in self._closed:
            tpa = self._tpa
            builder = tpa.sv_pmf_closed_form if kind == "sv" else tpa.coherent_pmf
            p0 = builder(nbar, n_max).p
            dp0 = tpa.population_derivative(p0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", tpa.IllConditionedBinWarning)
                fi = tpa.fisher_discrete(self._thin(p0, eta), self._thin(dp0, eta)).fi
            self._closed[key] = fi
        return self._closed[key]

    def photon_oracle(self, kind: str, nbar: float, eta: float, n_max: int) -> tuple[float, float]:
        """Converged closed-form photon-counting FI, and the tolerance for a
        result the program truncated at ``n_max``.

        The tolerance is ORACLE_RTOL plus TRUNCATION_FACTOR times the change a
        hard cut of the closed form at ``n_max`` makes, so a cutoff the
        program's tail_tol allows is not read as a wrong result.
        """
        converged = self._auto_cutoff(kind, nbar, CONVERGED_TAIL)
        exact = self._closed_form_fi(kind, nbar, eta, converged)
        cut = self._closed_form_fi(kind, nbar, eta, min(n_max, converged))
        return exact, ORACLE_RTOL * abs(exact) + TRUNCATION_FACTOR * abs(cut - exact)

    def cramer_rao_bound(self, spec, eta: float, observable: str) -> float | None:
        sens = self._tpa.sensitivity_analytic(spec, self._tpa.LossSpec(eta), observable)
        return None if sens.diverges else 1.0 / sens.delta_eps_sq

    # -- per-step checks ----------------------------------------------------

    def check_step(self, step, out: dict) -> list[str]:
        """Failure messages for one step's output; one per failed operation."""
        if out is None or out["error"] or out["rc"] != 0:
            reason = "no result" if out is None else (out["error"] or f"exit code {out['rc']}")
            return [f"{step.kind}: {reason.strip().splitlines()[-1]}"] * step.ops
        try:
            failures = getattr(self, f"_check_{step.kind}")(step.params, out)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            return [f"{step.kind}: unparseable output ({type(exc).__name__}: {exc})"] * step.ops
        return failures

    def _rows(self, out: dict, expected: int) -> list[dict]:
        lines = [ln for ln in out["csv"].splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        if len(rows) != expected:
            raise ValueError(f"expected {expected} rows, got {len(rows)}")
        return rows

    def _point(self, label: str, fi: float, bound: float | None,
               oracle: tuple[float, float] | None, reference: float | None) -> list[str]:
        if not (math.isfinite(fi) and fi > 0.0):
            return [f"{label}: FI {fi!r} not finite and positive"]
        if bound is not None and fi < bound * (1.0 - CR_RTOL):
            return [f"{label}: FI {fi!r} below the Cramer-Rao bound {bound!r}"]
        if oracle is not None and abs(fi - oracle[0]) > oracle[1]:
            return [f"{label}: FI {fi!r} differs from the closed form {oracle[0]!r} "
                    f"by more than {oracle[1]:.3g}"]
        if reference is not None and abs(fi - reference) > REFERENCE_RTOL * abs(reference):
            return [f"{label}: FI {fi!r} differs from the seed-0 reference {reference!r}"]
        return []

    def _check_squeeze_scan(self, p: dict, out: dict) -> list[str]:
        tpa = self._tpa
        rows = self._rows(out, p["points"])
        failures = []
        for i, row in enumerate(rows):
            n_r = p["nbar"] * i / (p["points"] - 1)
            if abs(float(row["axis_value"]) - n_r) > 1e-9 * max(1.0, n_r):
                failures.append(f"squeeze-scan row {i}: axis value {row['axis_value']} != {n_r!r}")
                continue
            r = math.asinh(math.sqrt(n_r))
            alpha = self._metrology.amplitude_for_mean_n(p["nbar"], n_r, p["phi"])
            spec = tpa.ProbeSpec(r=r, alpha_abs=alpha, phi=p["phi"])
            oracle = None
            n_max = int(row["cutoff_used"])
            if i == 0:
                oracle = self.photon_oracle("coherent", p["nbar"], p["eta"], n_max)
            elif i == len(rows) - 1:
                oracle = self.photon_oracle("sv", p["nbar"], p["eta"], n_max)
            failures += self._point(f"squeeze-scan n_r={n_r:.6g}", float(row["fi_numeric"]),
                                    self.cramer_rao_bound(spec, p["eta"], "photon_number"),
                                    oracle, None)
        return failures

    def _check_fisher(self, p: dict, out: dict) -> list[str]:
        tpa = self._tpa
        report = json.loads(out["stdout"])
        fi = float(report["fi"])
        if p["state"] == "sv":
            spec = tpa.ProbeSpec.squeezed_vacuum(math.asinh(math.sqrt(p["nbar"])))
        else:
            spec = tpa.ProbeSpec.coherent(math.sqrt(p["nbar"]))
        oracle = reference = None
        if p["observable"] == "photon_number":
            oracle = self.photon_oracle(p["state"], p["nbar"], p["eta"], int(report["cutoff_used"]))
        elif self.reference is not None:
            reference = self.reference["fisher"][p["observable"]]
        label = f"fisher {p['state']} {p['observable']} nbar={p['nbar']:.6g} eta={p['eta']:.6g}"
        return self._point(label, fi, self.cramer_rao_bound(spec, p["eta"], p["observable"]),
                           oracle, reference)

    def _check_sweep(self, p: dict, out: dict) -> list[str]:
        tpa = self._tpa
        rows = self._rows(out, len(p["etas"]))
        spec = tpa.ProbeSpec.squeezed_vacuum(math.asinh(math.sqrt(p["nbar"])))
        refs = self.reference["eta_sweep"] if self.reference is not None else [None] * len(rows)
        failures, previous = [], 0.0
        for eta, row, ref in zip(p["etas"], rows, refs):
            fi = float(row["fi_numeric"])
            label = f"eta sweep eta={eta:.6g}"
            point = self._point(label, fi, self.cramer_rao_bound(spec, eta, p["observable"]),
                                None, ref)
            if not point and fi <= previous:
                point = [f"{label}: FI {fi!r} does not rise with eta (previous {previous!r})"]
            failures += point
            previous = fi
        return failures

    def _check_phase_scan(self, p: dict, out: dict) -> list[str]:
        tpa = self._tpa
        rows = self._rows(out, p["points"])
        n_r = math.sinh(p["r"]) ** 2
        failures = []
        for row in rows:
            phi = float(row["axis_value"])
            alpha = self._metrology.amplitude_for_mean_n(p["nbar"], n_r, phi)
            spec = tpa.ProbeSpec(r=p["r"], alpha_abs=alpha, phi=phi)
            failures += self._point(f"phase-scan phi={phi:.6g}", float(row["fi_numeric"]),
                                    self.cramer_rao_bound(spec, p["eta"], p["observable"]),
                                    None, None)
        return failures

    def _check_validate(self, p: dict, out: dict) -> list[str]:
        text = out["stdout"]
        report = json.loads(text[text.index("\n{") + 1:])
        status = {c["name"]: c["status"] for c in report["checks"]}
        failures = [f"validate {name}: {status.get(name, 'missing')}"
                    for name in p["checks"] if status.get(name) not in ("pass", "skip")]
        if not report["ok"] and not failures:
            failures.append("validate: report not ok")
        return failures
