"""Seeded workload definitions: the CLI steps each benchmark pass runs.

Seed 0 is exactly the grid of the paper's operating points.  Any other seed
jitters <n>, eta, r and the sweep's eta values by about one percent and
stays in the same regime, so that the Fock cutoffs, grid refine factors and
operation counts keep their seed-0 sizes.  The squeeze-scan keeps <n> = 50
and phi = pi/2 and jitters only eta: a tilted seed phase broadens the
photon-number distribution and doubles some cutoffs, and for about 40% of
<n> values the scan's squeezed-vacuum endpoint fails (see README.md, "Known
defect").  `validate_suite` runs the same argv for every seed: the suite
draws from its own fixed random generator, and permuting the check order
through --checks (all orders tried pass) moved peak RSS between 478 and
521 MB.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("counting_scan", "homodyne_scan", "validate_suite")

# Names of tpa_metrology.validate.CHECKS, in the suite's own order.
VALIDATE_CHECKS = (
    "norm-preservation",
    "squeezed-parity",
    "mean-photon-agreement",
    "squeeze-unitarity",
    "loss-trace-preservation",
    "generator-population-consistency",
    "first-order-gradient",
    "kraus-binomial-equivalence",
    "kraus-two-mode-equivalence",
    "hermite-norms",
    "sv-pmf-closed-form",
    "convolution-vs-kraus",
    "pdf-moment-consistency",
    "pdf-derivative-consistency",
    "cramer-rao-ordering",
    "analytic-numeric-agreement",
    "sv-eta-cancellation",
    "coherent-fi-loss-linearity",
    "slope-sign-divergence",
    "sweep-determinism",
)

REL_JITTER = 0.01
SWEEP_ETAS = (0.1, 0.3, 0.5, 0.7, 0.9)
SQUEEZE_POINTS = 33
PHASE_POINTS = 25


@dataclass(frozen=True)
class Step:
    """One CLI invocation and what the correctness gate needs to know about it.

    ``ops`` is the number of operations the step performs: sweep or scan
    points, one `fisher` call, or validate checks.  ``output`` names the CSV
    the step writes, relative to the pass's working directory, and ``files``
    holds input files to write there before the first pass.
    """

    kind: str
    argv: tuple[str, ...]
    params: dict
    ops: int
    output: str | None = None
    files: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


class _Jitter:
    def __init__(self, seed: int):
        self._rng = random.Random(seed) if seed else None

    def rel(self, value: float) -> float:
        if self._rng is None:
            return value
        return round(value * (1.0 + REL_JITTER * (2.0 * self._rng.random() - 1.0)), 6)

    def add(self, value: float, width: float) -> float:
        if self._rng is None:
            return value
        return round(value + width * (2.0 * self._rng.random() - 1.0), 6)


def _fisher(state: str, observable: str, nbar: float, eta: float) -> Step:
    argv = ("fisher", "--state", state, "--observable", observable,
            "--nbar", _num(nbar), "--eta", _num(eta))
    return Step("fisher", argv, {"state": state, "observable": observable,
                                 "nbar": nbar, "eta": eta}, 1)


def counting_scan(seed: int) -> list[Step]:
    j = _Jitter(seed)
    nbar, eta, phi = 50.0, j.rel(0.75), math.pi / 2.0
    scan = Step(
        "squeeze_scan",
        ("squeeze-scan", "--nbar", _num(nbar), "--eta", _num(eta), "--phi", _num(phi),
         "--points", str(SQUEEZE_POINTS), "--output", "squeeze_scan.csv"),
        {"nbar": nbar, "eta": eta, "phi": phi, "points": SQUEEZE_POINTS},
        SQUEEZE_POINTS,
        output="squeeze_scan.csv",
    )
    return [scan, _fisher("sv", "photon_number", j.rel(50.0), j.rel(0.1))]


def homodyne_scan(seed: int) -> list[Step]:
    j = _Jitter(seed)
    point = _fisher("sv", "quad_q", j.rel(40.0), j.rel(0.5))
    nbar = j.rel(20.0)
    etas = tuple(j.add(e, 0.01) for e in SWEEP_ETAS)
    config = (
        "[sweep]\nstate_family = sv\nobservable = quad_q\naxis = eta\n"
        f"values = {' '.join(_num(e) for e in etas)}\n[fixed]\nnbar = {_num(nbar)}\n"
    )
    sweep = Step(
        "sweep",
        ("sweep", "eta_sweep.ini", "--output", "eta_sweep.csv"),
        {"state": "sv", "observable": "quad_q", "nbar": nbar, "etas": etas},
        len(etas),
        output="eta_sweep.csv",
        files={"eta_sweep.ini": config},
    )
    nbar, r, eta = j.rel(40.0), j.rel(1.2), j.rel(0.5)
    phase = Step(
        "phase_scan",
        ("phase-scan", "--nbar", _num(nbar), "--r", _num(r), "--eta", _num(eta),
         "--observable", "quad_p", "--points", str(PHASE_POINTS), "--output", "phase_scan.csv"),
        {"nbar": nbar, "r": r, "eta": eta, "observable": "quad_p", "points": PHASE_POINTS},
        PHASE_POINTS,
        output="phase_scan.csv",
    )
    return [point, sweep, phase]


def validate_suite(seed: int) -> list[Step]:
    return [Step("validate", ("validate",), {"checks": VALIDATE_CHECKS}, len(VALIDATE_CHECKS))]


def steps(workload: str, seed: int) -> list[Step]:
    """The steps one pass of ``workload`` runs, generated from ``seed``."""
    builders = {
        "counting_scan": counting_scan,
        "homodyne_scan": homodyne_scan,
        "validate_suite": validate_suite,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](seed)
