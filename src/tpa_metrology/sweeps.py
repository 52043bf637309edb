"""Parameter sweeps over probe families, emitting deterministic CSV artifacts.

A sweep is described by a small config (file or object): state family,
observable, sweep axis and values, fixed parameters.  Each output row holds
the numeric Fisher information, the inverse analytic sensitivity, the cutoff
used and any warnings; rows are in axis order.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .channels import LossSpec, _reused_band
from .fock import DEFAULT_TAIL_TOL, ProbeSpec, initial_cutoff, make_probe_state
from .metrology import (
    OBSERVABLES,
    amplitude_for_mean_n,
    fisher_from_state,
    sensitivity_analytic,
)

STATE_FAMILIES = ("sv", "coherent", "squeezed_coherent")
SWEEP_AXES = ("nbar", "eta", "phi", "n_r")
CSV_COLUMNS = (
    "axis_value",
    "mean_n_incident",
    "fi_numeric",
    "sens_analytic_inverse",
    "cutoff_used",
    "warnings",
)
# (test, description) of the finite values each numeric input from outside the
# program may take, by config key; the CLI flag of the same name shares it.
_NONNEGATIVE = (lambda x: x >= 0.0, "a finite number >= 0")
_INPUT_RULES = {
    "nbar": _NONNEGATIVE,
    "r": _NONNEGATIVE,
    "n_r": _NONNEGATIVE,
    "alpha": _NONNEGATIVE,
    "phi": (lambda x: True, "a finite number"),
    "eta": (lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]"),
    # About 99 times the 1e-20 band floor below which fock.tail_estimate reads
    # no tail, so that floor never decides a cutoff.
    "tail_tol": (lambda x: x >= 1e-18, "a finite number >= 1e-18"),
}
# Keys a sweep config file may set, by section; any other key is rejected.
_CONFIG_KEYS = {
    "sweep": ("state_family", "observable", "axis", "values", "start", "stop", "num",
              "spacing", "output", "tail_tol"),
    "fixed": ("nbar", "r", "n_r", "alpha", "phi", "eta"),
}


@dataclass
class SweepConfig:
    state_family: str
    observable: str
    sweep_axis: str
    axis_values: tuple[float, ...]
    fixed_params: dict[str, float] = field(default_factory=dict)
    output_path: str = "sweep.csv"
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.state_family not in STATE_FAMILIES:
            raise ValueError(f"state_family must be one of {STATE_FAMILIES}")
        if self.observable not in OBSERVABLES:
            raise ValueError(f"observable must be one of {OBSERVABLES}")
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}")
        self.axis_values = tuple(float(v) for v in self.axis_values)
        if not self.axis_values:
            raise ValueError("axis_values must be nonempty")
        if any(b <= a for a, b in zip(self.axis_values, self.axis_values[1:])):
            raise ValueError("axis_values must be strictly increasing")
        if self.sweep_axis in self.fixed_params:
            raise ValueError(f"fixed_params must not include the sweep axis {self.sweep_axis!r}")
        self.tail_tol = check_input("tail_tol", self.tail_tol)


def check_input(key: str, value: float | str) -> float:
    """An outside numeric input (CLI flag or config key) as a float.

    Raises ValueError naming ``key`` unless the value is finite and in the
    range ``_INPUT_RULES`` admits for that key.
    """
    admits, what = _INPUT_RULES[key]
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and admits(x)):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return x


def resolve_point(family: str, params: dict[str, float]) -> tuple[ProbeSpec, LossSpec]:
    """Probe and loss from named inputs; nbar is the incident <n>.

    Each amplitude is given exactly one way, or ValueError names the keys:
    sv takes one of nbar, r, n_r; coherent one of nbar, alpha; and
    squeezed_coherent one of r, n_r and one of alpha, nbar (|alpha| is then
    set so that the incident <n> is nbar).  phi (default 0) is the seed
    phase and eta (default 1) the transmission; every value read is checked.
    """
    eta = check_input("eta", params.get("eta", 1.0))
    phi = check_input("phi", params.get("phi", 0.0))

    def one_of(*keys: str) -> tuple[str, float]:
        given = [k for k in keys if k in params]
        if len(given) != 1:
            raise ValueError(
                f"{family} probe needs exactly one of {', '.join(keys)}; "
                f"got {', '.join(given) if given else 'none'}"
            )
        return given[0], check_input(given[0], params[given[0]])

    def squeezing(key: str, value: float) -> float:
        return value if key == "r" else math.asinh(math.sqrt(value))

    if family == "sv":
        return ProbeSpec.squeezed_vacuum(squeezing(*one_of("nbar", "r", "n_r"))), LossSpec(eta)
    if family == "coherent":
        key, value = one_of("nbar", "alpha")
        alpha = value if key == "alpha" else math.sqrt(value)
        return ProbeSpec.coherent(alpha, phi), LossSpec(eta)
    r = squeezing(*one_of("r", "n_r"))
    key, value = one_of("alpha", "nbar")
    alpha = value if key == "alpha" else amplitude_for_mean_n(value, math.sinh(r) ** 2, phi)
    return ProbeSpec(r=r, alpha_abs=alpha, phi=phi), LossSpec(eta)


def _fmt(x: float) -> str:
    return "%.12g" % x


def _sweep_point(config: SweepConfig, value: float) -> dict[str, str]:
    params = {**config.fixed_params, config.sweep_axis: value}
    spec, loss = resolve_point(config.state_family, params)
    notes: list[str] = []
    state = make_probe_state(spec, tail_tol=config.tail_tol)
    if state.n_max > 2 * initial_cutoff(spec.mean_photon_number()):
        notes.append(f"cutoff grew to {state.n_max}")
    fi = fisher_from_state(state, loss, config.observable)
    if fi.ill_bins:
        notes.append(f"{fi.ill_bins} ill-conditioned bins")
    sens = sensitivity_analytic(spec, loss, config.observable)
    sens_inv = "divergent" if sens.diverges else _fmt(1.0 / sens.delta_eps_sq)
    return {
        "axis_value": _fmt(value),
        "mean_n_incident": _fmt(spec.mean_photon_number()),
        "fi_numeric": _fmt(fi.fi),
        "sens_analytic_inverse": sens_inv,
        "cutoff_used": str(state.n_max),
        "warnings": ";".join(notes),
    }


def run_sweep(config: SweepConfig) -> Path:
    """Execute the sweep and write the CSV; returns the output path."""
    with _reused_band():  # points at one eta share a thinning band
        rows = [_sweep_point(config, v) for v in config.axis_values]

    out = Path(config.output_path)
    fixed = " ".join(f"{k}={_fmt(float(v))}" for k, v in sorted(config.fixed_params.items()))
    lines = [
        f"# tpa-metrology {_pkg_version}",
        f"# state_family={config.state_family} observable={config.observable} "
        f"axis={config.sweep_axis} tail_tol={_fmt(config.tail_tol)}",
        f"# fixed: {fixed}" if fixed else "# fixed:",
        ",".join(CSV_COLUMNS),
    ]
    for row in rows:
        lines.append(",".join(row[c] for c in CSV_COLUMNS))
        if row["warnings"]:
            print(f"warning: axis={row['axis_value']}: {row['warnings']}", file=sys.stderr)
    out.write_text("\n".join(lines) + "\n")
    return out


def load_sweep_config(
    path: str | Path,
    overrides: dict[str, str] | None = None,
    output: str | None = None,
) -> SweepConfig:
    """Read a sweep config file: [sweep] section plus optional [fixed] section.

    Overrides use dotted keys ("sweep.axis", "fixed.eta"); bare keys address
    the [sweep] section.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read sweep config {path!r}")
    if "sweep" not in parser:
        raise ValueError("config must contain a [sweep] section")
    sections = {name: dict(parser[name]) if name in parser else {} for name in _CONFIG_KEYS}
    for key, val in (overrides or {}).items():
        section, _, name = key.rpartition(".")
        if section not in ("", *sections):
            raise ValueError(f"unknown override section {section!r}")
        sections[section or "sweep"][name] = val
    for section, given in sections.items():
        unknown = sorted(set(given) - set(_CONFIG_KEYS[section]))
        if unknown:
            raise ValueError(
                f"unknown [{section}] key(s) {', '.join(unknown)}; "
                f"known: {', '.join(_CONFIG_KEYS[section])}"
            )
    sweep = sections["sweep"]
    fixed = {k: check_input(k, v) for k, v in sections["fixed"].items()}
    axis = sweep.get("axis", "nbar")
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    spacing = sweep.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")

    if "values" in sweep:
        values = tuple(check_input(axis, tok) for tok in sweep["values"].replace(",", " ").split())
    else:
        if not {"start", "stop", "num"} <= set(sweep):
            raise ValueError("config needs 'values' or start/stop/num")
        start, stop = check_input(axis, sweep["start"]), check_input(axis, sweep["stop"])
        num = sweep["num"]
        if not (num.isdecimal() and int(num) > 0):
            raise ValueError(f"num must be a positive integer, got {num!r}")
        values = tuple((np.geomspace if spacing == "log" else np.linspace)(start, stop, int(num)))

    return SweepConfig(
        state_family=sweep.get("state_family", "sv"),
        observable=sweep.get("observable", "photon_number"),
        sweep_axis=axis,
        axis_values=values,
        fixed_params=fixed,
        output_path=output or sweep.get("output", "sweep.csv"),
        tail_tol=sweep.get("tail_tol", DEFAULT_TAIL_TOL),
    )
