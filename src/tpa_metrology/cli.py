"""Command-line front end.

Subcommands: ``sweep`` (config-driven CSV sweeps), ``sensitivity`` and
``fisher`` (single-point evaluations as JSON), ``phase-scan`` and
``squeeze-scan`` (preset sweeps over the seed phase / squeezing fraction),
``validate`` (property suite).  Exit codes: 0 success, 1 usage error,
2 numerical-contract violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .channels import LossSpec
from .exceptions import GridError, TruncationError
from .fock import ProbeSpec, make_probe_state
from .metrology import OBSERVABLES, fisher_from_state, sensitivity_analytic, sensitivity_numeric
from .sweeps import (
    STATE_FAMILIES,
    SweepConfig,
    check_input,
    load_sweep_config,
    resolve_point,
    run_sweep,
)
from .validate import report_dict, run_validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _checked(key: str):
    """argparse type for a numeric flag: what sweeps.check_input admits for ``key``."""

    def parse(text: str) -> float:
        try:
            return check_input(key, text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return parse


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", required=True, choices=STATE_FAMILIES)
    parser.add_argument("--observable", required=True, choices=OBSERVABLES)
    parser.add_argument("--r", type=_checked("r"), help="squeezing magnitude")
    parser.add_argument("--alpha", type=_checked("alpha"), help="coherent amplitude |alpha|")
    parser.add_argument(
        "--phi", type=_checked("phi"), default=0.0, help="coherent phase in radians"
    )
    parser.add_argument(
        "--eta", type=_checked("eta"), default=1.0, help="single-photon transmission"
    )
    parser.add_argument(
        "--nbar",
        type=_checked("nbar"),
        help="incident mean photon number (instead of --r for sv, --alpha otherwise)",
    )
    parser.add_argument("--tail-tol", type=_checked("tail_tol"), default=1e-10)


def _probe_from_args(args) -> tuple[ProbeSpec, LossSpec]:
    given = {key: getattr(args, key) for key in ("nbar", "r", "alpha", "phi", "eta")}
    return resolve_point(args.state, {k: v for k, v in given.items() if v is not None})


def _cmd_sensitivity(args) -> int:
    spec, loss = _probe_from_args(args)

    def render(res):
        if res.diverges:
            return {"diverges": True}
        return {"diverges": False, "delta_eps_sq": res.delta_eps_sq, "inverse": res.inverse()}

    out = {
        "probe": {"r": spec.r, "phi_r": spec.phi_r, "alpha_abs": spec.alpha_abs, "phi": spec.phi},
        "eta": loss.eta,
        "observable": args.observable,
        "mean_n_incident": spec.mean_photon_number(),
        "numeric": render(sensitivity_numeric(spec, loss, args.observable, tail_tol=args.tail_tol)),
        "analytic": render(sensitivity_analytic(spec, loss, args.observable)),
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return EXIT_OK


def _cmd_fisher(args) -> int:
    spec, loss = _probe_from_args(args)
    state = make_probe_state(spec, tail_tol=args.tail_tol)
    fi = fisher_from_state(state, loss, args.observable)
    out = {
        "probe": {"r": spec.r, "phi_r": spec.phi_r, "alpha_abs": spec.alpha_abs, "phi": spec.phi},
        "eta": loss.eta,
        "observable": args.observable,
        "mean_n_incident": spec.mean_photon_number(),
        "fi": fi.fi,
        "ill_conditioned_bins": fi.ill_bins,
        "cutoff_used": state.n_max,
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return EXIT_OK


def _cmd_sweep(args) -> int:
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects key=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    config = load_sweep_config(args.config, overrides, output=args.output)
    path = run_sweep(config)
    print(path)
    return EXIT_OK


def _cmd_phase_scan(args) -> int:
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    values = [i * math.pi / (args.points - 1) for i in range(args.points)]
    # strictly increasing guaranteed by construction
    config = SweepConfig(
        state_family="squeezed_coherent",
        observable=args.observable,
        sweep_axis="phi",
        axis_values=tuple(values),
        fixed_params={"nbar": args.nbar, "r": args.r, "eta": args.eta},
        output_path=args.output,
        tail_tol=args.tail_tol,
    )
    path = run_sweep(config)
    print(path)
    return EXIT_OK


def _cmd_squeeze_scan(args) -> int:
    if args.points < 3:
        raise UsageError("--points must be at least 3")
    values = [args.nbar * i / (args.points - 1) for i in range(args.points)]
    config = SweepConfig(
        state_family="squeezed_coherent",
        observable="photon_number",
        sweep_axis="n_r",
        axis_values=tuple(values),
        fixed_params={"nbar": args.nbar, "eta": args.eta, "phi": args.phi},
        output_path=args.output,
        tail_tol=args.tail_tol,
    )
    path = run_sweep(config)
    print(path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    checks = args.checks.split(",") if args.checks else None
    results = run_validate(eta=args.eta, checks=checks)
    for res in results:
        print(f"[{res.status.upper():4s}] {res.name}: {res.detail}")
    report = report_dict(results)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    return EXIT_OK if report["ok"] else EXIT_NUMERICAL


def build_parser() -> _Parser:
    parser = _Parser(prog="tpa-metrology", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tpa-metrology {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sensitivity", help="error-propagation sensitivity at one point")
    _add_state_flags(p)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("fisher", help="classical Fisher information at one point")
    _add_state_flags(p)
    p.set_defaults(func=_cmd_fisher)

    p = sub.add_parser("sweep", help="run a config-file sweep and write CSV")
    p.add_argument("config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override config entries")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("phase-scan", help="sensitivity/FI vs seed phase at fixed <n>")
    p.add_argument("--nbar", type=_checked("nbar"), required=True)
    p.add_argument("--r", type=_checked("r"), required=True)
    p.add_argument("--eta", type=_checked("eta"), default=1.0)
    p.add_argument("--observable", default="photon_number", choices=OBSERVABLES)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--output", default="phase_scan.csv")
    p.add_argument("--tail-tol", type=_checked("tail_tol"), default=1e-10)
    p.set_defaults(func=_cmd_phase_scan)

    p = sub.add_parser(
        "squeeze-scan", help="photon-counting FI vs squeezing fraction at fixed <n>"
    )
    p.add_argument("--nbar", type=_checked("nbar"), required=True)
    p.add_argument("--eta", type=_checked("eta"), required=True)
    p.add_argument("--phi", type=_checked("phi"), default=math.pi / 2)
    p.add_argument("--points", type=int, default=33)
    p.add_argument("--output", default="squeeze_scan.csv")
    p.add_argument("--tail-tol", type=_checked("tail_tol"), default=1e-8)
    p.set_defaults(func=_cmd_squeeze_scan)

    p = sub.add_parser("validate", help="run the numerical property suite")
    p.add_argument(
        "--eta", type=_checked("eta"), default=None, help="restrict loss checks to one eta"
    )
    p.add_argument("--checks", default=None, help="comma-separated subset of check names")
    p.add_argument("--json", default=None, help="write the JSON report to a file")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (TruncationError, GridError) as err:
        # these subclass ValueError, so they must be caught first
        print(f"numerical contract violation: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
