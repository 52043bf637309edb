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
from .fock import DEFAULT_TAIL_TOL, ProbeSpec, make_probe_state
from .metrology import OBSERVABLES, fisher_from_state, sensitivity_analytic, sensitivity_from_state
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
    parser.add_argument("--tail-tol", type=_checked("tail_tol"), default=DEFAULT_TAIL_TOL)


def _probe_from_args(args) -> tuple[ProbeSpec, LossSpec]:
    given = {key: getattr(args, key) for key in ("nbar", "r", "alpha", "phi", "eta")}
    return resolve_point(args.state, {k: v for k, v in given.items() if v is not None})


def _cmd_point(args) -> int:
    """``fisher`` or ``sensitivity``: build the probe once and evaluate it as JSON."""
    spec, loss = _probe_from_args(args)
    state = make_probe_state(spec, tail_tol=args.tail_tol)
    out = {
        "probe": {"r": spec.r, "phi_r": spec.phi_r, "alpha_abs": spec.alpha_abs, "phi": spec.phi},
        "eta": loss.eta,
        "observable": args.observable,
        "mean_n_incident": spec.mean_photon_number(),
    }
    if args.command == "fisher":
        fi = fisher_from_state(state, loss, args.observable)
        out.update(fi=fi.fi, ill_conditioned_bins=fi.ill_bins, cutoff_used=state.n_max)
    else:
        for source, res in (("numeric", sensitivity_from_state(state, loss, args.observable)),
                            ("analytic", sensitivity_analytic(spec, loss, args.observable))):
            out[source] = {"diverges": res.diverges}
            if not res.diverges:
                out[source].update(delta_eps_sq=res.delta_eps_sq, inverse=res.inverse())
    # allow_nan=False: a NaN or infinity would make the output invalid JSON
    print(json.dumps(out, indent=2, allow_nan=False))
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


def _cmd_scan(args) -> int:
    """``phase-scan`` (phi from 0 to pi) or ``squeeze-scan`` (n_r from 0 to nbar) as a sweep."""
    if args.points < args.min_points:
        raise UsageError(f"--points must be at least {args.min_points}")
    top = math.pi if args.axis == "phi" else args.nbar
    config = SweepConfig(
        state_family="squeezed_coherent",
        observable=args.observable,
        sweep_axis=args.axis,
        axis_values=tuple(top * i / (args.points - 1) for i in range(args.points)),
        fixed_params={key: getattr(args, key) for key in args.fixed},
        output_path=args.output,
        tail_tol=args.tail_tol,
    )
    print(run_sweep(config))
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

    for name, text in (("sensitivity", "error-propagation sensitivity at one point"),
                       ("fisher", "classical Fisher information at one point")):
        p = sub.add_parser(name, help=text)
        _add_state_flags(p)
        p.set_defaults(func=_cmd_point)

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
    p.add_argument("--tail-tol", type=_checked("tail_tol"), default=DEFAULT_TAIL_TOL)
    p.set_defaults(func=_cmd_scan, axis="phi", min_points=2, fixed=("nbar", "r", "eta"))

    p = sub.add_parser(
        "squeeze-scan", help="photon-counting FI vs squeezing fraction at fixed <n>"
    )
    p.add_argument("--nbar", type=_checked("nbar"), required=True)
    p.add_argument("--eta", type=_checked("eta"), required=True)
    p.add_argument("--phi", type=_checked("phi"), default=math.pi / 2)
    p.add_argument("--points", type=int, default=33)
    p.add_argument("--output", default="squeeze_scan.csv")
    p.add_argument("--tail-tol", type=_checked("tail_tol"), default=1e-8)
    p.set_defaults(func=_cmd_scan, axis="n_r", min_points=3, fixed=("nbar", "eta", "phi"),
                   observable="photon_number")

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
    except OverflowError as err:  # a finite input whose <n> or cutoff exceeds double range
        print(f"numerical contract violation: input overflows double precision ({err})", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
