"""Batch command-line interface: classify, approximate, invariants, floor.

Flags are the only input.  Every run is reproducible: all randomness flows
from ``--seed`` (default 0), and a report echoes the flags of its run under
``cli`` (classify, which draws no random numbers, leaves out the seed), every
settable configuration field and the library version.  ``floor`` alone has a
CSV form (``--format csv``).
Exit codes: 0 success, 1 verdict failure (e.g. synthesis refused), 2 usage or unwritable output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .activations import activation_names, by_name
from .classifier import ClassifierConfig, classify, largest_radius
from .constructor import (
    JET_LIMIT,
    ConstructorConfig,
    lift_dimension,
    synthesize_deep,
    synthesize_shallow,
)
from .errors import CvnnError, SynthesisRefusedError
from .grids import make_grid
from .network import save_network
from .targets import resolve_target, target_names
from .verify import check_network_invariant, error_floor_experiment, parse_kind


class UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(prog="cvnnuniv", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--activation", required=True, help="activation name from the catalog")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--radius", type=float, default=None)

    p = sub.add_parser("classify", help="universality verdicts for one activation")
    common(p)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("approximate", help="synthesize a network for a target function")
    common(p)
    p.add_argument("--target", required=True, help="target name (cone, rez, abs2_target, relu_c, constant:<re>,<im>)")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--deep", action="store_true", help="build a deep network instead of a shallow one")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--dims", type=int, default=1)
    p.add_argument("--override", action="store_true", help="skip the classifier verdict gate")
    p.add_argument("--network-out", default=None, help="also write the network weights JSON here")

    p = sub.add_parser("invariants", help="differential residuals of random networks")
    common(p)
    p.add_argument("--kind", default="dbar_vanishes", help="dbar | d | laplacian:<m> or canonical names")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("floor", help="fixed-feature least-squares error table")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--widths", default="50,100,200", help="comma-separated widths")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _write(payload, path):
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit(doc, args, unread=()):
    """Write ``doc`` as sorted, indented JSON, with the flags of the run, less ``unread``, under ``cli``."""
    skip = ("command", "out") + unread
    doc["cli"] = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)


def _check_writable(path):
    """Raise ``OSError`` now if ``path`` cannot be written; leaves no new file behind."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _check_ranges(args):
    """Raise ``UsageError`` for a flag value out of range or one file named by both outputs; runs before any work."""
    # a deep network has at least two hidden layers, a random invariant network at least one
    lowest = {"degree": 0, "dims": 1, "trials": 1, "layers": 2 if args.command == "approximate" else 1}
    for flag, low in lowest.items():
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise UsageError(f"--{flag} must be at least {low}, got {value}")
    if getattr(args, "degree", 0) > JET_LIMIT:
        raise UsageError(f"--degree must be at most {JET_LIMIT}, the highest order monomial extraction reaches")
    for flag in ("radius", "tol"):
        value = getattr(args, flag, None)
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise UsageError(f"--{flag} must be positive and finite, got {value}")
    network_out = getattr(args, "network_out", None)
    if args.out and network_out and os.path.realpath(args.out) == os.path.realpath(network_out):
        raise UsageError(f"--out and --network-out name the same file {args.out!r}")
    if args.command == "classify" and args.radius is not None:
        limit = largest_radius(by_name(args.activation))
        if args.radius > limit:
            raise UsageError(f"--radius must be at most {limit:.6g} for {args.activation}, the reach of its mollifier's lattice")


def _cmd_classify(args):
    sigma = by_name(args.activation)
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.radius is not None:
        overrides["grid_radius"] = args.radius
    report = classify(sigma, ClassifierConfig(**overrides))
    # --seed is accepted, as by every subcommand, but classify draws no random numbers
    _emit(report.to_json_dict(), args, unread=("seed",))
    return 0


def _cmd_approximate(args):
    sigma = by_name(args.activation)
    target = resolve_target(args.target)
    radius = args.radius if args.radius is not None else 1.0
    config = ConstructorConfig(seed=args.seed)
    gate = not args.override
    if args.deep:
        net, cert = synthesize_deep(
            sigma, target, args.dims, args.layers, (0.0, radius), config, target_name=args.target, gate=gate
        )
    elif args.dims > 1:
        net, cert = lift_dimension(
            sigma, target, (0.0, radius), args.dims, config, target_name=args.target, gate=gate
        )
    else:
        net, cert = synthesize_shallow(
            sigma, target, (0.0, radius), args.degree, config, target_name=args.target, gate=gate
        )
    _emit(cert.to_json_dict(), args)
    if args.network_out:
        save_network(net, args.network_out)
    return 0


def _cmd_invariants(args):
    sigma = by_name(args.activation)
    try:
        kind, _, _ = parse_kind(args.kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    radius = args.radius if args.radius is not None else 1.5
    grid = make_grid(0.0, radius, 17)
    report = check_network_invariant(sigma, args.layers, kind, grid, trials=args.trials, seed=args.seed)
    _emit(report.to_json_dict(), args)
    return 0


def _cmd_floor(args):
    sigma = by_name(args.activation)
    target = resolve_target(args.target)
    try:
        widths = tuple(int(w) for w in args.widths.split(",") if w.strip())
    except ValueError:
        raise UsageError(f"malformed widths {args.widths!r}") from None
    if not widths or min(widths) < 1:
        raise UsageError(f"--widths needs at least one width, each at least 1, got {args.widths!r}")
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise UsageError(f"--widths must be strictly increasing, got {args.widths!r}")
    radius = args.radius if args.radius is not None else 1.0
    table = error_floor_experiment(sigma, target, widths, (0.0, radius), seed=args.seed)
    if args.format == "csv":
        _write(table.to_csv(), args.out)
    else:
        _emit(table.to_json_dict(), args)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "approximate": _cmd_approximate,
    "invariants": _cmd_invariants,
    "floor": _cmd_floor,
}


def run_cli(argv):
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_ranges(args)
        # an unwritable output fails before any work, and so before any other output is written
        for path in (args.out, getattr(args, "network_out", None)):
            if path:
                _check_writable(path)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # unknown activation/target name: list what exists
        print(f"error: {exc.args[0]}", file=sys.stderr)
        print(f"activations: {', '.join(activation_names())}", file=sys.stderr)
        print(f"targets: {', '.join(target_names())}", file=sys.stderr)
        return 2
    except SynthesisRefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except CvnnError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
