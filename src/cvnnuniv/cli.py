"""Batch command-line interface: classify, approximate, invariants, floor.

Every run is reproducible: all randomness flows from one seed (flag, config
file, or the CVNN_SEED environment variable, in that order of precedence),
and reports echo every settable configuration field plus the library version.
Exit codes: 0 success, 1 verdict failure (e.g. synthesis refused), 2 usage or unwritable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .activations import activation_names, by_name
from .classifier import ClassifierConfig, classify
from .constructor import ConstructorConfig, lift_dimension, reads_relu_eps, synthesize_deep, synthesize_shallow
from .errors import CvnnError, SynthesisRefusedError
from .grids import make_grid
from .network import save_network
from .targets import resolve_target, target_names
from .verify import check_network_invariant, error_floor_experiment


class UsageError(Exception):
    pass


def _read_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{line_no}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = raw
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return values


def _coerce(raw):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _resolve_seed(args, file_values):
    if args.seed is not None:
        return int(args.seed)
    if "seed" in file_values:
        return int(file_values["seed"])
    env = os.environ.get("CVNN_SEED")
    if env is not None:
        return int(env)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(prog="cvnnuniv", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--activation", required=True, help="activation name from the catalog")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="flat key = value config file; flags win")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
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
    p.add_argument("--eps", type=float, default=None)
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

    return parser


def _apply_config_file(args):
    file_values = {}
    if args.config:
        file_values = _read_config_file(args.config)
        for key, raw in file_values.items():
            if key == "seed":
                continue
            if hasattr(args, key) and getattr(args, key) in (None, False):
                setattr(args, key, _coerce(raw))
    args.seed = _resolve_seed(args, file_values)
    return args


def _emit(doc, args, csv_text=None):
    if args.format == "csv":
        if csv_text is None:
            raise UsageError(f"{args.command} has no CSV form")
        payload = csv_text
    else:
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _check_writable(path):
    """Raise ``OSError`` now if ``path`` cannot be written; leaves no new file behind."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cli_echo(args):
    skip = {"command", "config", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _normalize_kind(kind):
    if kind in ("dbar", "dbar_vanishes"):
        return "dbar_vanishes"
    if kind in ("d", "d_vanishes"):
        return "d_vanishes"
    if kind.startswith("laplacian:"):
        return f"laplacian_power_vanishes({int(kind.split(':', 1)[1])})"
    if kind.startswith("laplacian_power_vanishes("):
        return kind
    raise UsageError(f"unknown invariant kind {kind!r}")


def _cmd_classify(args):
    sigma = by_name(args.activation)
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.radius is not None:
        overrides["grid_radius"] = args.radius
    report = classify(sigma, ClassifierConfig(**overrides))
    doc = report.to_json_dict()
    doc["cli"] = _cli_echo(args)
    _emit(doc, args)
    return 0


def _cmd_approximate(args):
    sigma = by_name(args.activation)
    target = resolve_target(args.target)
    if args.eps is not None and not reads_relu_eps(target, args.dims, args.deep):
        raise UsageError("--eps sets the ReLU surrogate's budget, read only by --deep --target relu_c with --dims 1")
    radius = args.radius if args.radius is not None else 1.0
    overrides = {"seed": args.seed}
    if args.eps is not None:
        overrides["relu_eps"] = args.eps
    config = ConstructorConfig(**overrides)
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
    doc = cert.to_json_dict()
    doc["cli"] = _cli_echo(args)
    _emit(doc, args)
    if args.network_out:
        save_network(net if args.deep else net.to_network(), args.network_out)
    return 0


def _cmd_invariants(args):
    sigma = by_name(args.activation)
    kind = _normalize_kind(args.kind)
    radius = args.radius if args.radius is not None else 1.5
    grid = make_grid(0.0, radius, 17)
    report = check_network_invariant(sigma, args.layers, kind, grid, trials=args.trials, seed=args.seed)
    doc = report.to_json_dict()
    doc["cli"] = _cli_echo(args)
    _emit(doc, args)
    return 0


def _cmd_floor(args):
    sigma = by_name(args.activation)
    target = resolve_target(args.target)
    try:
        widths = tuple(int(w) for w in str(args.widths).split(",") if w.strip())
    except ValueError:
        raise UsageError(f"malformed widths {args.widths!r}") from None
    radius = args.radius if args.radius is not None else 1.0
    table = error_floor_experiment(sigma, target, widths, (0.0, radius), seed=args.seed)
    doc = table.to_json_dict()
    doc["cli"] = _cli_echo(args)
    _emit(doc, args, csv_text=table.to_csv())
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
        args = _apply_config_file(args)
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
