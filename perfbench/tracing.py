"""Span recording around the public functions of ``cvnnuniv``, from outside the package.

``install(recorder)`` replaces every public function of the library modules at
each binding inside the package (a function imported with ``from .x import y``
is wrapped where the importer holds it, too), substitutes a counting copy of
each catalog activation through ``cvnnuniv.cli.by_name``, times the targets
returned by ``cvnnuniv.cli.resolve_target`` and the ``lstsq`` solves of
``cvnnuniv.constructor``.  It returns a function that undoes all of it.

Spans are kept in memory as (name, start, end, parent) with ``parent`` the
index of the enclosing span or -1.  A span's layer is the part of its name
before the first dot.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import time

import numpy as np

# modules whose public functions become spans (activations and targets are timed through their values)
SPAN_MODULES = ("cli", "classifier", "constructor", "verify", "network", "wirtinger", "grids")
NETWORK_EVAL = ("eval_network", "eval_shallow")
NETWORK_ALGEBRA = ("linear_combine", "linear_combine_many", "compose", "lift_affine", "restrict_line", "concat_shallow")
NETWORK_JSON = ("network_to_json_dict", "network_from_json_dict", "save_network", "load_network")


class Recorder:
    """In-memory spans plus named counters; one per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()

    def timed(self, name, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper


def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans):
    """Per span: its duration minus the part of its interval that its child spans cover."""
    children = collections.defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _union_length(children.get(i, ()), start, end) for i, (_, start, end, _) in enumerate(spans)]


def root_coverage(spans, lo, hi):
    """Time within [lo, hi] covered by spans that have no parent."""
    return _union_length([(s, e) for _, s, e, p in spans if p < 0], lo, hi)


def call_tree(spans):
    """Spans folded by call path: [[path, calls, total_s, self_s], ...] sorted by path."""
    paths = []
    tree = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        path = f"{paths[parent]}/{name}" if parent >= 0 else name
        paths.append(path)
        node = tree[path]
        node[0] += 1
        node[1] += end - start
        node[2] += own
    return [[path, *tree[path]] for path in sorted(tree)]


def summarize(spans, counts, start, end):
    """Per-layer metrics of one traced pass that ran from ``start`` to ``end`` on the recorder's clock."""
    out = {}
    selfs = self_times(spans)
    layer_self = collections.Counter()
    by_name = collections.defaultdict(list)
    for (name, s0, s1, _), own in zip(spans, selfs):
        layer_self[name.split(".", 1)[0]] += own
        by_name[name].append((s0, s1))

    def span_s(*names):
        return _union_length([iv for n in names for iv in by_name.get(n, ())], float("-inf"), float("inf"))

    for layer in SPAN_MODULES:
        out[f"{layer}.self_s"] = float(layer_self[layer])
    out["remainder.s"] = (end - start) - root_coverage(spans, start, end)
    out["grids.make_grid.calls"] = len(by_name.get("grids.make_grid", ()))
    out["grids.make_grid.s"] = span_s("grids.make_grid")
    out["targets.s"] = span_s("targets.call")
    out["activations.calls"] = counts["activations.calls"]
    out["activations.points"] = counts["activations.points"]
    out["activations.s"] = span_s("activations.call")
    out["wirtinger.jet_entries_at.calls"] = len(by_name.get("wirtinger.jet_entries_at", ()))
    out["wirtinger.jet_entries_at.s"] = span_s("wirtinger.jet_entries_at")
    out["wirtinger.mollify.points"] = counts["wirtinger.mollify.points"]
    out["classifier.classify.calls"] = len(by_name.get("classifier.classify", ()))
    for fn in ("classify", "detect_polyharmonic", "detect_polynomial"):
        out[f"classifier.{fn}.s"] = span_s(f"classifier.{fn}")
    out["constructor.find_active_point.s"] = span_s("constructor.find_active_point")
    attempts = counts["constructor.extract_monomial.calls"]
    out["constructor.extract_monomial.calls"] = attempts
    out["constructor.extraction_yield"] = counts["constructor.extract_monomial.ok"] / attempts if attempts else 0.0
    out["constructor.lstsq.calls"] = len(by_name.get("constructor.lstsq", ()))
    out["constructor.lstsq.s"] = span_s("constructor.lstsq")
    out["network.eval.s"] = span_s(*(f"network.{fn}" for fn in NETWORK_EVAL))
    out["network.eval.macs"] = counts["network.eval.macs"]
    entries = counts["network.hidden_entries"]
    out["network.hidden_entries"] = entries
    out["network.dense_fill"] = counts["network.hidden_nonzeros"] / entries if entries else 0.0
    out["network.algebra.s"] = span_s(*(f"network.{fn}" for fn in NETWORK_ALGEBRA))
    out["network.json.s"] = span_s(*(f"network.{fn}" for fn in NETWORK_JSON))
    for fn in ("check_network_invariant", "error_floor_experiment"):
        out[f"verify.{fn}.s"] = span_s(f"verify.{fn}")
    out["trace.spans"] = len(spans)
    return out


class _Namespace:
    """Attribute view of ``target`` with some attributes replaced."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _package_modules():
    names = ("__init__",) + SPAN_MODULES + ("activations", "targets")
    return {n: importlib.import_module("cvnnuniv" if n == "__init__" else f"cvnnuniv.{n}") for n in names}


def _public_functions(module):
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__
    }


def _eval_macs(fn_name, net, z):
    n = max(1, np.size(z) // net.input_dim)
    if fn_name == "eval_shallow":
        return n * net.width * (net.input_dim + 1)
    return n * sum(a.size for a, _ in net.layers)


def _hidden_fill(net):
    mats = [a for a, _ in net.layers[1:-1]]
    return sum(int(np.count_nonzero(a)) for a in mats), sum(a.size for a in mats)


def _wrappers(rec, modules):
    """Replacement for every public function, keyed by the original function object."""
    counts = rec.counts
    wrapped = {}
    for layer in SPAN_MODULES:
        for name, fn in _public_functions(modules[layer]).items():
            wrapped[fn] = rec.timed(f"{layer}.{name}", fn)

    network = modules["network"]
    for fn_name in NETWORK_EVAL:
        timed = wrapped[getattr(network, fn_name)]

        def evaluate(net, sigma, z, _timed=timed, _name=fn_name):
            counts["network.eval.macs"] += _eval_macs(_name, net, z)
            return _timed(net, sigma, z)

        wrapped[getattr(network, fn_name)] = functools.wraps(timed)(evaluate)

    timed_json = wrapped[network.network_to_json_dict]

    def to_json(net):
        nonzeros, entries = _hidden_fill(net)
        counts["network.hidden_nonzeros"] += nonzeros
        counts["network.hidden_entries"] += entries
        return timed_json(net)

    wrapped[network.network_to_json_dict] = functools.wraps(timed_json)(to_json)

    timed_extract = wrapped[modules["constructor"].extract_monomial]

    def extract(*args, **kwargs):
        counts["constructor.extract_monomial.calls"] += 1
        out = timed_extract(*args, **kwargs)
        counts["constructor.extract_monomial.ok"] += 1
        return out

    wrapped[modules["constructor"].extract_monomial] = functools.wraps(timed_extract)(extract)

    timed_mollify = wrapped[modules["wirtinger"].mollify]

    def mollify(sigma, spec):
        smoothed = rec.timed("wirtinger.mollified", timed_mollify(sigma, spec))

        def counted(z):
            counts["wirtinger.mollify.points"] += np.size(z)
            return smoothed(z)

        return counted

    wrapped[modules["wirtinger"].mollify] = functools.wraps(timed_mollify)(mollify)
    return wrapped


def counting_activation(spec, rec):
    """Copy of ``spec`` whose ``fn`` counts calls and points and records an ``activations.call`` span."""
    timed = rec.timed("activations.call", spec._fn)
    counts = rec.counts

    def fn(z):
        counts["activations.calls"] += 1
        counts["activations.points"] += z.size
        return timed(z)

    return dataclasses.replace(spec, fn=fn)


def install(rec):
    """Route the package's calls through ``rec``; returns a function restoring the originals."""
    modules = _package_modules()
    wrapped = _wrappers(rec, modules)
    saved = []

    def replace(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                replace(module, attr, wrapped[value])

    cli = modules["cli"]
    by_name, resolve_target = cli.by_name, cli.resolve_target
    copies = {}

    def counting_by_name(name):
        spec = by_name(name)
        if name not in copies:
            copies[name] = counting_activation(spec, rec)
        return copies[name]

    def timed_target(name):
        return rec.timed("targets.call", resolve_target(name))

    replace(cli, "by_name", counting_by_name)
    replace(cli, "resolve_target", timed_target)
    constructor = modules["constructor"]
    linalg = _Namespace(np.linalg, lstsq=rec.timed("constructor.lstsq", np.linalg.lstsq))
    replace(constructor, "np", _Namespace(np, linalg=linalg))

    def restore():
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

    return restore
