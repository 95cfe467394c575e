"""cvnnuniv benchmark: CLI workloads run closed loop, one fresh child process per pass.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run it from the repository root.  A pass runs every job of the workload, one
after another, through ``cvnnuniv.cli.run_cli`` in a child process started
with BLAS threads pinned to one; the next pass starts when the previous one
has ended, until ``--seconds`` have passed (at least one pass).

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` (median pass
time after set-up), ``setup_s`` (median time from spawning a child to
``cvnnuniv.cli`` being imported), ``peak_rss_mb``, ``output_bytes`` and, as
extra lines, ``error_rate`` and the workload's quality figures.  With
``--trace 1`` one untraced and one traced pass run with the same seed; the
per-layer metrics come from the traced pass, ``trace.overhead_s`` is the
difference of the two pass times, and the two passes must write identical
bytes.

Every job's output is checked (see ``workloads.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A record with provenance, per-pass details and the call
tree of a traced pass is written to ``perfbench/results/``; ``compare.py``
reads those records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def metric_units(trace):
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env():
    env = dict(os.environ)
    env.pop("CVNN_SEED", None)
    env.update(PINS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Spawns child passes and keeps the run inside its time limit."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, jobs=None, workdir=None, trace=False):
        """Run one child; returns (child result, set-up seconds)."""
        plan_path = WORK / "plan.json"
        result_path = WORK / "result.json"
        log_path = WORK / "child.log"
        plan = {"jobs": jobs, "workdir": str(workdir) if workdir else None, "trace": trace}
        plan_path.write_text(json.dumps(plan))
        result_path.unlink(missing_ok=True)
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError("a pass did not finish within the run's time limit") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not result_path.exists():
            tail = log_path.read_text()[-2000:]
            raise BenchError(f"child process exited with code {code}:\n{tail}")
        result = json.loads(result_path.read_text())
        return result, result["ready"] - spawned


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_pass(runner, jobs, seed, trace=False):
    """One pass of every job; the outputs are checked, measured and deleted."""
    workdir = WORK / "pass"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result, setup = runner.spawn([job.full_argv(seed) for job in jobs], workdir, trace)
    reports = {}
    failures = []
    for job, code in zip(jobs, result["codes"]):
        for check, message in workloads.check_job(job, code, str(workdir), reports).items():
            failures.append({"job": job.id, "check": check, "message": message})
    digests = {}
    network_bytes = 0
    for job in jobs:
        for name in job.outputs:
            path = workdir / name
            if path.exists():
                digests[name] = [path.stat().st_size, _digest(path)]
                if name == job.network_out:
                    network_bytes += path.stat().st_size
    skipped, points = workloads.skipped_points(jobs, reports)
    shutil.rmtree(workdir)
    return {
        "setup_s": setup,
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "codes": result["codes"],
        "failures": failures,
        "failed_jobs": len({f["job"] for f in failures}),
        "digests": digests,
        "output_bytes": sum(size for size, _ in digests.values()),
        "network_json_bytes": network_bytes,
        "skipped_points": skipped,
        "invariant_points": points,
        "quality": workloads.quality_metrics(jobs, reports),
        "layers": result.get("layers"),
        "call_tree": result.get("call_tree"),
    }


def _source_sha256(root):
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "git_commit": commit,
        "source_sha256": _source_sha256(SRC),
        "benchmark_sha256": _source_sha256(HERE),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "thread_pins": dict(PINS),
    }


def _failure_lines(passes):
    lines = []
    seen = set()
    for p in passes:
        for f in p["failures"]:
            key = (f["job"], f["check"])
            if key in seen:
                continue
            seen.add(key)
            known = workloads.KNOWN_DEFECTS.get(key)
            note = f" [known defect: {known}]" if known else " [unexpected]"
            lines.append(f"failed: {f['job']} {f['check']}: {f['message']}{note}")
    return lines


def _unexpected(passes):
    return sum(
        1 for p in passes for f in p["failures"] if (f["job"], f["check"]) not in workloads.KNOWN_DEFECTS
    )


def run_workload(name, seed, seconds, trace, deadline):
    """Measure one workload; returns (record, printed lines)."""
    jobs = workloads.WORKLOADS[name]()
    runner = Runner(deadline)
    runner.spawn()  # warm-up: byte-compiles the package and fills the page cache
    units = metric_units(trace)
    lines = []
    problems = []
    how = {}
    record = {"workload": name, "trace": int(trace), "seconds": seconds, "provenance": provenance(seed)}
    if trace:
        plain = run_pass(runner, jobs, seed)
        traced = run_pass(runner, jobs, seed, trace=True)
        passes = [plain, traced]
        if plain["digests"] != traced["digests"]:
            problems.append("the traced pass wrote different bytes than the untraced pass")
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics["network.json_bytes"] = traced["network_json_bytes"]
        metrics["verify.points"] = traced["invariant_points"]
        metrics["verify.skipped_share"] = (
            traced["skipped_points"] / traced["invariant_points"] if traced["invariant_points"] else 0.0
        )
        record["call_tree"] = traced["call_tree"]
        lines.append(f"{name} seed {seed}: one untraced and one traced pass of {len(jobs)} jobs")
    else:
        setups = [runner.spawn()[1] for _ in range(SETUP_SAMPLES)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            if passes and time.monotonic() + max(p["wall_s"] for p in passes) * 1.2 + 2.0 > deadline:
                break
            passes.append(run_pass(runner, jobs, seed))
        setups += [p["setup_s"] for p in passes]
        for p in passes[1:]:
            if p["digests"] != passes[0]["digests"]:
                problems.append("two passes with the same seed wrote different bytes")
                break
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "output_bytes": statistics.median(p["output_bytes"] for p in passes),
        }
        how = {
            "wall_s": f" (median of {len(passes)})",
            "setup_s": f" (median of {len(setups)})",
            "peak_rss_mb": f" (max of {len(passes)})",
        }
        lines.append(f"{name} seed {seed}: {len(passes)} pass(es) of {len(jobs)} jobs in {seconds} s")
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    lines.append("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    lines += [f"{key} = {value:.6g} {units[key]}{how.get(key, '')}" for key, value in metrics.items()]
    attempted = len(jobs) * len(passes)
    failed = sum(p["failed_jobs"] for p in passes)
    extras = {"error_rate": failed / attempted}
    for p in passes:
        for key, value in p["quality"].items():
            extras[key] = max(extras.get(key, value), value)
    lines.append(f"error_rate = {extras['error_rate']:.4g} ratio ({failed} of {attempted} jobs failed)")
    for key in ("sup_error_max", "invariant_residual_max"):
        if key in extras:
            lines.append(f"{key} = {extras[key]:.6g} (worst over the passes)")
    lines += _failure_lines(passes)
    unexpected = _unexpected(passes)
    if unexpected:
        problems.append(f"{unexpected} job check(s) failed that are not known defects")
    lines += [f"problem: {p}" for p in problems]
    counts = {"output_bytes": passes[-1]["output_bytes"]}
    counts.update({k: metrics[k] for k in compare.REPEATED_COUNTS if k in metrics})
    record.update(
        correct=not problems,
        counts=counts,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        units=units,
        extras=extras,
        problems=problems,
        passes=[{k: v for k, v in p.items() if k not in ("layers", "call_tree")} for p in passes],
    )
    return record, lines


def save(record):
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    seed = record["provenance"]["seed"]
    path = RESULTS / f"{record['workload']}-seed{seed}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def _result_line(records):
    if len(records) == 1:
        r = records[0]
        metrics = {k: {"value": v, "unit": r["units"][k]} for k, v in r["metrics"].items()}
    else:
        metrics = {
            f"{r['workload']}.{k}": {"value": v, "unit": r["units"][k]}
            for r in records
            for k, v in r["metrics"].items()
        }
    return json.dumps(
        {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics,
        }
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cvnnuniv" / "cli.py").is_file():
        print(f"error: no cvnnuniv sources under {SRC}", file=sys.stderr)
        return 2
    records = []
    try:
        for i, name in enumerate(names):
            deadline = started + RUN_LIMIT_S * (i + 1)
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            record, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            lines.append(f"record: {save(record).relative_to(ROOT)}")
            print("\n".join(lines), flush=True)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(_result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
