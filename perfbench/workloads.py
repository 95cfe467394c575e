"""The benchmark's workloads: CLI jobs per pass and the check applied to each job.

A job is one ``cvnnuniv`` CLI invocation (an argv list run through
``cvnnuniv.cli.run_cli``).  Every output path is relative, so a pass run in
any work directory writes byte-identical files for the same seed.

A job fails when any of its checks fails.  Checks follow the acceptance suite
(``tests/test_acceptance.py``): the verdict table, the 0.1 certificate budget
for ratio/cone, criterion 8's invariant tolerances and criterion 9's floor
separation.  ``KNOWN_DEFECTS`` names the (job, check) pairs that are known to
fail; they still count as failed jobs, but they do not make a run incorrect.
"""

from __future__ import annotations

import json
import os

CATALOG = (
    "ratio",
    "sigmoid_split",
    "zlog",
    "rho_c",
    "example_4_8",
    "tanh",
    "sin",
    "sinh",
    "conj_sin",
    "poly_zzbar",
    "abs2",
    "arcsin_principal",
)

# (shallow, deep) verdicts: the acceptance table, plus arcsin_principal's seed verdict
EXPECTED_VERDICTS = {
    "ratio": ("yes", "yes"),
    "sigmoid_split": ("yes", "yes"),
    "zlog": ("yes", "yes"),
    "tanh": ("no", "no"),
    "sin": ("no", "no"),
    "sinh": ("no", "no"),
    "conj_sin": ("no", "no"),
    "poly_zzbar": ("no", "no"),
    "abs2": ("no", "no"),
    "rho_c": ("yes", "yes"),
    "example_4_8": ("no", "yes"),
    "arcsin_principal": ("yes", "yes"),
}
AE_FLAGGED = ("example_4_8",)

CERT_BUDGET = 0.1
DBAR_TOL = 1e-5
LAPLACIAN_TOL = 1e-4
FLOOR_FACTOR = 3.0
FLOOR_WIDTHS = "50,100,200,400"

KNOWN_DEFECTS = {
    ("approximate-shallow-sigmoid_split-cone", "failures"): (
        "sigmoid_split/cone degree 6 exits 0 with 7 inactive-expansion-point failures "
        "and sup_error 1.88 (ROADMAP 3(a))"
    ),
    ("approximate-lifted-ratio-cone", "sup_error"): (
        "lifted ratio/cone misses the 0.1 budget at 8 of the seeds 1-10 (0.10-0.13); seed 0 gives 0.083"
    ),
    ("invariants-abs2-laplacian5-L2", "residual"): (
        "criterion 8's 1e-4 Laplacian tolerance is missed at seed 17 (1.18e-4)"
    ),
    **{
        (f"invariants-{name}-dbar-L{depth}", "residual"): (
            "criterion 8's 1e-5 dbar tolerance holds at seed 0; "
            "each of the seeds 1-10 exceeds it in some job (up to 3.4e-5)"
        )
        for name in ("sin", "tanh")
        for depth in (1, 2, 3)
    },
}


class Job:
    """One CLI invocation and the files it writes (relative to the pass directory)."""

    def __init__(self, job_id, argv, kind, out, network_out=None, **expect):
        self.id = job_id
        self.argv = list(argv)
        self.kind = kind
        self.out = out
        self.network_out = network_out
        self.expect = expect

    def full_argv(self, seed):
        argv = self.argv + ["--seed", str(seed), "--out", self.out]
        if self.network_out:
            argv += ["--network-out", self.network_out]
        return argv

    @property
    def outputs(self):
        return [p for p in (self.out, self.network_out) if p]


def _classify_jobs():
    return [
        Job(f"classify-{name}", ["classify", "--activation", name], "classify", f"classify-{name}.json", name=name)
        for name in CATALOG
    ]


def _approx(tag, activation, extra, network_out):
    job_id = f"approximate-{tag}-{activation}-cone"
    return Job(
        job_id,
        ["approximate", "--activation", activation, "--target", "cone"] + extra,
        "certificate",
        f"{job_id}.json",
        network_out=f"{job_id}.network.json" if network_out else None,
        budget=CERT_BUDGET if activation == "ratio" else None,
    )


def _verify_jobs():
    jobs = []
    for name in ("sin", "tanh"):
        for depth in (1, 2, 3):
            job_id = f"invariants-{name}-dbar-L{depth}"
            argv = ["invariants", "--activation", name, "--kind", "dbar", "--layers", str(depth)]
            jobs.append(Job(job_id, argv, "invariant", f"{job_id}.json", tol=DBAR_TOL))
    for name, degree in (("poly_zzbar", 1), ("abs2", 2)):
        for depth in (1, 2):
            power = degree**depth + 1
            job_id = f"invariants-{name}-laplacian{power}-L{depth}"
            argv = ["invariants", "--activation", name, "--kind", f"laplacian:{power}", "--layers", str(depth)]
            jobs.append(Job(job_id, argv, "invariant", f"{job_id}.json", tol=LAPLACIAN_TOL))
    for name in ("ratio", "sin", "tanh", "zlog"):
        job_id = f"floor-{name}-cone"
        argv = ["floor", "--activation", name, "--target", "cone", "--widths", FLOOR_WIDTHS]
        jobs.append(Job(job_id, argv, "floor", f"{job_id}.json", name=name))
    return jobs


WORKLOADS = {
    "classify-catalog": _classify_jobs,
    "synth-deep": lambda: [_approx("deep", "ratio", ["--deep", "--layers", "2"], network_out=True)],
    "synth-shallow": lambda: [
        _approx("shallow", "ratio", ["--degree", "6"], network_out=True),
        _approx("shallow", "sigmoid_split", ["--degree", "6"], network_out=True),
        _approx("lifted", "ratio", ["--dims", "2"], network_out=False),
    ],
    "verify-obstructions": _verify_jobs,
}


def _load(workdir, name):
    with open(os.path.join(workdir, name)) as fh:
        return json.load(fh)


def check_job(job, exit_code, workdir, reports):
    """Failed checks of one job as {check: message}; ``reports`` maps job id -> parsed report."""
    if exit_code != 0:
        return {"exit_code": f"exit code {exit_code}, expected 0"}
    try:
        doc = _load(workdir, job.out)
    except (OSError, ValueError) as exc:
        return {"report": f"unreadable report: {exc}"}
    reports[job.id] = doc
    failed = {}
    if job.kind == "classify":
        name = job.expect["name"]
        got = (doc["shallow_universal"], doc["deep_universal"])
        if got != EXPECTED_VERDICTS[name]:
            failed["verdict"] = f"verdicts {got}, expected {EXPECTED_VERDICTS[name]}"
        if name in AE_FLAGGED and not doc["ae_equal_but_discontinuous"]:
            failed["ae_flag"] = "ae_equal_but_discontinuous is not set"
    elif job.kind == "certificate":
        if doc["failures"]:
            failed["failures"] = f"{len(doc['failures'])} failed extractions: {doc['failures'][0]} ..."
        budget = job.expect["budget"]
        if budget is not None and not doc["sup_error"] <= budget:
            failed["sup_error"] = f"sup_error {doc['sup_error']:.4g} > {budget}"
    elif job.kind == "invariant":
        tol = job.expect["tol"]
        if not doc["max_residual"] <= tol:
            failed["residual"] = f"max_residual {doc['max_residual']:.3g} > {tol:g}"
    elif job.kind == "floor" and job.expect["name"] == "sin":
        ratio = reports.get("floor-ratio-cone")
        if ratio is None:
            failed["floor_factor"] = "the ratio floor table is missing"
        else:
            factor = min(r["l1_error"] for r in doc["rows"]) / ratio["rows"][-1]["l1_error"]
            if not factor >= FLOOR_FACTOR:
                failed["floor_factor"] = f"sin/ratio l1 factor {factor:.3g} < {FLOOR_FACTOR:g}"
    return failed


def quality_metrics(jobs, reports):
    """Worst ratio/cone certificate error and worst invariant residual, where the workload has them."""
    out = {}
    budgeted = [j for j in jobs if j.kind == "certificate" and j.expect["budget"] and j.id in reports]
    sups = [reports[j.id]["sup_error"] for j in budgeted]
    if sups:
        out["sup_error_max"] = max(sups)
    residuals = [reports[j.id]["max_residual"] for j in jobs if j.kind == "invariant" and j.id in reports]
    if residuals:
        out["invariant_residual_max"] = max(residuals)
    return out


def skipped_points(jobs, reports):
    """(skipped, evaluated) grid points over the invariant jobs of a pass."""
    skipped = total = 0
    for job in jobs:
        if job.kind == "invariant" and job.id in reports:
            doc = reports[job.id]
            skipped += doc["skipped_points"]
            total += doc["grid"]["size"] * doc["networks_tested"]
    return skipped, total
