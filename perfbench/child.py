"""One benchmark pass in a fresh process: import the CLI, run the jobs, report timings.

Usage: python3 child.py PLAN.json RESULT.json

The plan names the jobs (argv lists for ``cvnnuniv.cli.run_cli``), the work
directory they write into and whether to trace.  ``ready`` in the result is
the ``time.monotonic()`` reading right after ``cvnnuniv.cli`` is imported, so
the parent can measure set-up from spawn to import.
"""

import json
import os
import resource
import sys
import time


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    import cvnnuniv.cli as cli

    result = {"ready": time.monotonic()}
    if plan["jobs"] is not None:
        os.chdir(plan["workdir"])
        rec = None
        if plan["trace"]:
            import tracing

            rec = tracing.Recorder()
            tracing.install(rec)
        cpu_start = time.process_time()
        start = time.perf_counter()
        codes = [cli.run_cli(argv) for argv in plan["jobs"]]
        end = time.perf_counter()
        result["codes"] = codes
        result["wall_s"] = end - start
        result["cpu_s"] = time.process_time() - cpu_start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rec is not None:
            result["layers"] = tracing.summarize(rec.spans, rec.counts, start, end)
            result["call_tree"] = tracing.call_tree(rec.spans)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
