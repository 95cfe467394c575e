"""Compare benchmark records written by run.py.

Usage: python3 perfbench/compare.py RECORD.json [RECORD.json ...]

Prints, per workload, trace mode and version of the program (hash of the
sources under ``src/``), the median and quartiles of every metric.  Refuses
(exit 2) when the records were taken under different BLAS thread pins.
Flags (exit 1) every count that does not repeat exactly across records of the
same program, workload and seed.
"""

from __future__ import annotations

import collections
import json
import statistics
import sys

REPEATED_COUNTS = ("output_bytes", "activations.points", "constructor.lstsq.calls", "network.json_bytes")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    pins = {json.dumps(r["provenance"]["thread_pins"], sort_keys=True) for r in records}
    if len(pins) > 1:
        print(f"refused: the records were taken under different thread pins: {sorted(pins)}", file=sys.stderr)
        return 2

    groups = collections.defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"], r["provenance"]["source_sha256"][:12])].append(r)
    for (workload, trace, source), rs in sorted(groups.items()):
        print(f"{workload} trace={trace} source={source} runs={len(rs)}")
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name] for r in rs if name in r["metrics"]]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            unit = rs[0]["units"][name]
            print(f"  {name:36s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.2%}")

    flags = 0
    repeats = collections.defaultdict(list)
    for r in records:
        key = (r["workload"], r["provenance"]["seed"], r["provenance"]["source_sha256"][:12])
        repeats[key].append(r)
    for (workload, seed, source), rs in sorted(repeats.items()):
        for name in REPEATED_COUNTS:
            values = {r["counts"][name] for r in rs if name in r["counts"]}
            if len(values) > 1:
                flags += 1
                print(f"flag: {name} does not repeat for {workload} seed {seed} source {source}: {sorted(values)}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
