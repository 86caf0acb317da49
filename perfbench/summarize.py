"""Summarize result files that perfbench/run.py wrote to .perfbench_out/.

    python3 perfbench/summarize.py [result.json ...] > summary.json

With no arguments it reads every `.perfbench_out/*.json`. For each workload
and trace mode it gives, per metric, the median, the quartiles and the
quartile spread ((q3 - q1) / median) over the runs, as
`statistics.quantiles(values, n=4)` computes them, the medians of the
per-N detail values and the machine block of the first run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(paths) -> dict:
    runs = defaultdict(list)
    for path in paths:
        report = json.loads(Path(path).read_text())
        runs[(report["workload"], int(report["trace"]))].append(report)
    out = {"workloads": {}}
    for (workload, trace), reports in sorted(runs.items()):
        metrics = defaultdict(list)
        detail = defaultdict(list)
        for r in reports:
            for name, m in r["result"]["metrics"].items():
                metrics[(name, m["unit"])].append(m["value"])
            for name, v in r["detail"].items():
                if isinstance(v, (int, float)):
                    detail[name].append(v)
        entry = {
            "runs": len(reports),
            "seeds": sorted(r["seed"] for r in reports),
            "machine": reports[0]["machine"],
            "checks_failed": sum(r["result"]["failed"] for r in reports),
            "checks_attempted": sum(r["result"]["attempted"] for r in reports),
            "metrics": {},
            "detail_medians": {k: statistics.median(v)
                               for k, v in sorted(detail.items())},
        }
        for (name, unit), values in metrics.items():
            med = statistics.median(values)
            row = {"unit": unit, "median": med, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3,
                           spread=(q3 - q1) / med if med else None)
            entry["metrics"][name] = row
        out["workloads"][f"{workload}/trace{trace}"] = entry
    return out


if __name__ == "__main__":
    files = sys.argv[1:] or sorted(
        Path(__file__).resolve().parent.parent.glob(".perfbench_out/*.json"))
    json.dump(summarize(files), sys.stdout, indent=1)
    print()
