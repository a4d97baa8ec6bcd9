#!/usr/bin/env python3
"""Summarise or compare saved benchmark outputs.

    python3 benchmark/compare.py summary RUN.log...
    python3 benchmark/compare.py compare BASE.log... -- NEW.log...

Each log holds the standard output of one or more benchmark runs. `summary`
prints, per workload and metric, the median and the spread (distance
between the first and third quartile over the median) of the runs.
`compare` prints both sides' medians and flags metrics that got worse by
more than their bound in BENCHMARK.json. It refuses to compare runs taken
on different hosts: their `nproc`, `cpu` and `rustc` must all agree.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "cpu", "rustc")
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def runs(paths):
    """Yields (host, result) for every run in the logs."""
    for path in paths:
        host = None
        for line in Path(path).read_text().splitlines():
            if line.startswith("host: "):
                host = json.loads(line[len("host: "):])
            elif line.startswith('{"correct"') and host is not None:
                yield host, json.loads(line)
                host = None


def table(paths):
    """{workload: {metric: [values]}} plus the set of host fingerprints."""
    out, hosts = {}, set()
    for host, result in runs(paths):
        hosts.add(tuple(host[k] for k in HOST_KEYS))
        metrics = out.setdefault(host["workload"], {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out, hosts


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(paths):
    data, hosts = table(paths)
    if len(hosts) > 1:
        print(f"warning: runs come from {len(hosts)} different hosts", file=sys.stderr)
    for workload, metrics in data.items():
        for name, values in metrics.items():
            print(f"{workload:14} {name:28} n={len(values):2} "
                  f"median={statistics.median(values):<12.6g} spread={spread(values):.4f}")


def compare(base_paths, new_paths):
    base, base_hosts = table(base_paths)
    new, new_hosts = table(new_paths)
    if len(base_hosts | new_hosts) != 1:
        sys.exit(f"refusing to compare results from different hosts: {sorted(base_hosts | new_hosts)}")
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    worse = 0
    for workload in base:
        for name, values in base[workload].items():
            if name not in new.get(workload, {}):
                continue
            b, n = statistics.median(values), statistics.median(new[workload][name])
            change = (n - b) / b if b else 0.0
            flag = ""
            if name in bounds:
                loss = change if bounds[name]["better"] == "lower" else -change
                if loss > bounds[name]["bound"]:
                    flag, worse = "  WORSE than bound", worse + 1
            print(f"{workload:14} {name:28} base={b:<12.6g} new={n:<12.6g} change={change:+.4f}{flag}")
    sys.exit(1 if worse else 0)


def main(argv):
    if len(argv) >= 2 and argv[0] == "summary":
        summary(argv[1:])
    elif len(argv) >= 4 and argv[0] == "compare" and "--" in argv:
        cut = argv.index("--")
        compare(argv[1:cut], argv[cut + 1:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
