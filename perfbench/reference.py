#!/usr/bin/env python3
"""Regenerate the reference tables of perfbench/README.md.

    python3 perfbench/reference.py [--seed N] [--seconds S]

Runs every workload once untraced (end-to-end metrics) and once traced
(per-layer metrics, including the gprof host_share breakdown), one run at
a time, and prints Markdown tables headed by the host/build stamp.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    stamp = next((l for l in lines if l.startswith("host: ")), "")
    return stamp, json.loads(lines[-1])


def table(names, units, results):
    wls = list(results)
    out = ["| metric | unit | " + " | ".join(wls) + " |",
           "|---|---|" + "---|" * len(wls)]
    for name in names:
        cells = []
        for w in wls:
            v = results[w]["metrics"][name]["value"]
            cells.append("{:,.0f}".format(v) if abs(v) >= 1000 else "%.4g" % v)
        out.append("| `%s` | %s | %s |" % (name, units[name], " | ".join(cells)))
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    a = ap.parse_args()
    for trace, spec in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        results, stamp = {}, ""
        for w in run.WORKLOADS:
            stamp, results[w] = bench(w, a.seed, a.seconds, trace)
            if not results[w]["correct"]:
                sys.exit("%s --trace %d: outputs failed their checks" % (w, trace))
        print("%s, seed %d, --trace %d\n" % (stamp, a.seed, trace))
        print(table([n for n, _ in spec], dict(spec), results))
        print()


if __name__ == "__main__":
    main()
