"""Measure a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 20 --out perfbench/baseline.json

Runs perfbench/run.py once per (workload, seed), one run at a time, each in
its own interpreter, then one run with --trace 1 per workload on the first
seed.  Writes, for every end-to-end metric and workload, the ten values,
their median and quartiles and the spread (q3 - q1) / median, which is the
figure each metric's bound in BENCHMARK.json is checked against.  Takes
about 15 minutes with the defaults.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    doc = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            record, result = run_once(workload, seed, args.seconds, 0)
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        record_t, traced = run_once(workload, args.seeds[0], args.seconds, 1)
        doc["machine"] = {k: record[k] for k in
                          ("python", "cpu_model", "nproc", "commit", "source_sha256")}
        doc["workloads"][workload] = {
            "end_to_end": {m: summary([r[m]["value"] for r in runs]) for m in runs[0]},
            "per_layer_seed": args.seeds[0],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "spans_absent": record_t["spans_absent"],
            "spans_silent": record_t["spans_silent"],
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            print(f"{workload:>14} {metric:>12} median {s['median']:.5g} spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
