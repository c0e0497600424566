"""Test of the tracer's work counts against their closed forms.

On a tiny generated cohort with n training rows and m incoming rows:

* ``loocv``: knn.distance_evals = 2*n*(n-1) (two models, n folds, n-1 rows
  scanned per fold) and frame.feature_matrix.calls = 4*n;
* ``validate`` + ``predict``: knn.distance_evals = 2*m*n;

and a second traced run of the same steps gives identical counts.

    python3 perfbench/check_counts.py

Prints one line per check and exits 1 when any fails.  Counts are a
property of the current code: a change that alters the work done (for
example ranking each pair once) is expected to change them, and then this
test says by how much.
"""

import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from ammknn import cli  # noqa: E402
from run import Sink  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = {"n_rows": 50, "split": {"train_fraction": 0.6}}


def traced_counts(work, steps):
    """Counts from one traced execution of each step, keyed by step."""
    tracer = Tracer()
    out = os.path.join(work, "out")
    with tracer, contextlib.redirect_stdout(Sink()):
        for step in steps:
            tracer.phase = step.name
            if cli.main(wl.argv(step, work, out)) != 0:
                raise SystemExit(f"step {step.name} failed")
    return {step.name: dict(tracer.counts[step.name]) for step in steps}


def main():
    work = os.path.join(ROOT, ".perfbench_out", "check_counts")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    spec, config = wl.golden_docs(ROOT)
    spec.update({k: v for k, v in SPEC.items() if k != "split"})
    spec["split"].update(SPEC["split"])
    for name, doc in (("spec.json", spec), ("config.json", config)):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    inputs = os.path.join(work, "inputs")
    with contextlib.redirect_stdout(Sink()):
        for step in (wl.SYNTH, wl.PREPARE):
            if cli.main(wl.argv(step, work, inputs)) != 0:
                raise SystemExit(f"set-up step {step.name} failed")
    n = wl.count_rows(os.path.join(inputs, "train.csv"))
    m = wl.count_rows(os.path.join(inputs, "validation.csv"))

    steps = (wl.LOOCV, wl.VALIDATE, wl.PREDICT)
    first = traced_counts(work, steps)
    second = traced_counts(work, steps)

    def count(step, key):
        return first[step].get(key, 0)

    def scored(key):
        return count("validate", key) + count("predict", key)

    checks = [
        ("loocv knn.distance_evals == 2n(n-1)",
         count("loocv", "knn.rank_neighbors.distance_evals"), 2 * n * (n - 1)),
        ("loocv frame.feature_matrix.calls == 4n",
         count("loocv", "frame.feature_matrix.calls"), 4 * n),
        ("validate+predict knn.distance_evals == 2mn",
         scored("knn.rank_neighbors.distance_evals"), 2 * m * n),
    ]
    failed = 0
    print(f"n={n} training rows, m={m} incoming rows")
    for label, got, want in checks:
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: got {got}, expected {want}")
    same = first == second
    failed += not same
    print(f"{'ok  ' if same else 'FAIL'} counts repeat exactly across two runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
