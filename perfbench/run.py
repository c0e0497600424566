"""ammknn benchmark: drive the CLI steps in process, check outputs, time them.

Usage (from the repository root):

    python3 perfbench/run.py --workload loocv --seed 1 --seconds 20 --trace 0

One run is one fresh interpreter, one client, steps back to back (closed
loop).  In order it: runs the seed-7 workflow and compares it byte for
byte with tests/golden/seed7/; sets the workload up (synth, then prepare
where the workload's pass does not run it); runs timed passes for about
--seconds seconds of pass time, repeating the set-up between passes; then
checks the outputs against naive references.  With --trace 1 every other
pass and set-up runs under the span tracer and the run prints per-layer
metrics instead of end-to-end ones.  Untraced steps run under the speed
probe of speed.py, and end-to-end times are in reference-speed seconds.

stdout: one JSON line with the run record, then, as the last line, the
result object {"correct", "attempted", "failed", "metrics"}.  The
program's own stdout is sent to a sink while it runs.  Exit code 0 only
when every step succeeded and every check passed.
"""

import time

_T_SCRIPT = time.perf_counter()
_STARTUP_CPU_S = time.process_time()  # interpreter start-up, all CPU-bound

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import reference as ref  # noqa: E402
import speed as speed_mod  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(ROOT, "tests", "golden")
HARD_LIMIT_S = 150.0  # stop starting passes past this, whatever --seconds says

# Spans every traced execution of a step must record.  They sit on the CLI
# and pipeline boundary, so a refactor inside a layer cannot silence them;
# one missing means the tracer lost a by-name import.
BOUNDARY_SPANS = {
    "synth": ("cli.main", "pipeline.run_synth", "synth.generate_cohort", "frame.write_csv"),
    "prepare": ("cli.main", "config.load_config", "pipeline.run_prepare",
                "frame.load_csv", "frame.write_csv", "report.dump_json"),
    "loocv": ("cli.main", "config.load_config", "pipeline.run_loocv",
              "frame.load_csv", "report.dump_json"),
    "validate": ("cli.main", "config.load_config", "pipeline.run_validate",
                 "frame.load_csv", "report.dump_json"),
    "predict": ("cli.main", "config.load_config", "pipeline.run_predict", "frame.load_csv"),
    "plot": ("cli.main", "pipeline.run_plot", "svgplot.render_plot"),
}
# Interior spans each workload's passes are expected to record today.  A
# refactor may fold them away, so a silent one is reported, not failed.
INTERIOR_SPANS = {
    "loocv": ("knn.rank_neighbors", "frame.feature_matrix", "frame.Frame.init",
              "evaluation.loocv", "knn.knn_regress", "knn.ammknn_predict_batch",
              "knn.cumulative_means", "report.build_report", "evaluation.confusion",
              "pipeline.resolve_outlier_feature", "config.sha256"),
    "score-cohort": ("knn.rank_neighbors", "frame.feature_matrix",
                     "knn.ammknn_predict_batch", "knn.cumulative_means",
                     "report.build_report", "evaluation.confusion",
                     "pipeline.resolve_outlier_feature", "config.sha256"),
    "prepare-wide": ("frame.Frame.init", "frame.aggregate_means", "frame.filters",
                     "preprocess.standardize_joint", "preprocess.select_by_correlation",
                     "preprocess.pearson_correlation"),
}
GOLDEN_STEPS = (  # (label, argv for the gate directory d): the seed-7 workflow
    ("synth", lambda d: ["synth", "--spec", os.path.join(GOLDEN, "spec.json"), "--out", d]),
    ("prepare", lambda d: ["prepare", "--config", os.path.join(GOLDEN, "config.json"),
                           "--input", os.path.join(d, "cohort.csv"), "--out", d]),
    ("loocv", lambda d: ["loocv", "--config", os.path.join(GOLDEN, "config.json"),
                         "--train", os.path.join(d, "train.csv"), "--out", d]),
    ("validate", lambda d: ["validate", "--config", os.path.join(GOLDEN, "config.json"),
                            "--train", os.path.join(d, "train.csv"),
                            "--cohort", os.path.join(d, "validation.csv"), "--out", d]),
    ("plot", lambda d: ["plot", "--report", os.path.join(d, "validate_ammknn.json"),
                        "--kind", "scatter", "--out", d]),
    ("plot-packrat", lambda d: ["plot", "--report", os.path.join(d, "validate_ammknn.json"),
                                "--kind", "packrat_scatter", "--out", d]),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, fixtures or settings)."""


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tail(values):
    """(value, percentile, samples): the highest percentile with >= 10 samples
    beyond it; the maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


class Sink(io.TextIOBase):
    """Text stream that discards what is written: the program's stdout."""

    def writable(self):
        return True

    def write(self, text):
        return len(text)


class Run:
    """One benchmark run: every CLI step it executes and every check it makes."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.ops = []  # {"phase", "step", "code", "seconds", "ref_seconds", ...}
        self.sink = Sink()
        self.probe = speed_mod.SpeedProbe()

    def step(self, label, argv, phase, traced=False):
        """Run one CLI step.  Untraced steps run under the speed probe and
        also record `ref_seconds`, their time at the reference speed."""
        if self.tracer is not None:
            self.tracer.phase = f"{phase}/{label}"
        op = {"phase": phase, "step": label, "problems": [], "traced": traced,
              "net_seconds": None, "ref_seconds": None}
        with contextlib.redirect_stdout(self.sink):
            if traced:
                start = time.perf_counter()
                code = self.cli.main(argv)
                op["seconds"] = time.perf_counter() - start
            else:
                with self.probe.window() as win:
                    code = self.cli.main(argv)
                op.update(seconds=win.wall_s, net_seconds=win.net_s, ref_seconds=win.ref_s)
        op["code"] = code
        if code != 0:
            op["problems"].append(f"exit code {code}")
        self.ops.append(op)

    def fail(self, step_label, problems, phase=None):
        """Attach problems to one phase's execution of a step, or by default
        to every execution outside the golden gate."""
        for op in self.ops:
            if op["step"] == step_label and (
                op["phase"] == phase if phase else op["phase"] != "golden"
            ):
                op["problems"].extend(problems)

    @property
    def failed(self):
        return sum(1 for op in self.ops if op["problems"])

    def ref_seconds(self, phase):
        """Reference-speed seconds of a phase's steps; None if any was traced."""
        values = [op["ref_seconds"] for op in self.ops if op["phase"] == phase]
        return None if None in values else sum(values)

    def speed(self):
        """Mean speed over every probed step, relative to the reference."""
        probed = [op for op in self.ops if op["ref_seconds"] is not None]
        return sum(op["ref_seconds"] for op in probed) / sum(op["net_seconds"] for op in probed)


def golden_gate(run, work):
    gate = os.path.join(work, "golden")
    os.makedirs(gate)
    owner = {}  # file -> the gate step that first wrote it
    for label, make in GOLDEN_STEPS:
        run.step(label, make(gate), "golden")
        for name in os.listdir(gate):
            owner.setdefault(name, label)
    fixtures = os.path.join(GOLDEN, "seed7")
    for name in sorted(os.listdir(fixtures)):
        problems = ref.check_files_equal(os.path.join(fixtures, name), os.path.join(gate, name))
        run.fail(owner.get(name, GOLDEN_STEPS[0][0]), problems, "golden")


def output_hashes(directory, steps):
    return {
        step.name: {f: sha256_file(os.path.join(directory, f))
                    for f in step.outputs if os.path.exists(os.path.join(directory, f))}
        for step in steps
    }


def check_repeat(run, phase, hashes, first):
    for step, files in hashes.items():
        if files != first[step]:
            run.fail(step, [f"outputs differ from the first {phase.split('-')[0]}"], phase)


class SetUp:
    """Repeated set-up of a workload's inputs, checked to be byte-identical.

    Each call writes the spec and config documents and runs the set-up
    steps into <work>/inputs.  Repeats are spread between the timed passes
    so their median samples the whole run, not one moment of it.
    """

    def __init__(self, run, workload, work, seed, traced):
        self.run, self.workload, self.work = run, workload, work
        self.seed, self.traced = seed, traced
        self.times, self.ref_times, self.first = [], [], None

    @property
    def remaining(self):
        return self.workload.setup_repeats - len(self.times)

    def __call__(self):
        phase = f"setup-{len(self.times)}"
        traced = self.traced and len(self.times) % 2 == 1
        inputs = os.path.join(self.work, "inputs")
        start = time.perf_counter()
        spec, config = wl.workload_docs(ROOT, self.workload, self.seed)
        for name, doc in (("spec.json", spec), ("config.json", config)):
            with open(os.path.join(self.work, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
        with tracing(self.run.tracer, traced):
            for step in self.workload.setup_steps:
                self.run.step(step.name, wl.argv(step, self.work, inputs), phase, traced)
        self.times.append(time.perf_counter() - start)
        if not traced:
            self.ref_times.append(self.run.ref_seconds(phase))
        hashes = output_hashes(inputs, self.workload.setup_steps)
        self.first = self.first or hashes
        check_repeat(self.run, phase, hashes, self.first)


@contextlib.contextmanager
def tracing(tracer, enabled):
    if tracer is None or not enabled:
        yield
        return
    with tracer:
        yield


def run_passes(run, workload, work, seconds, trace, set_up):
    """Timed passes for about `seconds` of pass time, set-ups in between.

    Returns the wall times of the untraced and the traced passes, and the
    reference-speed times of the untraced ones."""
    out = os.path.join(work, "out")
    os.makedirs(out)
    times, traced_times, ref_times, first = [], [], [], None
    min_passes = 4 if trace else 3
    while True:
        k = len(times) + len(traced_times)
        if k and set_up.remaining:
            set_up()
        traced = bool(trace) and k % 2 == 1
        phase = f"pass-{k}"
        t0 = time.perf_counter()
        with tracing(run.tracer, traced):
            for step in workload.pass_steps:
                run.step(step.name, wl.argv(step, work, out), phase, traced)
        (traced_times if traced else times).append(time.perf_counter() - t0)
        if not traced:
            ref_times.append(run.ref_seconds(phase))
        hashes = output_hashes(out, workload.pass_steps)
        if first is None:
            first = hashes
        check_repeat(run, phase, hashes, first)
        typical = statistics.median(times + traced_times)
        done = k + 1 >= min_passes and sum(times + traced_times) + typical > seconds
        out_of_time = (time.perf_counter() - _T_SCRIPT + typical > HARD_LIMIT_S
                       and (traced_times or not trace))
        if done or out_of_time:
            return times, traced_times, ref_times


def check_outputs(run, workload, work, prepared, config):
    """Compare outputs with the naive references; unreadable outputs fail too."""
    try:
        run.fail("prepare", wl.check_prepared(work, prepared, config))
        for step, problems in wl.check_predictions(workload, work, config).items():
            run.fail(step, problems)
    except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
        for step in workload.pass_steps:
            run.fail(step.name, [f"outputs could not be checked: {exc!r}"])


def check_spans(run, tracer, workload):
    """Fail traced steps that lack a boundary span; list silent interior spans."""
    fired = {}
    for _, _, phase, name, _, _, _ in tracer.spans:
        fired.setdefault(phase, set()).add(name)
    for op in run.ops:
        if not op["traced"]:
            continue
        got = fired.get(f"{op['phase']}/{op['step']}", set())
        missing = [s for s in BOUNDARY_SPANS[op["step"]]
                   if s not in got and s not in tracer.absent]
        if missing:
            op["problems"].append(f"boundary spans did not fire: {missing}")
    all_fired = tracer.fired()
    return [s for s in INTERIOR_SPANS[workload.name]
            if s not in all_fired and s not in tracer.absent]


def layer_metrics(names, tracer, run, times, traced_times, steps):
    """Per-layer metrics: medians over traced passes (synth over set-ups)."""
    def phase_medians(prefix):
        labels = sorted({op["phase"] for op in run.ops
                         if op["traced"] and op["phase"].startswith(prefix)})
        totals = [tracer.phase_totals(label) for label in labels]
        keys = set().union(*totals) if totals else set()
        return {k: statistics.median(t.get(k, 0) for t in totals) for k in keys}

    passes = phase_medians("pass-")
    setups = phase_medians("setup-")
    evals = passes.get("knn.rank_neighbors.distance_evals", 0)
    special = {
        "knn.distance_evals": evals,
        "knn.kept_ratio": passes.get("knn.rank_neighbors.neighbors", 0) / evals if evals else 0.0,
        "synth.generate_cohort.s": setups.get("synth.generate_cohort.s", 0.0),
        "trace.overhead_s": statistics.median(traced_times) - statistics.median(times),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.startswith("step."):
            values[name] = steps.get(name[len("step."):-len("_s")], 0.0)
        elif name.endswith(".self_s"):
            values[name] = passes.get(name[: -len(".self_s")] + ".s", 0.0)
        else:
            values[name] = passes.get(name, 0.0)
    return values


def step_medians(run, prefix):
    """Median reference-speed seconds of each step's untraced executions in
    matching phases."""
    by_step = {}
    for op in run.ops:
        if op["phase"].startswith(prefix) and not op["traced"]:
            by_step.setdefault(op["step"], []).append(op["ref_seconds"])
    return {step: statistics.median(v) for step, v in by_step.items()}


def commit_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def source_sha256():
    """One digest over src/ammknn/*.py, naming the code when git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ammknn")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            digest.update(sha256_file(os.path.join(src, name)).encode())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def import_cli():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ammknn", "cli.py")):
        raise BenchmarkError(f"no ammknn sources under {src}")
    if not os.path.isdir(os.path.join(GOLDEN, "seed7")):
        raise BenchmarkError(f"no golden fixtures under {GOLDEN}")
    sys.path.insert(0, src)
    from ammknn import cli
    return cli


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    args = parse_args(argv, sorted(wl.WORKLOADS))
    workload = wl.WORKLOADS[args.workload]
    cli = import_cli()
    import_s = time.perf_counter() - _T_SCRIPT

    work = os.path.join(OUT_ROOT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    spec, config = wl.workload_docs(ROOT, workload, args.seed)
    tracer = Tracer() if args.trace else None
    run = Run(cli, tracer)
    golden_gate(run, work)

    set_up = SetUp(run, workload, work, args.seed, bool(args.trace))
    set_up()
    times, traced_times, ref_times = run_passes(run, workload, work, args.seconds, args.trace, set_up)
    while set_up.remaining:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    inputs = os.path.join(work, "inputs")
    prepared = os.path.join(work, "out" if wl.PREPARE in workload.pass_steps else "inputs")
    check_outputs(run, workload, work, prepared, config)
    silent = check_spans(run, tracer, workload) if tracer else []

    rows = wl.rows_handled(workload, work)
    steps = step_medians(run, "pass-")
    steps.setdefault("prepare", step_medians(run, "setup-").get("prepare", 0.0))
    speed = run.speed()
    pass_s = statistics.median(ref_times)
    pass_tail, tail_pct, tail_n = tail(ref_times)
    end_to_end = {
        "pass_s": pass_s,
        "pass_tail_s": pass_tail,
        "rows_per_s": rows / pass_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": (_STARTUP_CPU_S + import_s) * speed + statistics.median(set_up.ref_times),
    }
    everything = dict(end_to_end)
    everything.update({f"step.{s}_s": v for s, v in steps.items()})
    everything["ops_failed_frac"] = run.failed / len(run.ops)
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        chosen = layer_metrics(names, tracer, run, times, traced_times, steps)
        everything.update(chosen)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        tracer.write(os.path.join(work, "spans.jsonl"))
    else:
        chosen = end_to_end
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if set(chosen) != set(units):
        raise BenchmarkError(f"metrics {sorted(chosen)} do not match BENCHMARK.json {sorted(units)}")

    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_sha(),
        "source_sha256": source_sha256(),
        "params": {"spec": spec, "config": config, "rows_per_pass": rows},
        "inputs_sha256": {
            os.path.relpath(p, work): sha256_file(p)
            for p in [os.path.join(work, "spec.json"), os.path.join(work, "config.json")]
            + [os.path.join(inputs, f) for f in sorted(os.listdir(inputs))]
        },
        "pass_ref_s": ref_times,
        "pass_wall_s": times,
        "traced_pass_wall_s": traced_times,
        "setup_ref_s": set_up.ref_times,
        "setup_wall_s": set_up.times,
        "startup_s": _STARTUP_CPU_S,
        "import_s": import_s,
        "pass_tail": {"value": pass_tail, "percentile": tail_pct, "samples": tail_n},
        "wall_s": statistics.median(times),
        "wall_tail_s": tail(times)[0],
        "speed": {"mean": speed, "interval_s": speed_mod.INTERVAL_S,
                  "reference_sample_s": speed_mod.REFERENCE_SAMPLE_S},
        "metrics": everything,
        "ops_attempted": len(run.ops),
        "ops_failed": run.failed,
        "problems": [f"{op['phase']}/{op['step']}: {p}" for op in run.ops for p in op["problems"]],
        "spans_absent": tracer.absent if tracer else None,
        "spans_silent": silent,
    }
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for name, value in chosen.items():
        print(f"{name:>36} {value:>16.6g} {units[name]}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in chosen.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
