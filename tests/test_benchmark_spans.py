"""The seed-7 workflow under the benchmark's span tracer.

``perfbench/run.py`` fails a traced step whose boundary spans do not all
fire, and ``perfbench/tracer.py`` reads ``n_rows`` and ``n_cols`` from
what ``frame.load_csv`` returns. The benchmark runs on one Python only;
this test runs the same checks wherever the test suite runs. It reads
``perfbench/`` and changes nothing there.
"""

import ast
from pathlib import Path

from ammknn import cli
from perfbench_module import PERFBENCH, load_perfbench

GOLDEN = Path(__file__).parent / "golden"


def _boundary_spans():
    """``BOUNDARY_SPANS`` of ``perfbench/run.py``, read without running the
    script's imports."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARY_SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no BOUNDARY_SPANS")


def test_seed7_workflow_fires_every_boundary_span(tmp_path):
    d = str(tmp_path)
    config = str(GOLDEN / "config.json")
    train, cohort = str(tmp_path / "train.csv"), str(tmp_path / "validation.csv")
    steps = {
        "synth": ["synth", "--spec", str(GOLDEN / "spec.json"), "--out", d],
        "prepare": ["prepare", "--config", config, "--input", str(tmp_path / "cohort.csv"),
                    "--out", d],
        "loocv": ["loocv", "--config", config, "--train", train, "--out", d],
        "validate": ["validate", "--config", config, "--train", train, "--cohort", cohort,
                     "--out", d],
        "predict": ["predict", "--config", config, "--train", train, "--cohort", cohort,
                    "--out", d],
        "plot": ["plot", "--report", str(tmp_path / "validate_ammknn.json"),
                 "--kind", "scatter", "--out", d],
    }
    boundary = _boundary_spans()
    assert sorted(boundary) == sorted(steps)
    tracer = load_perfbench("tracer").Tracer()
    with tracer:
        for step, argv in steps.items():
            tracer.phase = step
            # through the module, where the tracer wraps main
            assert cli.main(argv) == 0, step
    fired = {}
    for _, _, phase, name, *_ in tracer.spans:
        fired.setdefault(phase, set()).add(name)
    for step in steps:
        assert sorted(set(boundary[step]) - fired.get(step, set())) == [], step
