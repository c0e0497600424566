"""Command-line entry point.

Subcommands: prepare, loocv, validate, predict, synth, plot.
Exit codes: 0 success; 2 a ``ConfigError`` (the config or spec is
missing, unreadable or invalid, or names a column the input lacks); 3 a
``DataError`` (an input is missing or cannot be read or scored, or an
output cannot be written), or a stdout whose reader has gone; 4 any
other exception, which is a bug and is printed with its type.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import pipeline, report, svgplot
from .config import _read_json, load_config
from .errors import ConfigError, DataError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ammknn",
        description="Adaptive minimum-match KNN score-prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="aggregate, split, standardize, select")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True, help="raw cohort CSV")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("loocv", help="leave-one-out evaluation on prepared data")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True, help="prepared training CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("validate", help="predict and evaluate a scored cohort")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("predict", help="predict an unscored cohort")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    p = sub.add_parser("plot", help="render an SVG scatter from a report")
    p.add_argument("--report", required=True, help="evaluation report JSON")
    p.add_argument("--kind", choices=svgplot.PLOT_KINDS, default="scatter")
    p.add_argument("--out", required=True)
    return parser


def _cmd_prepare(args) -> int:
    config = load_config(args.config)
    summary = pipeline.run_prepare(config, args.input, args.out)
    print(
        "prepared {train_rows} training rows "
        "(dropped {train_dropped_missing_target} missing-target, "
        "{train_dropped_incomplete} incomplete) and {validation_rows} validation rows "
        "(dropped {validation_dropped_missing_target} missing-target, "
        "{validation_dropped_incomplete} incomplete); "
        "dropped {dropped_outside_years} rows with a missing cohort year "
        "or one outside both windows".format(**summary)
    )
    print(
        "kept {columns_kept} of {columns_in} columns "
        "({columns_dropped} below the correlation threshold)".format(**summary)
    )
    return EXIT_OK


def _cmd_loocv(args) -> int:
    config = load_config(args.config)
    reports = pipeline.run_loocv(config, args.train, args.out)
    if args.format == "json":
        report.write_json(reports, sys.stdout)
    else:
        print(report.format_metrics_table(reports["ammknn"]))
        print(report.format_metrics_table(reports["knn"]))
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    result = pipeline.run_validate(config, args.train, args.cohort, args.out)
    if args.format == "json":
        report.write_json(result["report"], sys.stdout)
    else:
        print(report.format_metrics_table(result["report"]))
        print("roster (worst predicted risk first):")
        for entry in result["roster"]:
            print(f"  {entry['id']}: {entry['predicted']:.1f} [{entry['tier']}]")
    return EXIT_OK


def _cmd_predict(args) -> int:
    config = load_config(args.config)
    count = pipeline.run_predict(config, args.train, args.cohort, args.out)
    print(f"wrote {count} prediction records")
    return EXIT_OK


def _cmd_synth(args) -> int:
    doc = _read_json(args.spec, ConfigError, "spec")
    summary = pipeline.run_synth(doc, args.out, seed_override=args.seed)
    print(f"wrote {summary['rows']} rows x {summary['columns']} columns to {summary['path']}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    out_path = pipeline.run_plot(args.report, args.kind, args.out)
    print(f"wrote {out_path}")
    return EXIT_OK


_COMMANDS = {
    "prepare": _cmd_prepare,
    "loocv": _cmd_loocv,
    "validate": _cmd_validate,
    "predict": _cmd_predict,
    "synth": _cmd_synth,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader gone from stdout is met here, not at exit
        return code
    except BrokenPipeError as exc:
        # what stdout still buffers goes to the null device, so the flush at exit succeeds
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"data error: stdout: cannot be written ({exc.strerror})", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
