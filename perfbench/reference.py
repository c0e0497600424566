"""Independent references the benchmark checks the program's outputs against.

Nothing here imports ammknn: the references read the CSV and JSON files
the CLI wrote and recompute what they should hold, using the arithmetic
the package documents (left-to-right float sums, rankings keyed by
(squared distance, row index)), so a match is bit-exact.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re


def read_table(path, id_column="student_id"):
    """(column names without the id, rows of floats or None, ids)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        pos = header.index(id_column)
        names = [h for i, h in enumerate(header) if i != pos]
        rows, ids = [], []
        for record in reader:
            ids.append(record[pos])
            rows.append([None if c == "" else float(c)
                         for i, c in enumerate(record) if i != pos])
    return names, rows, ids


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _mean(values):
    return sum(values) / len(values)


def _pearson(x, y):
    mx, my = _mean(x), _mean(y)
    sxy = sxx = syy = 0.0
    for a, b in zip(x, y):
        sxy += (a - mx) * (b - my)
        sxx += (a - mx) * (a - mx)
        syy += (b - my) * (b - my)
    return sxy / math.sqrt(sxx * syy)


def naive_prepare(cohort_csv, config):
    """What `prepare` should write: {train, validation: (names, rows, ids), kept}.

    Aggregate member means, split by cohort year, z-score train and
    validation with pooled statistics, keep features with |r| >= threshold.
    Inputs from the generator have no missing cells, which is checked.
    """
    names, rows, ids = read_table(cohort_csv, config["id_column"])
    if any(None in row for row in rows):
        raise ValueError(f"{cohort_csv}: the reference expects a cohort without gaps")
    members = set()
    for agg in config["aggregations"]:
        idx = [names.index(m) for m in agg["member_columns"]]
        for row in rows:
            row.append(_mean([row[i] for i in idx]))
        names.append(agg["group_name"])
        members.update(agg["member_columns"])
    cutoff = config["year_cutoff"]
    year = names.index(config["cohort_column"])
    keep = [i for i, n in enumerate(names) if n not in members and i != year]
    split = {"train": [], "validation": []}
    for row, rid in zip(rows, ids):
        side = "train" if row[year] < cutoff else "validation" if row[year] < cutoff + 1 else None
        if side:
            split[side].append(([row[i] for i in keep], rid))
    names = [names[i] for i in keep]
    target = names.index(config["target_name"])
    pooled = [r for r, _ in split["train"] + split["validation"]]
    for j in range(len(names)):
        if j == target:
            continue
        column = [r[j] for r in pooled]
        mean = _mean(column)
        ssd = 0.0
        for v in column:
            ssd += (v - mean) * (v - mean)
        sd = math.sqrt(ssd / (len(column) - 1))
        for r in pooled:
            r[j] = (r[j] - mean) / sd
    y = [r[target] for r, _ in split["train"]]
    kept = [j for j in range(len(names)) if j == target or abs(
        _pearson([r[j] for r, _ in split["train"]], y)) >= config["correlation_threshold"]]
    out = {"kept": [names[j] for j in kept]}
    for side, pairs in split.items():
        out[side] = ([names[j] for j in kept], [[r[j] for j in kept] for r, _ in pairs],
                     [rid for _, rid in pairs])
    return out


def ranked(train_x, subject, skip=None):
    """All training rows as (squared distance, index), nearest first."""
    keyed = []
    for j, row in enumerate(train_x):
        if j == skip:
            continue
        total = 0.0
        for a, b in zip(subject, row):
            total += (a - b) * (a - b)
        keyed.append((total, j))
    keyed.sort()
    return keyed


def prefix_means(values):
    out, total = [], 0.0
    for k, v in enumerate(values, start=1):
        total += v
        out.append(total / k)
    return out


def naive_record(order, train_y, max_k, outlier_value, cutoff):
    """The adaptive prediction record for one subject's full ranking."""
    top = order[:max_k]
    targets = [train_y[j] for _, j in top]
    means = prefix_means(targets)
    triggered = outlier_value < cutoff
    return {
        "neighbors": [[j, math.sqrt(sq)] for sq, j in top],
        "cumulative_means": means,
        "min_of_means": min(means),
        "min_match": min(targets),
        "outlier_value": outlier_value,
        "outlier_triggered": triggered,
        "prediction": min(targets) if triggered else min(means),
    }


def knn_mean(order, train_y, k):
    total = 0.0
    for _, j in order[:k]:
        total += train_y[j]
    return total / k


def outlier_feature(report):
    """The outlier feature the program resolved, as named in its report."""
    return re.search(r"outlier=([^)]+)\)", report["model"]).group(1)


def features_and_target(table, target_name):
    names, rows, _ = table
    t = names.index(target_name)
    feats = [n for n in names if n != target_name]
    return feats, [[v for j, v in enumerate(r) if j != t] for r in rows], [r[t] for r in rows]


def mismatches(expected, actual, label):
    """A list naming the first differing element, empty when equal."""
    if expected == actual:
        return []
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        for i, (e, a) in enumerate(zip(expected, actual)):
            if e != a:
                return [f"{label}[{i}]: expected {e!r}, got {a!r}"]
    return [f"{label}: expected {str(expected)[:120]}, got {str(actual)[:120]}"]


def check_files_equal(expected_path, actual_path):
    if not os.path.exists(actual_path):
        return [f"{actual_path} was not written"]
    with open(expected_path, "rb") as a, open(actual_path, "rb") as b:
        if a.read() != b.read():
            return [f"{os.path.basename(actual_path)} differs from {expected_path}"]
    return []
