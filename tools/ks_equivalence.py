#!/usr/bin/env python3
"""Distributional equivalence of two replay formats, per cell and metric.

Reads two CSV files written by bench/replay_samples (columns cell, seed,
then one column per metric) from builds before and after a change to the
random draw stream, and for every (cell, metric) runs

  * a two-sample Kolmogorov-Smirnov test (asymptotic p-value with the
    Stephens small-sample correction), and
  * a Welch comparison of the means (z = |difference| / its standard error).

A cell fails when either test rejects at the Bonferroni-corrected level
alpha / (cells x metrics), alpha = 0.001 by default. Also reported: how many
mean differences fall outside a plain (uncorrected) 99% confidence
interval, which is expected to happen about once per hundred comparisons
even between identical distributions. Plain python3:

    tools/ks_equivalence.py before.csv after.csv [--alpha 0.001] [--markdown]

Exit status 0 when no cell rejects, 1 otherwise.
"""

import argparse
import collections
import csv
import math
import sys


def load(path):
    """{cell: {metric: [values]}} and the metric names, in file order."""
    data = collections.OrderedDict()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        metrics = [m for m in reader.fieldnames if m not in ("cell", "seed")]
        for row in reader:
            cell = data.setdefault(row["cell"],
                                   {m: [] for m in metrics})
            for m in metrics:
                cell[m].append(float(row[m]))
    return data, metrics


def ks_statistic(a, b):
    """Largest gap between the two empirical CDFs (ties handled)."""
    a, b = sorted(a), sorted(b)
    i = j = 0
    d = 0.0
    while i < len(a) and j < len(b):
        x = min(a[i], b[j])
        while i < len(a) and a[i] == x:
            i += 1
        while j < len(b) and b[j] == x:
            j += 1
        d = max(d, abs(i / len(a) - j / len(b)))
    return d


def ks_pvalue(d, n, m):
    """Asymptotic two-sample KS p-value (Numerical Recipes' probks)."""
    ne = n * m / (n + m)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if lam < 1e-3:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def mean_var(xs):
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1) if n > 1 else 0.0
    return mean, var


def z_critical(two_sided_alpha):
    """Normal quantile z with P(|Z| > z) = alpha, by bisection on erfc."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if math.erfc(mid / math.sqrt(2.0)) > two_sided_alpha:
            lo = mid
        else:
            hi = mid
    return hi


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--alpha", type=float, default=0.001)
    ap.add_argument("--markdown", action="store_true",
                    help="print the per-cell table as markdown")
    args = ap.parse_args()

    before, metrics = load(args.before)
    after, after_metrics = load(args.after)
    if metrics != after_metrics or list(before) != list(after):
        sys.exit("the two files differ in cells or metrics")

    tests = len(before) * len(metrics)
    per_test = args.alpha / tests
    z_bonf = z_critical(per_test)
    z_99 = z_critical(0.01)

    rows = []
    failures = []
    outside_99 = 0
    for cell in before:
        row = [cell]
        for m in metrics:
            a, b = before[cell][m], after[cell][m]
            d = ks_statistic(a, b)
            p = ks_pvalue(d, len(a), len(b))
            ma, va = mean_var(a)
            mb, vb = mean_var(b)
            se = math.sqrt(va / len(a) + vb / len(b))
            z = abs(ma - mb) / se if se > 0 else (0.0 if ma == mb else math.inf)
            if z > z_99:
                outside_99 += 1
            if p < per_test or z > z_bonf:
                failures.append(f"{cell} {m}: KS D={d:.4f} p={p:.3g},"
                                f" means {ma:.6g} vs {mb:.6g} (z={z:.2f})")
            row.append((d, p, ma, mb, z))
        rows.append(row)

    n = len(next(iter(before.values()))[metrics[0]])
    print(f"{len(before)} cells x {len(metrics)} metrics = {tests} tests,"
          f" {n} seeds per cell and format; Bonferroni per-test"
          f" alpha = {per_test:.3g} (|z| limit {z_bonf:.2f})")
    if args.markdown:
        print()
        header = "| cell | " + " | ".join(
            f"{m}: KS D / p | {m}: mean before → after (z)" for m in metrics)
        print(header + " |")
        print("|" + "---|" * (1 + 2 * len(metrics)))
        for row in rows:
            cells = [row[0]]
            for d, p, ma, mb, z in row[1:]:
                cells.append(f"{d:.3f} / {p:.2g}")
                cells.append(f"{ma:.4g} → {mb:.4g} ({z:.2f})")
            print("| " + " | ".join(cells) + " |")
        print()
    print(f"mean differences outside an uncorrected 99% CI: {outside_99}"
          f" of {tests}")
    if failures:
        print(f"{len(failures)} rejection(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("no cell rejects")


if __name__ == "__main__":
    main()
