#!/usr/bin/env python3
"""Gate CI on benchmark regressions.

Compares a freshly produced BENCH_*.json report (see bench/bench_report.hpp
for the schema) against the committed baseline. A kernel regresses when its
ns_per_op exceeds baseline * threshold. Only kernels present in the baseline
are tracked, so adding new benchmarks never breaks the gate; a tracked
kernel that disappears from the current report fails it (a silently dropped
benchmark is itself a regression).

Named counters recorded in the baseline are gated too, in one of two ways:

* Simulation counters (every name ending in "_mean": depth, fidelity,
  reroutes, outage_downtime, ...) are deterministic functions of the seeds,
  so they must reproduce the baseline exactly. Any change, up or down, fails:
  a lower depth is as much a behaviour change as a higher one.
* Every other counter (the allocs_per_op counter of the steady-state
  DES/RunContext benches) fails only when it exceeds
  baseline * threshold + 0.01 (the absolute slack lets a zero baseline
  tolerate measurement jitter but not a real allocation sneaking back into
  the hot path).

Usage:
    check_bench_regression.py CURRENT.json [MORE.json ...] BASELINE.json
                              [--threshold 1.25]

Every report carries the simulator's replay format (dqcsim::kReplayFormat,
bumped whenever the RNG draw stream changes on purpose). When a current
report's format differs from the baseline's, the gate stops with one message:
every simulation counter is expected to move, and the baseline must be
re-pinned from a run of the new format.

Two relations between sweep cells are checked on the current reports, so a
re-pinned baseline must satisfy them too:

* on every chain swap-as-you-go pair, "salvage=on" has a strictly lower
  depth_mean than "salvage=off" (ablation_fault);
* for every star route count k, "star8/routes=k/shared" has a depth_mean at
  least that of "star8/routes=k/independent" (ablation_congestion).

Multiple current reports are merged before comparison, so one baseline file
can gate perf_micro micro-kernels and the smoke-run sweep sections of other
benches together. A baseline kernel may carry a "gate_threshold" field to
widen (or tighten) its own gate relative to --threshold.

Refreshing the baseline: download the bench-reports artifact from a trusted
run on main and commit it as ci/bench_baseline.json (see README).
"""

import argparse
import json
import sys


def load_report(path):
    """(kernels by name, replay format) of one report."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        sys.exit(f"{path}: unsupported schema_version "
                 f"{doc.get('schema_version') if isinstance(doc, dict) else doc!r}")
    replay_format = doc.get("replay_format")
    if not isinstance(replay_format, int) or isinstance(replay_format, bool):
        sys.exit(f"{path}: missing or non-integer replay_format")
    kernels = doc.get("kernels")
    if not isinstance(kernels, list):
        sys.exit(f"{path}: 'kernels' is not a list")
    out = {}
    for i, k in enumerate(kernels):
        if not isinstance(k, dict) or not isinstance(k.get("name"), str):
            sys.exit(f"{path}: kernels[{i}] has no usable 'name' field")
        out[k["name"]] = k
    return out, replay_format


def check_relations(current):
    """Failures of the documented relations between sweep cells."""

    def depth(name):
        counters = current.get(name, {}).get("counters")
        if not isinstance(counters, dict):
            return None
        return as_number(counters.get("depth_mean"))

    failures = []
    for name in sorted(current):
        if "/chain/" in name and name.endswith("/swapgo/salvage=on"):
            off_name = name[: -len("on")] + "off"
            on, off = depth(name), depth(off_name)
            if on is None or off is None:
                failures.append(f"relation: {name} or {off_name} has no"
                                " depth_mean")
            elif not on < off:
                failures.append(f"relation: {name} depth_mean {on!r} is not"
                                f" below {off_name} {off!r}")
        if name.startswith("star8/routes=") and name.endswith("/shared"):
            indep_name = name[: -len("shared")] + "independent"
            shared, indep = depth(name), depth(indep_name)
            if shared is None or indep is None:
                failures.append(f"relation: {name} or {indep_name} has no"
                                " depth_mean")
            elif not shared >= indep:
                failures.append(f"relation: {name} depth_mean {shared!r} is"
                                f" below {indep_name} {indep!r}")
    return failures


def as_number(value):
    """`value` as a float, or None for null / missing / non-numeric fields.

    A partially written or truncated report may carry nulls where numbers
    belong; those must become named failures, never tracebacks.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def is_exact_counter(name):
    """Deterministic simulation counters are pinned exactly, both ways."""
    return name.endswith("_mean")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current",
        nargs="+",
        help="one or more BENCH_*.json reports; kernels are merged",
    )
    parser.add_argument("baseline")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when current ns_per_op > baseline * threshold; a kernel"
        " may widen its own gate with a gate_threshold baseline field"
        " (wall-clock sweep sections are noisier than micro-kernels)",
    )
    args = parser.parse_args()

    current = {}
    formats = {}
    for path in args.current:
        kernels, replay_format = load_report(path)
        current.update(kernels)
        formats[path] = replay_format
    baseline, base_format = load_report(args.baseline)
    stale = {p: f for p, f in formats.items() if f != base_format}
    if stale:
        listed = ", ".join(f"{p} (format {f})" for p, f in sorted(stale.items()))
        sys.exit(f"replay format mismatch: baseline {args.baseline} is format"
                 f" {base_format}, but {listed}. The RNG draw stream changed,"
                 " so every simulation counter moves; re-pin the baseline from"
                 " a run of the new format instead of comparing counters.")

    failures = check_relations(current)
    rows = []
    for name, base in sorted(baseline.items()):
        base_ns = as_number(base.get("ns_per_op"))
        threshold = args.threshold
        if "gate_threshold" in base:
            threshold = as_number(base.get("gate_threshold"))
            if threshold is None or threshold <= 0.0:
                failures.append(
                    f"{name}: gate_threshold is not a positive number in baseline"
                )
                rows.append((name, base_ns, None, None, "BAD BASELINE"))
                continue
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: tracked kernel missing from current report")
            rows.append((name, base_ns, None, None, "MISSING"))
            continue
        cur_ns = as_number(cur.get("ns_per_op"))
        if cur_ns is None:
            failures.append(
                f"{name}: ns_per_op missing or null in current report"
            )
            rows.append((name, base_ns, None, None, "BAD CURRENT"))
            continue
        if base_ns is None:
            failures.append(
                f"{name}: ns_per_op missing or null in baseline"
            )
            rows.append((name, None, cur_ns, None, "BAD BASELINE"))
            continue
        if base_ns <= 0.0:
            ratio = None
            verdict = "SKIP (no baseline time)"
        else:
            ratio = cur_ns / base_ns
            verdict = "ok"
            if ratio > threshold:
                verdict = f"REGRESSION (> {threshold:.2f}x)"
                failures.append(
                    f"{name}: {base_ns:.1f} -> {cur_ns:.1f} ns/op ({ratio:.2f}x)"
                )
        base_counters = base.get("counters")
        if base_counters is None:
            base_counters = {}
        if not isinstance(base_counters, dict):
            failures.append(f"{name}: counters is not an object in baseline")
            rows.append((name, base_ns, cur_ns, ratio, "BAD BASELINE"))
            continue
        cur_counters = cur.get("counters")
        if not isinstance(cur_counters, dict):
            cur_counters = {}
        for counter, base_raw in base_counters.items():
            base_val = as_number(base_raw)
            if base_val is None:
                failures.append(
                    f"{name}: counter {counter} missing or null in baseline"
                )
                verdict = "BAD BASELINE"
                continue
            cur_val = as_number(cur_counters.get(counter))
            if cur_val is None:
                failures.append(
                    f"{name}: counter {counter} missing or null in current report"
                )
                verdict = "COUNTER MISSING"
                continue
            if is_exact_counter(counter):
                if cur_val != base_val:
                    failures.append(
                        f"{name}: counter {counter} {base_val!r} -> {cur_val!r}"
                        " (must match exactly)"
                    )
                    verdict = f"COUNTER CHANGED ({counter})"
                continue
            limit = base_val * threshold + 0.01
            if cur_val > limit:
                failures.append(
                    f"{name}: counter {counter} {base_val:.3g} -> {cur_val:.3g}"
                    f" (limit {limit:.3g})"
                )
                verdict = f"COUNTER REGRESSION ({counter})"
        rows.append((name, base_ns, cur_ns, ratio, verdict))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'kernel':<{width}}  {'baseline':>12}  {'current':>12}  {'ratio':>6}  verdict")
    for name, base_ns, cur_ns, ratio, verdict in rows:
        base_s = f"{base_ns:12.1f}" if base_ns is not None else f"{'-':>12}"
        cur_s = f"{cur_ns:12.1f}" if cur_ns is not None else f"{'-':>12}"
        ratio_s = f"{ratio:6.2f}" if ratio is not None else f"{'-':>6}"
        print(f"{name:<{width}}  {base_s}  {cur_s}  {ratio_s}  {verdict}")

    untracked = sorted(set(current) - set(baseline))
    if untracked:
        print(f"\nuntracked kernels (not gated): {', '.join(untracked)}")

    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nall {sum(1 for r in rows if r[4] == 'ok')} tracked kernels within "
          f"{args.threshold:.2f}x of baseline")


if __name__ == "__main__":
    main()
