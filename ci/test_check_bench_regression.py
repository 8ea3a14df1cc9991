#!/usr/bin/env python3
"""Self-test for ci/check_bench_regression.py's counter gate.

Runs the gate on small synthetic reports and asserts that simulation
counters ("*_mean") are pinned exactly in both directions while
allocs_per_op keeps its one-sided slack. Plain python3, no dependencies:

    python3 ci/test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")

BASE_COUNTERS = {
    "depth_mean": 1024.5,
    "fidelity_mean": 0.8125,
    "reroutes_mean": 3.0,
    "allocs_per_op": 0.0,
}


def report(counters):
    return {
        "schema_version": 1,
        "report": "selftest",
        "kernels": [{"name": "BM_Cell", "ns_per_op": 100.0,
                     "counters": counters}],
    }


def run_gate(tmp, counters):
    base_path = os.path.join(tmp, "baseline.json")
    cur_path = os.path.join(tmp, "current.json")
    with open(base_path, "w") as f:
        json.dump(report(BASE_COUNTERS), f)
    with open(cur_path, "w") as f:
        json.dump(report(counters), f)
    proc = subprocess.run([sys.executable, SCRIPT, cur_path, base_path],
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def main():
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_gate(tmp, dict(BASE_COUNTERS))
        assert code == 0, f"identical report must pass:\n{err}"

        changed = dict(BASE_COUNTERS)
        changed["depth_mean"] = 1025.0     # raised
        changed["fidelity_mean"] = 0.8     # lowered
        code, err = run_gate(tmp, changed)
        assert code == 1, "raised and lowered *_mean counters must fail"
        assert "depth_mean" in err, err
        assert "fidelity_mean" in err, err
        assert "reroutes_mean" not in err, err
        assert "2 benchmark regression(s)" in err, err

        for counter, value in (("depth_mean", 1024.0),
                               ("reroutes_mean", 3.0000000001)):
            one = dict(BASE_COUNTERS)
            one[counter] = value
            code, err = run_gate(tmp, one)
            assert code == 1, f"{counter}={value!r} must fail"
            assert counter in err, err

        slack = dict(BASE_COUNTERS)
        slack["allocs_per_op"] = 0.005     # inside the one-sided slack
        code, err = run_gate(tmp, slack)
        assert code == 0, f"allocs_per_op within slack must pass:\n{err}"

        over = dict(BASE_COUNTERS)
        over["allocs_per_op"] = 1.0
        code, err = run_gate(tmp, over)
        assert code == 1 and "allocs_per_op" in err, err

    print("check_bench_regression self-test: ok")


if __name__ == "__main__":
    main()
