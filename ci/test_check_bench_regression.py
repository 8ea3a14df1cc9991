#!/usr/bin/env python3
"""Self-test for ci/check_bench_regression.py's counter gate.

Runs the gate on small synthetic reports and asserts that simulation
counters ("*_mean") are pinned exactly in both directions while
allocs_per_op keeps its one-sided slack, that a replay-format mismatch
fails with one message, and that each documented relation between sweep
cells fails when violated. Plain python3, no dependencies:

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


SALVAGE = "QAOA-r8-32/chain/nodes=8/mtbf=400/swapgo/salvage="
STAR = "star8/routes=4/"
FIG5 = "fig5/QFT-32/"


def report(counters, replay_format=1, cells=None):
    kernels = [{"name": "BM_Cell", "ns_per_op": 100.0, "counters": counters}]
    for name, depth in (cells or {}).items():
        kernels.append({"name": name, "ns_per_op": 100.0,
                        "counters": {"depth_mean": depth}})
    return {
        "schema_version": 1,
        "replay_format": replay_format,
        "report": "selftest",
        "kernels": kernels,
    }


def run_gate(tmp, counters, replay_format=1, cells=None):
    """Gate a current report against a baseline that holds BASE_COUNTERS
    and the same relation cells (so only the relations can fail)."""
    base_path = os.path.join(tmp, "baseline.json")
    cur_path = os.path.join(tmp, "current.json")
    with open(base_path, "w") as f:
        json.dump(report(BASE_COUNTERS, 1, cells), f)
    with open(cur_path, "w") as f:
        json.dump(report(counters, replay_format, cells), f)
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

        # A report of another replay format fails once, before any counter
        # is compared (every *_mean would differ under a new draw stream).
        moved = dict(BASE_COUNTERS)
        moved["depth_mean"] = 2048.0
        code, err = run_gate(tmp, moved, replay_format=2)
        assert code == 1, "a replay-format mismatch must fail"
        assert "replay format mismatch" in err, err
        assert "depth_mean" not in err, err

        ok_cells = {SALVAGE + "off": 900.0, SALVAGE + "on": 500.0,
                    STAR + "independent": 120.0, STAR + "shared": 120.0,
                    FIG5 + "original": 900.0, FIG5 + "sync_buf": 300.0,
                    FIG5 + "async_buf": 250.0, FIG5 + "init_buf": 200.0}
        code, err = run_gate(tmp, dict(BASE_COUNTERS), cells=ok_cells)
        assert code == 0, f"relations that hold must pass:\n{err}"

        salvage_tie = dict(ok_cells)
        salvage_tie[SALVAGE + "on"] = 900.0   # not strictly below off
        code, err = run_gate(tmp, dict(BASE_COUNTERS), cells=salvage_tie)
        assert code == 1 and "salvage=on depth_mean" in err, err

        shared_faster = dict(ok_cells)
        shared_faster[STAR + "shared"] = 119.0  # below independent
        code, err = run_gate(tmp, dict(BASE_COUNTERS), cells=shared_faster)
        assert code == 1 and "routes=4/shared depth_mean" in err, err

        # Each adjacent pair of the Fig. 5 design order fails on its own.
        for shallower, deeper in (("sync_buf", "original"),
                                  ("async_buf", "sync_buf"),
                                  ("init_buf", "async_buf")):
            swapped = dict(ok_cells)
            swapped[FIG5 + shallower] = ok_cells[FIG5 + deeper]  # a tie
            code, err = run_gate(tmp, dict(BASE_COUNTERS), cells=swapped)
            assert code == 1, f"{shallower} tied with {deeper} must fail"
            assert f"{FIG5 + shallower} depth_mean" in err, err

        no_init = dict(ok_cells)
        del no_init[FIG5 + "init_buf"]
        code, err = run_gate(tmp, dict(BASE_COUNTERS), cells=no_init)
        assert code == 1 and "has no depth_mean" in err, err

    print("check_bench_regression self-test: ok")


if __name__ == "__main__":
    main()
