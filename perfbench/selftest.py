"""Self-tests of the benchmark harness, at tiny sizes (a few seconds in all).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that each workload runs end to end in both modes and reports exactly
the metrics BENCHMARK.json lists, that a tampered results.csv fails every cell
of its sweep, that a broken pathwise ordering fails its cell, and that a
stepped run disagreeing with ``simulate_runs`` is counted as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import run

run.load_chartbank()

import workloads  # noqa: E402  (needs chartbank on the path)

TINY_RUNS = 24
TINY_SECONDS = 0.01


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(
        workload, runs=TINY_RUNS, sub_block_runs=4, host_ref_steps=min(workload.host_ref_steps, 2)
    )


def check_workloads_run(spec: dict) -> list[str]:
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            res = run.run_workload(name, 3, TINY_SECONDS, bool(trace), {}, log=lambda _msg: None)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = set(res["metrics"])
            if want - got:
                problems.append(f"{name} trace={trace}: missing {sorted(want - got)}")
            if res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {res['failed']}/{res['attempted']} failed")
            if trace and res["metrics"].get("simulate.row_steps", 0) < res["metrics"].get("simulate.useful_row_steps", 1):
                problems.append(f"{name}: fewer executed than useful row-steps")
    return problems


def check_tampered_csv() -> list[str]:
    workload = tiny("fig4-bank")
    out_dir = run.OUT_ROOT / "selftest-tamper"
    try:
        result = workloads.run_sweep(workload, 5, out_dir)
        pinned = result.csv_sha256
        problems = []
        if workloads.check_sweep(workload, result, out_dir, pinned):
            problems.append("untouched sweep failed its own hash")
        csv_path = out_dir / "results.csv"
        lines = csv_path.read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        # first row is sr-grid1 at the first alpha; push its add_hat past max-grid1's
        partner = next(r for r in rows if r[0] == rows[0][0] and r[2] == "max-grid1")
        rows[0][4] = repr(float(partner[4]) + 1.0)
        csv_path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")
        tampered = dataclasses.replace(result, csv_sha256=hashlib.sha256(csv_path.read_bytes()).hexdigest())
        if workloads.check_sweep(workload, tampered, out_dir, pinned) != set(range(workload.cells)):
            problems.append("tampered results.csv did not fail every cell")
        # without a pinned hash the paired ordering still catches it
        if 0 not in workloads.check_sweep(workload, tampered, out_dir, None):
            problems.append("sr add_hat above max add_hat was not counted as failed")
        return problems
    finally:
        workloads.clear(out_dir)


def check_stepping_mismatch() -> list[str]:
    problems = []
    for name in run.WORKLOAD_NAMES:
        setup = workloads.step_setup(workloads.WORKLOADS[name], 4)
        stepped = workloads.StepResult()
        workloads.run_stepping(setup, range(6), 4, stepped)
        if workloads.check_stepping(setup, stepped.outcomes, 4) != 0:
            problems.append(f"{name}: stepped runs disagree with simulate_runs")
        stop, chart = stepped.outcomes[2]
        broken = list(stepped.outcomes)
        broken[2] = (stop + 1, chart)
        if workloads.check_stepping(setup, broken, 4) != 1:
            problems.append(f"{name}: a wrong stop slot was not counted as failed")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    saved = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update({name: tiny(name) for name in saved})
    try:
        checks = {
            "workloads run at tiny size": check_workloads_run(spec),
            "tampered results.csv fails": check_tampered_csv(),
            "stepped-vs-batch mismatch fails": check_stepping_mismatch(),
        }
    finally:
        workloads.WORKLOADS.update(saved)
    ok = True
    for label, problems in checks.items():
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for p in problems:
            print(f"     {p}")
        ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
