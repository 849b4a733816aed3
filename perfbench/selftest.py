"""Fast self-test of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

For every workload and both ``--trace`` modes, ``run.py --scale tiny`` must
exit 0, pass its own checks, and end with a JSON line that holds exactly the
metrics BENCHMARK.json lists for that mode, each with its unit.  Then each
workload runs in-process with an iteration cap of 2, so no solve can meet
its tolerance, and its output checks must raise fail_rate above zero.
Exits 1 on the first broken expectation.
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAIL: {what}")
        sys.exit(1)
    print(f"selftest ok: {what}")


def check_printed_metrics(workload: str, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    _expect(done.returncode == 0, f"{workload} trace {trace} exits 0"
            + ("" if done.returncode == 0 else f": {done.stderr[-500:]}"))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{workload} trace {trace} result keys")
    _expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
            f"{workload} trace {trace} passes its checks")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    _expect(printed == wanted, f"{workload} trace {trace} prints every metric with its unit"
            f" (missing {sorted(set(wanted) - set(printed))},"
            f" extra {sorted(set(printed) - set(wanted))})")
    _expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
            f"{workload} trace {trace} values are numbers")
    human = done.stdout
    _expect("fail_rate" in human and "environment" in human,
            f"{workload} trace {trace} prints fail_rate and the environment")


def check_failures_counted(workload: str) -> None:
    import harness
    import workloads

    scale = dataclasses.replace(workloads.TINY[workload], max_iter=2)
    out_dir = HERE / "out" / "selftest" / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    record = harness.run(workload, 0, 0.2, False, scale, run.SRC, 0.0, out_dir)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        result = run.report(record, False)
    _expect(result["failed"] > 0 and not result["correct"],
            f"{workload} capped at 2 iterations: fail_rate "
            f"{result['failed']}/{result['attempted']} > 0")


def main() -> int:
    run.import_library()
    import workloads

    names = [w["name"] for w in SPEC["workloads"]]
    _expect(names == list(workloads.WORKLOADS), "BENCHMARK.json names the workloads")
    for workload in names:
        for trace in (0, 1):
            check_printed_metrics(workload, trace)
    for workload in names:
        check_failures_counted(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
