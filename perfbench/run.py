"""ccflab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src`` is put on the path of the
study processes, nothing is installed.  Each study call runs in a fresh
interpreter (``child.py``), so every call pays what one CLI run pays and
memory peaks do not carry over.  A run makes at least two calls and starts
no call that it expects to end after ``--seconds``.

``--trace 0`` prints the end-to-end metrics: median study wall time, median
import time of ``ccflab.cli`` (``setup_s``), median peak RSS and the share of
operations that succeeded.  ``--trace 1`` alternates untraced and traced
calls and prints the per-layer metrics of the traced ones, the tracing
overhead and the machine's speed calibration.  Human-readable lines come
first; the last line of stdout is one JSON object.  The exit code is 1 when a
correctness check fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0      # every run ends well inside the 180 s a run may take
SEED_STRIDE = 64          # study seeds reserved per workload seed


def study_seed(seed: int, call: int) -> int:
    """Study seed of untraced call ``call`` of a run with workload seed ``seed``.

    Each untraced call gets its own noise realization, so ``wall_s`` is a
    median over realizations rather than the cost of one: the adaptive
    halving of ``blowup_linear`` takes 7,646 to 11,488 ``em_step`` calls
    across seeds 101-110.  Steps of 2, because path i of study seed s runs
    on seed ``s XOR i`` and s, s+1 would share their two paths.
    """
    return SEED_STRIDE * seed + 2 * (call % (SEED_STRIDE // 2))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_study(argv: list[str], trace: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the same in every environment: ccflab is compiled from source at each
    # import (about 0.06 s of setup_s) and nothing is written to the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           str(HERE / "child.py"), json.dumps(argv), "1" if trace else "0"]
    timeout = deadline - time.monotonic()
    if timeout <= 0.0:
        raise BenchError("time limit reached before the first study call")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"study call exceeded the {TIME_LIMIT_S:g} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"study process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    rec = json.loads(lines[-1])
    if trace:
        rec["times"]["setup.import_scipy_stats_s"] = scipy_stats_import_s(proc.stderr)
    return rec


def scipy_stats_import_s(importtime_log: str) -> float:
    """Cumulative import time of ``scipy.stats`` from ``-X importtime`` output
    (0 when the study never imported it)."""
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*scipy\.stats\s*$", line)
        if m:
            return int(m.group(1)) * 1e-6
    return 0.0


def machine_facts(versions: dict) -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""
    model = re.search(r"^model name\s*:\s*(.+)$", read("/proc/cpuinfo"), re.M)
    llc = read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    return {"nproc": os.cpu_count(), "cpu": model.group(1) if model else "unknown",
            "llc": llc or "unknown", "python": platform.python_version(), **versions}


def check(workload, rec) -> tuple[int, int, list[str]]:
    """Operations attempted and failed in one call: its paths plus its verdict."""
    paths, failed, problems = workload.check(rec)
    if rec["rc"] not in workload.verdicts:
        problems.append(f"exit code {rec['rc']}, expected one of {workload.verdicts}")
    return paths + 1, failed + bool(problems), problems


def summarize_layers(traced: list[dict], problems: list[str]) -> dict:
    """Counts from the first traced call (they must repeat exactly), times as
    medians over the traced calls."""
    counts = traced[0]["counts"]
    for rec in traced[1:]:
        moved = sorted(k for k in counts if rec["counts"][k] != counts[k])
        if moved:
            problems.append(f"count metrics differ between traced calls: {moved}")
    times = {k: statistics.median(r["times"][k] for r in traced) for k in traced[0]["times"]}
    return {**counts, **times}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ccflab" / "cli.py").is_file():
        raise BenchError(f"no ccflab sources under {ROOT / 'src'}")
    if args.seed < 0:
        raise BenchError("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S

    # traced runs keep one study seed, so counts and outputs must repeat
    records: list[tuple[bool, dict]] = []
    start = time.monotonic()
    while True:
        is_traced = bool(args.trace) and len(records) % 2 == 1
        seed = study_seed(args.seed, 0 if args.trace else len(records))
        rec = run_study([*workload.argv, "--seed", str(seed)], is_traced, deadline)
        rec["seed"] = seed
        records.append((is_traced, rec))
        elapsed = time.monotonic() - start
        # at least two calls; start no call that would end after --seconds;
        # traced runs end on an untraced/traced pair
        if len(records) >= 2 and elapsed + elapsed / len(records) > args.seconds \
                and not (args.trace and len(records) % 2):
            break

    attempted = failed = 0
    problems: list[str] = []
    for _, rec in records:
        a, f, p = check(workload, rec)
        attempted, failed = attempted + a, failed + f
        problems += p
    outputs: dict[int, set[str]] = {}
    for _, rec in records:
        outputs.setdefault(rec["seed"], set()).add(rec["stdout"])
    if any(len(texts) > 1 for texts in outputs.values()):
        problems.append("study output differs between calls with the same seed")
    plain = [rec for is_traced, rec in records if not is_traced]
    traced = [rec for is_traced, rec in records if is_traced]
    calibration = [us for _, rec in records for us in rec["ifft256_us"]]

    print(f"workload {workload.name}: {workload.why}")
    print(f"argv: ccflab {' '.join(workload.argv)} --seed <study seed>")
    print("machine:", json.dumps(machine_facts(records[0][1]["versions"])))
    for is_traced, rec in records:
        if not is_traced:
            print(f"study seed {rec['seed']} exit {rec['rc']}, last line: "
                  f"{rec['stdout'].strip().splitlines()[-1]}")
    for is_traced, rec in records:
        print(f"  {'traced' if is_traced else 'plain '} seed={rec['seed']} rc={rec['rc']} "
              f"wall_s={rec['wall_s']:.4f} import_s={rec['import_s']:.4f} "
              f"peak_rss_mib={rec['peak_rss_mib']:.1f} ifft256_us="
              + "/".join(f"{us:.2f}" for us in rec["ifft256_us"]))
    print(f"calls: {len(plain)} plain, {len(traced)} traced; "
          f"ifft256 calibration median {statistics.median(calibration):.2f} us "
          f"(min {min(calibration):.2f}, max {max(calibration):.2f})")

    if args.trace:
        layers = summarize_layers(traced, problems)
        layers["setup.import_ccflab_s"] = statistics.median(r["import_s"] for r in plain)
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] \
            - statistics.median(r["wall_s"] for r in plain)
        layers["machine.ifft256_us"] = statistics.median(calibration)
        metrics = {k: (v, unit_of(k)) for k, v in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": (statistics.median(r["import_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    for problem in problems:
        print("CHECK FAILED:", problem)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    for suffix, unit in ((".ms_per_step", "ms/step"), (".mc_ns_per_sample", "ns"),
                         ("_us", "us"), ("_mib", "MiB"), (".bytes_computed", "B"),
                         ("_per_step", "calls/step"), ("_per_macro", "calls/step")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
