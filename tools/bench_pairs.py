"""Compare this working tree against a parent commit on the benchmark and
write a ``BENCH_*.json``.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json \\
        --change "what the change does" --claim WORKLOAD:METRIC \\
        --plan WORKLOAD:PAIRS:FIRST_SEED [--plan ...] [--note TEXT ...]

Run from the root of a git checkout.  Two fresh directories are made under
``--workdir``: ``parent`` holds ``git archive REV`` and ``change`` a copy of
the working tree's ``src/``, ``perfbench/`` and ``BENCHMARK.json``.  For each
``--plan`` entry, pair p runs ``perfbench/run.py --workload W --seed
FIRST_SEED+p --seconds S --trace 0`` once on each side, the parent first on
even pairs and the change first on odd ones.  Then each workload gets one
traced run per side (``--seed 0 --seconds 1 --trace 1``).

Per end-to-end metric of ``BENCHMARK.json`` the file records each side's
runs, median, quartiles (``numpy.percentile`` 25/75, linear) and range; the
wins per pair; whether the median gap in the better direction exceeds the
parent's interquartile range; ``within_bound``, that the change's median is
worse than the parent's by at most the metric's relative bound; ``gain_met``,
the rule a claimed gain must meet (at least 10 pairs, the change wins at
least 9 in 10 of them, ties counting for neither side, and the median gap
exceeds the parent's interquartile range); and ``unresolved``, that the
parent's own spread (interquartile range over median) exceeds the bound, so
the runs cannot tell a worsening of that size, unless every change run beats
every parent run.  Each run's ``ifft256 calibration median`` line (the
machine's speed state while it ran) is recorded per side in pair order under
``ifft256_us``, so a phase of the machine can be told from an effect of the
code.  The traced per-layer metrics of both sides go under the set's
``traced_counts``; the top-level ``traced_counts`` holds each workload's
latest traced pair.

One invocation is one *set* of pairs, recorded with its command line and
seed order.  When ``--out`` already holds a comparison against the same
parent commit, the new set is appended to it and ``--note`` lines are added
to its notes, so a file is rebuilt by rerunning its sets' invocations in
order.  The file is rewritten after every pair, so an interrupted comparison
keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SIDES = ("parent", "change")
CHANGE_PATHS = ("src", "perfbench", "BENCHMARK.json")
# a claimed gain needs at least this many pairs, 9 in 10 of them won
CLAIM_MIN_PAIRS = 10


def prepare(workdir: Path, rev: str) -> dict[str, Path]:
    """Export the parent commit and copy the working tree, each into a new
    directory."""
    dirs = {side: workdir / side for side in SIDES}
    for d in dirs.values():
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dirs["parent"])], input=archive, check=True)
    for name in CHANGE_PATHS:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dirs["change"] / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dirs["change"] / name)
    return dirs


def bench(side_dir: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` call: its metric values, verdict and exit codes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side_dir, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"run.py printed nothing (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), {})
    exits = sorted({int(m) for m in re.findall(r"^study seed \d+ exit (-?\d+)",
                                                proc.stdout, re.M)})
    calibration = re.search(r"ifft256 calibration median (\S+) us", proc.stdout)
    return {"correct": bool(last["correct"]), "exit_codes": exits, "machine": machine,
            "ifft256_us": float(calibration.group(1)) if calibration else None,
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def side_stats(runs: list[float]) -> dict:
    q1, q3 = (float(np.percentile(runs, q)) for q in (25, 75))
    return {"median": float(np.median(runs)), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(runs), "max": max(runs), "n": len(runs), "runs": runs}


def compare(pairs: list[dict], better: str, bound: float) -> dict:
    """Statistics of one metric over the pairs ``{"parent": x, "change": y}``."""
    sign = 1.0 if better == "lower" else -1.0
    out = {"better": better, "bound": bound}
    for side in SIDES:
        out[side] = side_stats([p[side] for p in pairs])
    par, chg = out["parent"]["median"], out["change"]["median"]
    gain = sign * (par - chg)            # > 0 when the change is better
    wins = {"change": 0, "parent": 0, "tie": 0}
    for p in pairs:
        d = sign * (p["parent"] - p["change"])
        wins["change" if d > 0 else "parent" if d < 0 else "tie"] += 1
    out["median_rel_change"] = (chg - par) / par if par else 0.0
    out["wins"] = wins
    out["median_gap_exceeds_parent_iqr"] = gain > out["parent"]["iqr"]
    out["within_bound"] = -gain <= bound * abs(par)
    n = len(pairs)
    out["gain_met"] = (n >= CLAIM_MIN_PAIRS and 10 * wins["change"] >= 9 * n
                       and out["median_gap_exceeds_parent_iqr"])
    separated = all(sign * (p - c) > 0 for p in out["parent"]["runs"]
                    for c in out["change"]["runs"])
    out["unresolved"] = out["parent"]["iqr"] > bound * abs(par) and not separated
    return out


def invocation_args() -> list[str]:
    """This run's arguments without ``--workdir``, which only says where the
    two copies go."""
    args, skip = [], False
    for a in sys.argv[1:]:
        if skip:
            skip = False
        elif a == "--workdir":
            skip = True
        elif not a.startswith("--workdir="):
            args.append(a)
    return args


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--change", required=True, help="one line on what changed")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--plan", action="append", required=True,
                        help="WORKLOAD:PAIRS:FIRST_SEED, in the order to run")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    plan = [(w, int(n), int(s)) for w, n, s in (p.split(":") for p in args.plan)]
    parent_commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if doc["parent_commit"] != parent_commit:
            raise SystemExit(f"{args.out} compares against {doc['parent_commit']}, "
                             f"not {parent_commit}")
        doc["change"] = args.change
        doc["notes"] += args.note
    else:
        doc = {
            "change": args.change,
            "parent_commit": parent_commit,
            "method": {
                "command": "python3 perfbench/run.py --workload W --seed S "
                           f"--seconds {args.seconds:g} --trace 0",
                "sides": "parent = git archive of the parent commit, change = a copy of "
                         "this tree's src/, perfbench/ and BENCHMARK.json",
                "order": "each set's order names the workload seeds of its pairs; within "
                         "a pair the parent runs first on even pairs and the change "
                         "first on odd pairs",
                "quartiles": "numpy.percentile 25/75 (linear interpolation) over the "
                             "runs of one side",
                "wins": "per pair, the side with the better run-level metric",
                "within_bound": "relative worsening of the change's median against "
                                "the parent's median is at most the BENCHMARK.json bound",
                "gain_met": "at least 10 pairs, the change wins at least 9 in 10 of "
                            "them (ties count for neither side), and "
                            "median_gap_exceeds_parent_iqr",
                "unresolved": "the parent's interquartile range over its median "
                              "exceeds the bound, and some change run does not beat "
                              "every parent run",
                "traced_counts": "python3 perfbench/run.py --workload W --seed 0 "
                                 "--seconds 1 --trace 1 on each side, once per workload "
                                 "of a set; self times are from one traced call and "
                                 "carry its noise",
            },
            "notes": args.note,
            "machine": {},
            "sets": [],
            "traced_counts": {},
        }
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claimed"] = {"metric": metric, "workload": workload,
                          "rule": "change wins >= 9 of >= 10 alternating pairs and the "
                                  "median gap exceeds the parent's interquartile range "
                                  "(gain_met)"}
    this = {
        "name": f"set{len(doc['sets']) + 1}",
        "invocation": shlex.join(["python3", "tools/bench_pairs.py", *invocation_args()]),
        "order": "; ".join(f"{w}: pair p uses workload seed {s}+p ({n} pairs)"
                           for w, n, s in plan),
        "seconds": args.seconds,
        "workloads": {},
        "traced_counts": {},
    }
    doc["sets"].append(this)
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    dirs = prepare(workdir, parent_commit)

    def write():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for workload, n_pairs, first_seed in plan:
        pairs, verdicts = [], {side: [] for side in SIDES}
        for p in range(n_pairs):
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            res = {side: bench(dirs[side], workload, first_seed + p, args.seconds, 0)
                   for side in order}
            doc["machine"] = {k: res["change"]["machine"].get(k)
                              for k in ("nproc", "cpu", "python", "numpy")}
            for side in SIDES:
                verdicts[side].append(res[side])
            pairs.append({side: res[side]["metrics"] for side in SIDES})
            runs = [r for side in SIDES for r in verdicts[side]]
            this["workloads"][workload] = {
                "correct_every_run": all(r["correct"] for r in runs),
                "exit_codes": sorted({c for r in runs for c in r["exit_codes"]}),
                "ifft256_us": {side: [r["ifft256_us"] for r in verdicts[side]]
                               for side in SIDES},
                "metrics": {name: compare([{s: pr[s][name] for s in SIDES} for pr in pairs],
                                          m["better"], m["bound"])
                            for name, m in metrics.items()},
            }
            write()
            print(f"{workload} pair {p}: " + ", ".join(
                f"{s} wall_s {pairs[-1][s]['wall_s']:.3f}" for s in SIDES), flush=True)
    for workload, _, _ in plan:
        traced = {}
        for side in SIDES:
            res = bench(dirs[side], workload, 0, 1.0, 1)
            traced[side] = {"correct": res["correct"], "seed": 0,
                            "ifft256_us": res["ifft256_us"], **res["metrics"]}
        this["traced_counts"][workload] = doc["traced_counts"][workload] = traced
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
