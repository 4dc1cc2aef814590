#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark between two git revisions.

    python3 tools/ab_pairs.py PARENT CHANGE --workload act [--workload thm46] \\
        [--pairs 10] --out BENCH_N.json

PARENT and CHANGE are any git tree-ish (a commit, a branch, or a tree id
such as ``git write-tree`` prints for a staged working tree).  Each one
is exported with ``git archive`` into its own temporary directory, so
both sides run from clean trees that hold only committed files.  The
parent's BENCHMARK.json sets the command and the run length: for each
workload, pair N (N = 1..pairs) runs

    COMMAND --workload W --seed N --seconds RUN_SECONDS

(python3 perfbench/run.py and 42 at the time of writing) once in each
tree, the parent first when N is odd and the change first when N is
even, so that a drift of the machine does not favour one side.  Each
side is recorded with its tree and its src tree, so a record made from
a commit can be matched to the code of another that differs only
outside src.

The output file holds every run's last output line (the benchmark's JSON
result), the act responses' SHA-256 where the run prints one, and per
workload and metric each side's median and quartiles, the number of
pairs in which the change was lower, whether that makes a gain by the
rule below, and each side's share of failed operations.  Every metric
the benchmark gates is better when lower; one whose change median
exceeds the parent's by more than its BENCHMARK.json bound, a fraction
of the parent's median, is marked, and ``worse_than_bound`` lists all
such metrics.  ``unresolved`` lists each gated metric whose parent or
change runs spread, between their quartiles, by more than that bound of
the parent's median, unless every change run is below every parent run:
on such a metric the pairs cannot tell the sides apart.  A gain needs the change lower in at least 9 of 10 pairs
(a tie is no win) and its median below the parent's by more than the
parent's interquartile distance.

Beside the wall-time pairs, each side and workload gets one exact count of
work: the calls cProfile counts over one cold pass (seed 1) in a fresh
interpreter with PYTHONHASHSEED=0, the pass that perfbench/child.py times,
to functions defined under src (the harness keeps its slowest samples in a
heap, so its own calls follow the timings).  The summary shows it as parent
-> change under "total_calls"; it gates nothing.  The same pass sums, through
gc.callbacks, the objects the cyclic collector found, shown as parent -> change
under "gc_collected"; it gates nothing either.  After the pass it reads the
misses and the final currsize of each lru_cache that fock_lattice defines, the
cost and the hold of the vertex kernel's memos, shown per memo as parent ->
change under "cache"; they gate nothing.  Each side also records
under "src_lines" the lines of src/supertoroidal/*.py in its export, the count
the design gate reads (wc -l), printed as parent -> change beside the calls,
and under "src_lines_by_file" the count of each of those files; the files whose
count changed are printed below the total.  Neither gates anything.  Run it
from inside the repository; it needs only the standard library and git.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

_SHA = re.compile(r"responses sha256 ([0-9a-f]{64})")

# run in a side's tree with the workload as its argument: one cold pass under cProfile
_PROFILE = """
import cProfile, gc, json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import child, run
from supertoroidal import fock_lattice
workload = sys.argv[1]
collected = []
def count(phase, info):
    if phase == "stop":
        collected.append(info["collected"])
with tempfile.TemporaryDirectory() as tmp:
    if workload == "act":
        inputs = os.path.join(tmp, "act.txt")
        child.write_act_inputs({"seed": 1, "batches": run.ACT_BATCHES, "inputs": inputs})
        runner, job = child.run_act, {"inputs": inputs}
    else:
        runner, job = child.run_checks, {"workload": workload, "seed": 1}
    profile = cProfile.Profile()
    gc.callbacks.append(count)
    profile.runcall(runner, job)
    gc.callbacks.remove(count)
library = os.path.abspath("src") + os.sep
# per code object, since pstats merges the code objects of one line (two comprehensions)
calls = sum(entry.callcount for entry in profile.getstats() if not isinstance(entry.code, str)
            and os.path.abspath(entry.code.co_filename).startswith(library))
cache = {name: {"misses": memo.cache_info().misses, "currsize": memo.cache_info().currsize}
         for name, memo in vars(fock_lattice).items()
         if hasattr(memo, "cache_info") and memo.__module__ == fock_lattice.__name__}
print(json.dumps({"total_calls": calls, "gc_collected": sum(collected), "cache": cache}))
"""
# the exact counts of that pass, and what it reads of each memo
_COUNTS = ("total_calls", "gc_collected")
_CACHE_FIELDS = ("misses", "currsize")


def summarize(runs: list, bounds=None) -> dict:
    """Per "workload.metric": each side's median and inclusive quartiles (rounded to 4
    places), the number of pairs, the pairs in which the change read lower,
    "gain_rule_met" and each side's "failed_share".

    runs holds dicts with "workload", "seed", "side" ("parent" or "change"),
    "metrics" ({name: value}) and "last_line" (the benchmark's JSON result, or None
    when the run printed none); a pair is the two runs of one (workload, seed).
    "gain_rule_met" holds when the change is lower in at least 9/10 of the pairs and
    its median is below the parent's by more than the parent's interquartile
    distance.  "failed_share" is failed / attempted over a side's last lines of the
    workload, a run without a last line counting as one failed operation.
    bounds maps a gated metric, better when lower, to its bound: its summary also
    holds that bound, "worse_than_bound", whether the change's median exceeds the
    parent's by more than the bound times the parent's median, and "unresolved",
    whether either side's interquartile distance exceeds that same amount while some
    change run is not below every parent run.
    """
    bounds = bounds or {}
    values = {}
    counts = {}  # (workload, side) -> [failed, attempted]
    for run in runs:
        last = run["last_line"] or {"attempted": 1, "failed": 1}
        count = counts.setdefault((run["workload"], run["side"]), [0, 0])
        count[0] += last.get("failed", 0)
        count[1] += last.get("attempted", 0)
        for name, value in run["metrics"].items():
            cell = values.setdefault((run["workload"], name), {})
            cell.setdefault(run["seed"], {})[run["side"]] = value
    shares = {key: failed / max(attempted, 1) for key, (failed, attempted) in counts.items()}
    summary = {}
    for (workload, name), by_seed in values.items():
        pairs = [v for v in by_seed.values() if "parent" in v and "change" in v]
        if not pairs:
            continue
        parent = [v["parent"] for v in pairs]
        change = [v["change"] for v in pairs]
        wins = sum(v["change"] < v["parent"] for v in pairs)
        low, mid, high = _quartiles(parent)
        cell = summary[f"{workload}.{name}"] = {
            "parent_median": round(statistics.median(parent), 4),
            "parent_quartiles": [round(q, 4) for q in (low, mid, high)],
            "change_median": round(statistics.median(change), 4),
            "change_quartiles": [round(q, 4) for q in _quartiles(change)],
            "pairs": len(pairs),
            "change_lower_in_pairs": wins,
            "gain_rule_met": (10 * wins >= 9 * len(pairs)
                              and statistics.median(parent) - statistics.median(change)
                              > high - low),
            "failed_share": {side: shares.get((workload, side), 0.0)
                             for side in ("parent", "change")},
        }
        if name in bounds:
            limit = bounds[name] * statistics.median(parent)
            change_low, _, change_high = _quartiles(change)
            cell["bound"] = bounds[name]
            cell["worse_than_bound"] = statistics.median(change) - statistics.median(parent) > limit
            # the runs spread too widely to tell, unless every change run beat every parent run
            cell["unresolved"] = (max(high - low, change_high - change_low) > limit
                                  and max(change) >= min(parent))
    return summary


def summarize_calls(counts: dict) -> dict:
    """Per workload, the counts {(workload, side): int or None} (call counts or any other
    exact count) as {"parent": n, "change": m, "shown": "n -> m"}, a missing count shown
    as "?"."""
    out = {}
    for workload in dict.fromkeys(w for w, _ in counts):
        cell = {side: counts.get((workload, side)) for side in ("parent", "change")}
        cell["shown"] = " -> ".join("?" if n is None else f"{n:,}" for n in cell.values())
        out[workload] = cell
    return out


def summarize_passes(passes: dict) -> dict:
    """Per count of _COUNTS, summarize_calls of that count in passes
    {(workload, side): {count name: int or None}}."""
    return {name: summarize_calls({key: counts[name] for key, counts in passes.items()})
            for name in _COUNTS}


def summarize_caches(passes: dict) -> dict:
    """Per workload and memo, summarize_calls of each of _CACHE_FIELDS in passes
    {(workload, side): {"cache": {memo name: {field: int}} or None, ...}}, a memo
    missing on one side shown as "?"."""
    fields = {}  # workload -> memo -> field -> {(workload, side): int}
    for (workload, side), counts in passes.items():
        for memo, info in (counts.get("cache") or {}).items():
            for field in _CACHE_FIELDS:
                cell = fields.setdefault(workload, {}).setdefault(memo, {})
                cell.setdefault(field, {})[workload, side] = info[field]
    return {workload: {memo: {field: summarize_calls(counts)[workload]
                              for field, counts in cell.items()}
                       for memo, cell in memos.items()}
            for workload, memos in fields.items()}


def _cold_pass(tree: str, workload: str) -> dict:
    """{count name: int or None} of one cold pass of the workload in tree, the library
    calls cProfile counts and the objects the cyclic collector found, and under "cache"
    {memo name: {field: int}} of fock_lattice's memos after it, or None."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", _PROFILE, workload], cwd=tree, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        counts = json.loads(lines[-1]) if proc.returncode == 0 else {}
    except (IndexError, ValueError):
        counts = {}
    return {name: counts.get(name) for name in (*_COUNTS, "cache")}


def _src_lines(tree: str) -> dict:
    """{file name: newlines} of src/supertoroidal/*.py in tree, as wc -l counts them."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(tree, "src", "supertoroidal", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = fh.read().count("\n")
    return counts


def changed_lines(parent: dict, change: dict) -> dict:
    """{file name: "n -> m"} for each file whose line count differs between the
    by-file counts parent and change, a file missing on one side counting 0."""
    return {name: f"{parent.get(name, 0):,} -> {change.get(name, 0):,}"
            for name in sorted(parent.keys() | change.keys())
            if parent.get(name, 0) != change.get(name, 0)}


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, into: str):
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(into)


def _run(tree: str, command: list) -> dict:
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = None
    sha = _SHA.search(proc.stdout)
    return {"exit_code": proc.returncode, "last_line": last,
            "responses_sha256": sha.group(1) if sha else None,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:] if proc.returncode else []}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sides = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        sides[side] = {"rev": rev, "tree": _git("rev-parse", f"{rev}^{{tree}}"),
                       "src_tree": _git("rev-parse", f"{rev}:src")}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, info in sides.items():
            trees[side] = os.path.join(tmp, side)
            _export(info["rev"], trees[side])
            info["src_lines_by_file"] = _src_lines(trees[side])
            info["src_lines"] = sum(info["src_lines_by_file"].values())
        with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        command, seconds = bench["command"], bench["run_seconds"]
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        passes = {(workload, side): _cold_pass(trees[side], workload)
                  for workload in args.workload for side in sides}
        counted = summarize_passes(passes)
        for name, cells in counted.items():
            for workload, cell in cells.items():
                print(f"{workload} {name} {cell['shown']}", flush=True)
        counted["cache"] = summarize_caches(passes)
        for workload, memos in counted["cache"].items():
            for memo, cell in memos.items():
                print(f"{workload} cache {memo} "
                      + ", ".join(f"{field} {c['shown']}" for field, c in cell.items()), flush=True)
        print(f"src_lines {sides['parent']['src_lines']:,} -> {sides['change']['src_lines']:,}",
              flush=True)
        for name, shown in changed_lines(sides["parent"]["src_lines_by_file"],
                                         sides["change"]["src_lines_by_file"]).items():
            print(f"  {name} {shown}", flush=True)
        for workload in args.workload:
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for n, side in enumerate(order):
                    result = _run(trees[side], [*command, "--workload", workload,
                                                "--seed", str(seed), "--seconds", str(seconds)])
                    last = result["last_line"] or {}
                    metrics = {k: v["value"] for k, v in last.get("metrics", {}).items()}
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "ran_first": n == 0, "metrics": metrics, **result})
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
                          + ("" if result["exit_code"] == 0 else f" exit {result['exit_code']}"),
                          flush=True)
    summary = summarize(runs, bounds)
    report = {
        "what": "Alternating parent/change pairs of the benchmark from tools/ab_pairs.py",
        "command": (f"{' '.join(command)} --workload W --seed N --seconds {seconds}"
                    f" (N = 1..{args.pairs}; odd N runs the parent first, even N the change"
                    " first), each side from its own git archive export"),
        "sides": sides,
        "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}",
        "summary": summary,
        **counted,
        "worse_than_bound": sorted(k for k, v in summary.items() if v.get("worse_than_bound")),
        "unresolved": sorted(k for k, v in summary.items() if v.get("unresolved")),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    failed = [r for r in runs if r["exit_code"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
