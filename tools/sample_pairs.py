#!/usr/bin/env python3
"""Alternating A/B pairs of single verifier checks between two git revisions.

    python3 tools/sample_pairs.py PARENT CHANGE --family thm46 --q 3 --samples 100 \\
        --seed 6 --check ST1:97 [--check ST8:81] [--pairs 5] --out BENCH_N.json

A check is one sample of one clause: ``--check CLAUSE:INDEX`` names the
INDEX-th (pattern, payload) that the family's generator draws for CLAUSE
at the configuration given by ``--M --N --q --max-degree --box --samples
--seed`` (the ``check`` command's flags, built as it builds them from
``CheckConfig``'s fields and defaults in this checkout's src).  PARENT and CHANGE
are exported with ``git archive`` as ``tools/ab_pairs.py`` does.  For each
check, pair N (N = 1..pairs) evaluates it once in a fresh interpreter in
each tree, the parent first when N is odd and the change first when N is
even.  Each run draws the payload, then times only its evaluation, so its
caches start as cold as a user's first call finds them; it also reports
whether the check held and the process's peak resident set.

The output file holds every run and, per check and metric (``seconds``,
``peak_rss_mb``), the summary of ``tools/ab_pairs.py``: each side's median
and quartiles, the pairs in which the change read lower and whether that
meets the gain rule.  A check that fails or raises on either side counts as
a failed operation in ``failed_share`` and makes the exit code 1.  Besides
this checkout's src it needs only the standard library and git.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

from ab_pairs import _export, _git, summarize

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from supertoroidal.verifier import CheckConfig  # noqa: E402

# run in the exported tree with its src first on sys.path; argv: family clause index config
_CHILD = r"""
import itertools, json, resource, sys, time
sys.path.insert(0, "src")
from supertoroidal import verifier
family, clause, index, config = sys.argv[1], sys.argv[2], int(sys.argv[3]), json.loads(sys.argv[4])
cfg = verifier.CheckConfig(**config)
spec = verifier.FAMILIES[family]
pattern, payload = next(itertools.islice(spec["generate"](cfg, clause), index, None))
t0 = time.perf_counter()
ok = spec["evaluate"](cfg, clause, payload)[0]
seconds = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"pattern": pattern, "ok": ok, "seconds": seconds, "peak_rss_mb": rss}))
"""


def _check(text: str):
    clause, sep, index = text.rpartition(":")
    if not sep or not clause or not index.isdigit():
        raise argparse.ArgumentTypeError(f"a check is CLAUSE:INDEX, got {text!r}")
    return clause, int(index)


def _run(tree: str, family: str, clause: str, index: int, config: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", _CHILD, family, clause, str(index),
                           json.dumps(config)], cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return {"exit_code": proc.returncode, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:] if proc.returncode else []}


def _parse(argv=None):
    """The parsed arguments and the check config (CheckConfig.to_obj()) they give."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--family", required=True)
    ap.add_argument("--check", type=_check, action="append", required=True,
                    help="CLAUSE:INDEX, repeatable")
    # the check command's flags: one per CheckConfig field, with its default
    flags = {"max_degree": "--max-degree", "exponent_box": "--box"}
    for name in CheckConfig._fields:
        ap.add_argument(flags.get(name, f"--{name}"), type=int, dest=name,
                        default=CheckConfig._defaults[name])
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    return args, CheckConfig(**{name: getattr(args, name) for name in CheckConfig._fields}).to_obj()


def main(argv=None) -> int:
    args, config = _parse(argv)
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
        for clause, index in args.check:
            name = f"{clause}:{index}"
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for n, side in enumerate(order):
                    run = _run(trees[side], args.family, clause, index, config)
                    result = run["result"] or {}
                    good = run["exit_code"] == 0 and result.get("ok") is True
                    metrics = {k: result[k] for k in ("seconds", "peak_rss_mb") if k in result}
                    # the summary reads a pair as one (workload, seed): here (check, pair)
                    runs.append({"workload": name, "seed": pair, "side": side, "ran_first": n == 0,
                                 "metrics": metrics, **run,
                                 "last_line": {"attempted": 1, "failed": 0 if good else 1}})
                    print(f"{name} pair {pair} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
                          + ("" if good else f" FAILED (exit {run['exit_code']})"), flush=True)
    report = {
        "what": "Alternating parent/change pairs of single verifier checks from tools/sample_pairs.py",
        "family": args.family,
        "config": config,
        "command": (f"{args.family} check CLAUSE:INDEX evaluated once per side per pair in a fresh"
                    " interpreter (odd pairs run the parent first, even pairs the change first),"
                    " each side from its own git archive export"),
        "sides": sides,
        "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}",
        "summary": summarize(runs),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 1 if any(r["last_line"]["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
