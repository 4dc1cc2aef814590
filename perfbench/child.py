"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/child.py '<job as JSON>'

``run.py`` starts one of these per pass, so every pass begins with the
library's caches as cold as a user's first call finds them.  The child
prints one JSON object on its last line of standard output.

Jobs:
    {"job": "checks", "workload": "thm46"|"algebra", "seed": n, "trace": bool,
     "spans": path or null}
    {"job": "act-inputs", "seed": n, "batches": k, "inputs": path}
    {"job": "act", "inputs": path, "verify": bool, "trace": bool, "spans": path or null}
    {"job": "probe"}

"act-inputs" writes a run's act requests to a file, one per line, batch
by batch; every act pass of the run reads them from there.

The result's "times" lists the wall time of every check or request, in
the order the pass ran them.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from array import array
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import supertoroidal  # noqa: E402
from supertoroidal import verifier  # noqa: E402
from supertoroidal.lattice import LatticeConfig, LatticeVector  # noqa: E402
from supertoroidal.representation import TensorState, apply, rho, super_commutator  # noqa: E402
from supertoroidal.superalgebra import Superalgebra, ToroidalElement  # noqa: E402

import tracing  # noqa: E402
from perfstats import percentile, upper  # noqa: E402
import workloads  # noqa: E402


def _tracer(job):
    if not job.get("trace"):
        return None
    tracer = tracing.Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, job, result, cache_before, cache_after):
    layers = result["layers"] = tracer.metrics(cache_before, cache_after)
    result["functions"] = tracer.function_table()
    counts = {name: layers[name] for name in tracing.DETERMINISTIC if name in layers}
    counts["verifier.checks"] = result.get("checks", 0)
    counts.update((f"calls.{name}", row["calls"]) for name, row in result["functions"].items())
    result["counts"] = counts
    if job.get("spans"):
        tracer.write_spans(job["spans"])
        result["spans"] = len(tracer.span_start)


def run_checks(job):
    """One unit of a check workload: ``verifier.run`` on each of its configurations."""
    log = workloads.CheckLog()
    log.install()
    tracer = _tracer(job)
    if tracer is not None:
        tracer.install_checks(verifier, log)
    configs = workloads.check_configs(job["workload"], job["seed"])
    cache_before = tracing.cache_counts()
    start = time.perf_counter()
    reports = [(family, cfg, verifier.run(cfg, families=(family,))) for family, cfg in configs]
    run_s = time.perf_counter() - start
    cache_after = tracing.cache_counts()
    if tracer is not None:
        tracer.on = False
    result = {
        "run_s": run_s,
        "ops_s": sum(log.times),
        "failed": sum(cell["fail"] for family, _, rep in reports
                      for cell in rep["families"][family]["clauses"].values()),
        "problems": [p for family, cfg, rep in reports
                     for p in workloads.hit_count_problems(family, cfg, rep)],
        **log.summary(),
    }
    result["attempted"] = result["checks"]
    result["times"] = log.times.tolist()
    if tracer is not None:
        _finish_trace(tracer, job, result, cache_before, cache_after)
    else:
        result["tail"] = log.tail_table()
    return result


def write_act_inputs(job):
    """The run's act requests, made from (seed, batch number), one per line."""
    with open(job["inputs"], "w", encoding="utf-8") as fh:
        for k in range(job["batches"]):
            fh.write("".join(text + "\n" for text in workloads.act_batch(job["seed"], k)))
    return {}


def run_act(job):
    """The closed loop: one client sends the pass's requests back to back.

    The requests are read before the timing starts.  Each response
    is hashed, and checked when `verify` is set, outside its request's
    timing.
    """
    with open(job["inputs"], encoding="utf-8") as fh:
        requests = fh.read().splitlines()
    tracer = _tracer(job)
    handle = workloads.handle
    if tracer is not None:
        handle = tracer.wrap("act.request", handle)
    latencies = array("d")
    digest = hashlib.sha256()
    raised = mismatched = 0
    clock = time.perf_counter
    cache_before = tracing.cache_counts()
    start = clock()
    for n, text in enumerate(requests):
        if tracer is not None:
            tracer.context(f"request/{n}")
            tracer.on = True
        t = clock()
        try:
            response = handle(text)
        except Exception:  # a raising request is a failure, counted below
            response = None
        latencies.append(clock() - t)
        if tracer is not None:
            tracer.on = False
        if response is None:
            raised += 1
            digest.update(b"\0raised\0")
            continue
        digest.update(response.encode())
        if job.get("verify") and not workloads.round_trips(text, response):
            mismatched += 1
    run_s = clock() - start
    cache_after = tracing.cache_counts()
    result = {
        "run_s": run_s,
        "ops_s": sum(latencies),
        "attempted": len(requests),
        "raised": raised,
        "mismatched": mismatched,
        "failed": raised + mismatched,
        "p50_ms": 1e3 * percentile(latencies, 50),
        "p99_ms": 1e3 * upper(latencies)[0],
        "max_ms": 1e3 * max(latencies),
        "sha256": digest.hexdigest(),
        "problems": [f"{mismatched} responses do not round-trip bit-exactly"] if mismatched else [],
        "times": latencies.tolist(),
    }
    if tracer is not None:
        _finish_trace(tracer, job, result, cache_before, cache_after)
    return result


def run_probe(job):
    """The worst recorded thm46 sample, as one fixed check.

    Criterion 6 (verifier seed 6), clause ST1, pattern offdiag|i=k|generic:
    x = T[2,3] t^(2,-1), y = T[2,1] t^(2,1) on the one-term state at
    gamma = -2 e2 + 2 e3 - 2 d1, with M = 3, N = 2, q = 2.  Only the
    representation layer is wrapped, to count the terms of the two
    orderings of the super-commutator.
    """
    tracer = tracing.Tracer()
    tracer.install(layers=("representation",))
    lat = LatticeConfig(3, 2)
    alg = Superalgebra(3, 2)
    x = ToroidalElement.t(2, 3, (2, -1))
    y = ToroidalElement.t(2, 1, (2, 1))
    state = TensorState.basis(LatticeVector((0, -2, 2), (0,), (-2,)))
    start = time.perf_counter()
    lhs = super_commutator(rho(x, lat), rho(y, lat), state)
    rhs = apply(rho(alg.bracket_toroidal(x, y), lat), state)
    seconds = time.perf_counter() - start
    ok = lhs == rhs
    return {
        "run_s": seconds,
        "ordering_terms": tracer.counters["representation.ordering_terms"],
        "lhs_terms": len(lhs.terms),
        "attempted": 1,
        "failed": 0 if ok else 1,
        "problems": [] if ok else ["probe: lhs != rhs"],
    }


def main(argv):
    job = json.loads(argv[1])
    here = Path(supertoroidal.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise SystemExit(f"imported supertoroidal from {here}, not from {SRC}")
    runner = {"checks": run_checks, "act-inputs": write_act_inputs, "act": run_act,
              "probe": run_probe}[job["job"]]
    try:
        result = runner(job)
    except Exception:
        result = {"error": traceback.format_exc(), "attempted": 1, "failed": 1,
                  "problems": ["the pass raised"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
