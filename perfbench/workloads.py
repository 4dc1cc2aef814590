"""The benchmark's workloads: inputs, the work each one times, and its output checks.

Everything here runs inside a child process that has imported the
library from the checkout's ``src`` (see ``child.py``).

thm46    ``verifier.run`` on family thm46 at criterion 6's configuration.
algebra  ``verifier.run`` on the criterion 1-4 families and configurations.
act      a closed loop with one client: JSON operator requests on JSON
         tensor states, and JSON bracket requests, each parsed, applied
         and encoded again with ``serialize.dumps``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import random
import time
from array import array

from perfstats import percentile, upper
from supertoroidal import serialize as ser
from supertoroidal import verifier
from supertoroidal.superalgebra import Superalgebra
from supertoroidal.verifier import CheckConfig

# Criterion 6's own configuration, verifier seed included.  The cost of a
# thm46 run is set by a few samples (at 20 per clause, verifier seed 3
# takes 161 s and seed 5 takes 7 s), so a seeded draw would measure the
# draw, not the code.  Seed 6 holds the worst sample recorded for
# criterion 6 (ST1, index 1), so every run carries that tail.
THM46 = ("thm46", dict(M=3, N=2, q=2, max_degree=6, exponent_box=2, samples=20, seed=6))

# Criteria 1-4; the verifier seed comes from the benchmark's --seed.
ALGEBRA = (
    ("cocycle", dict(M=4, N=1, q=1, max_degree=0, exponent_box=2, samples=10_000)),
    ("jacobi", dict(M=2, N=2, q=1, samples=1)),
    ("jacobi", dict(M=3, N=3, q=1, samples=10_000)),
    ("form", dict(M=3, N=3, q=1, samples=10_000)),
    ("rtables", dict(M=4, N=3, q=1, exponent_box=2, samples=40)),
    ("sttables", dict(M=4, N=3, q=2, exponent_box=2, samples=40)),
)


def check_configs(workload: str, seed: int):
    """(family, CheckConfig) pairs that one unit of a check workload runs."""
    if workload == "thm46":
        family, kw = THM46
        return [(family, CheckConfig(**kw))]
    if workload == "algebra":
        return [(family, CheckConfig(**kw, seed=seed)) for family, kw in ALGEBRA]
    raise ValueError(f"not a check workload: {workload!r}")


def hit_count_problems(family: str, cfg: CheckConfig, report: dict) -> list:
    """Where a report misses its criterion's verdict or hit counts."""
    cells = report["families"][family]["clauses"]
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{family} {cfg.M}|{cfg.N}|{cfg.q}: {what}")

    need(report["all_pass"], "all_pass is false")
    for clause, cell in cells.items():
        need(cell["fail"] == 0, f"{clause} has {cell['fail']} failures")
    if family == "cocycle":
        side = (2 * cfg.exponent_box + 1) ** cfg.M
        need(cells["cocycle-identity"]["hits"] >= cfg.samples, "cocycle-identity hits")
        need(cells["sign-law"]["hits"] == side * side, "sign-law is not exhaustive")
    elif family == "jacobi":
        hits = cells["super-jacobi"]["hits"]
        size = cfg.M + cfg.N
        if size ** 6 <= 5000:
            need(hits == size ** 6, "super-jacobi is not exhaustive")
        else:
            need(hits >= cfg.samples, "super-jacobi hits")
    elif family == "form":
        size = cfg.M + cfg.N
        need(cells["supersymmetric"]["hits"] == size ** 4, "supersymmetric is not exhaustive")
        need(cells["invariant"]["hits"] >= cfg.samples, "invariant hits")
    elif family in ("rtables", "sttables"):
        for clause, cell in cells.items():
            need(cell["hits"] >= 5, f"{clause} hits")
        adjudicated = {a["clause"] for a in report["adjudications"]}
        need(("R2" if family == "rtables" else "ST3") in adjudicated, "known typo not adjudicated")
    elif family == "thm46":
        for k in range(1, 11):
            need(cells[f"ST{k}"]["hits"] >= cfg.samples, f"ST{k} hits")
        need(cells["Kq-identity"]["hits"] >= cfg.samples, "Kq-identity hits")
        witness = cells["central-witness"]["patterns"]
        need(all(witness.get(f"K{i}", 0) > 0 for i in range(1, cfg.q + 1)),
             "a central direction is not witnessed")
    return problems


class CheckLog:
    """Wall time of every check ``verifier.run`` makes, taken at its family table.

    A check's time runs from the request for its input to the generator
    until its evaluation returns, so it covers drawing the input
    (``generate_s``) and evaluating it (``evaluate_s``).  ``current``
    labels the check in hand.  A check that raises is recorded and turned
    into a failed outcome, so the run goes on and the report counts it as
    a failure.
    """

    TOP = 10

    def __init__(self):
        self.times = array("d")
        self.generate_s = 0.0
        self.evaluate_s = 0.0
        self.by_clause = {}  # (family, clause) -> array of seconds
        self.slowest = []  # min-heap of (seconds, family, clause, index, pattern)
        self.raised = 0
        self.current = None  # (family, clause, index, pattern) of the check in hand
        self.started = 0.0  # when the generator was asked for the check in hand
        self.drawn = 0.0  # when the generator handed it over

    def install(self):
        for family, spec in verifier.FAMILIES.items():
            spec["generate"] = self._generate(family, spec["generate"])
            spec["evaluate"] = self._evaluate(spec["evaluate"])

    def _generate(self, family, generate):
        clock = time.perf_counter

        def labelled(cfg, clause):
            items = generate(cfg, clause)
            for index in itertools.count():
                started = clock()
                try:
                    pattern, payload = next(items)
                except StopIteration:
                    return
                self.drawn = clock()
                self.started = started
                self.current = (family, clause, index, pattern)
                yield pattern, payload

        return labelled

    def _evaluate(self, evaluate):
        clock = time.perf_counter

        def timed(cfg, clause, payload):
            try:
                outcome = evaluate(cfg, clause, payload)
            except Exception as exc:  # a crash is a failed check, not a lost run
                self.raised += 1
                outcome = (False, False, None, f"raised {exc!r}", None)
            end = clock()
            self.generate_s += self.drawn - self.started
            self.evaluate_s += end - self.drawn
            self._record(end - self.started)
            return outcome

        return timed

    def _record(self, seconds):
        self.times.append(seconds)
        family, clause, index, pattern = self.current
        key = (family, clause)
        cell = self.by_clause.get(key)
        if cell is None:
            cell = self.by_clause[key] = array("d")
        cell.append(seconds)
        entry = (seconds, family, clause, index, pattern)
        if len(self.slowest) < self.TOP:
            heapq.heappush(self.slowest, entry)
        elif seconds > self.slowest[0][0]:
            heapq.heapreplace(self.slowest, entry)

    def tail_table(self):
        """Per-clause p50/p90/max and the slowest checks, in milliseconds."""
        clauses = [
            {"family": f, "clause": c, "checks": len(ts),
             "p50_ms": 1e3 * percentile(ts, 50), "p90_ms": 1e3 * percentile(ts, 90),
             "max_ms": 1e3 * max(ts), "total_s": sum(ts)}
            for (f, c), ts in self.by_clause.items()
        ]
        slowest = [
            {"ms": 1e3 * s, "family": f, "clause": c, "index": i, "pattern": p}
            for s, f, c, i, p in sorted(self.slowest, reverse=True)
        ]
        return {"clauses": clauses, "slowest": slowest}

    def summary(self):
        """Check count, times and latency figures of everything logged so far."""
        ts = self.times
        total = sum(ts)
        k = max(1, -(-len(ts) // 100))  # the slowest 1%, at least one check
        p99, level = upper(ts)
        return {
            "checks": len(ts),
            "raised": self.raised,
            "generate_s": self.generate_s,
            "evaluate_s": self.evaluate_s,
            "p50_ms": 1e3 * percentile(ts, 50),
            "p99_ms": 1e3 * p99,
            "p99_level": level,
            "max_ms": 1e3 * max(ts),
            "tail_share": sum(heapq.nlargest(k, ts)) / total if total else 0.0,
            "over_1s": sum(1 for t in ts if t >= 1.0),
        }


# ---------------------------------------------------------------------------
# act: the request stream

OP_KINDS = (
    "vertex", "current", "phi", "phi_star", "diag_current", "s_op", "central",
    "normal_pair_sum", "vertex_product_sum", "product", "sum",
)
# The mix is synthetic: the repository holds no record of real requests.
# A batch gives one equal share to each operator kind and one to
# brackets.  Within a share the input states run up a log-uniform ladder
# of term counts, one request per rung, so that states go from one term
# to thousands.  A kind climbs the ladder only as far as its images stay
# within a few thousand terms: the vertex and boson modes map a term to
# about one term, so they take the whole ladder; the kinds that multiply
# terms take up to 256; the mode sums (a central image resolves to a mode
# sum or a vertex mode) multiply them most and take up to 16.  Beyond 16
# terms, or with negative modes, an S mode turned a state into 3.6k terms
# and a normal-ordered pair sum one into 8k.  A boson mode creates on the
# odd rungs, 2048 among them, and contracts on the even ones: a creation
# keeps every term, so it costs more than a contraction.
LADDER = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
SHARE = len(LADDER)  # requests per share in a batch
# (M, N, q) of the requests, in turn along each share.  The size of a
# term's encoding, and so a request's cost, grows with M and q.  With the
# creation choice and the shapes drawn from the seed, the eleventh
# slowest request (op_p99_ms) differed by up to half between seeds, so
# both are fixed and the seed draws everything else.
SHAPES = [(M, N, q) for M in (1, 2, 3) for N in (1, 2) for q in (1, 2)]
MAX_TERMS = dict.fromkeys(OP_KINDS, 16)
MAX_TERMS.update(vertex=2048, phi=2048, phi_star=2048,
                 current=256, vertex_product_sum=256, product=256, sum=256)


def state_sizes(kind: str) -> list:
    """Term counts of one share of `kind`: the ladder up to its cap, repeated."""
    rungs = [n for n in LADDER if n <= MAX_TERMS[kind]]
    return [rungs[k % len(rungs)] for k in range(SHARE)]


def _rng(*labels) -> random.Random:
    h = hashlib.sha256("/".join(str(x) for x in labels).encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))


def _form(a, b):
    """The lattice form on vector objects (e-block dot plus delta/d duality)."""
    return (sum(x * y for x, y in zip(a["e"], b["e"]))
            + sum(x * y for x, y in zip(a["delta"], b["d"]))
            + sum(x * y for x, y in zip(a["d"], b["delta"])))


def _vector(rng, M, q, box=2, in_q=True):
    while True:
        e = [rng.randint(-box, box) for _ in range(M)]
        delta = [rng.randint(-box, box) for _ in range(q - 1)]
        d = [0] * (q - 1) if in_q else [rng.randint(-1, 1) for _ in range(q - 1)]
        if any(e):
            return {"e": e, "delta": delta, "d": d}


def _unit_vector(rng, M, q):
    """An odd vector of norm 1: +-e_i plus a multiple of delta."""
    e = [0] * M
    e[rng.randrange(M)] = rng.choice((-1, 1))
    return {"e": e, "delta": [rng.randint(-1, 1) for _ in range(q - 1)], "d": [0] * (q - 1)}


def _frac(rng):
    return f"{rng.choice((-3, -2, -1, 1, 2, 3))}/{rng.randint(1, 4)}"


def _state(rng, M, N, q, size):
    """A tensor state object with `size` distinct terms on a few gammas."""
    rank = M + 2 * (q - 1)
    gammas = [_vector(rng, M, q, box=1, in_q=False) for _ in range(1 + min(7, size // 128))]
    terms = {}
    for _ in range(20 * size):
        if len(terms) == size:
            break
        mono, budget = [], rng.randint(0, 4)
        while budget > 0:
            mode = rng.randint(1, budget)
            mono.append((rng.randrange(rank), mode))
            budget -= mode
        phi, phi_star = [], []
        for _ in range(rng.randint(0, 3)):
            mode = (rng.randint(1, N), -rng.choice((1, 1, 3)))
            (phi if rng.random() < 0.5 else phi_star).append(mode)
        key = (rng.randrange(len(gammas)), tuple(sorted(mono)), tuple(sorted(phi)),
               tuple(sorted(phi_star)))
        terms[key] = _frac(rng)
    out = []
    for (g, mono, phi, phi_star), coeff in terms.items():
        counts = {}
        for f in mono:
            counts[f] = counts.get(f, 0) + 1
        out.append({
            "coeff": coeff,
            "gamma": gammas[g],
            "monomial": [{"basis": b, "mode": n, "power": p} for (b, n), p in sorted(counts.items())],
            "phi": [{"flavor": f, "doubled_mode": k} for f, k in phi],
            "phi_star": [{"flavor": f, "doubled_mode": k} for f, k in phi_star],
        })
    return out, gammas


def _vertex_index(rng, alpha, gammas):
    """A doubled mode index whose creation level stays at most 2 on every term."""
    norm = _form(alpha, alpha)
    h = max(4 - _form(alpha, g) for g in gammas) - rng.randint(0, 2)
    return 2 * h - norm if norm % 2 == 0 else 2 * h - 1


def _simple_op(rng, kind, M, N, q, gammas, create=None):
    """A vertex, current or boson mode; `create` fixes whether a boson mode creates."""
    if kind == "vertex":
        alpha = _vector(rng, M, q)
        return {"kind": "vertex", "alpha": alpha, "index": _vertex_index(rng, alpha, gammas)}
    if kind == "current":
        return {"kind": "current", "alpha": _vector(rng, M, q), "mode": rng.randint(-3, 3)}
    if kind in ("phi", "phi_star"):
        if create is None:
            r = rng.randint(-2, 2)
        else:  # r <= 0 creates
            r = rng.randint(-2, 0) if create else rng.randint(1, 2)
        return {"kind": kind, "flavor": rng.randint(1, N), "r": r}
    raise ValueError(kind)


def _operator(rng, kind, M, N, q, gammas, create):
    mu = [rng.randint(-1, 1) for _ in range(q - 1)]
    if kind in ("vertex", "current", "phi", "phi_star"):
        return _simple_op(rng, kind, M, N, q, gammas, create)
    if kind == "diag_current":
        alpha = _vector(rng, M, q, box=1)
        return {"kind": kind, "alpha": alpha, "mode": rng.randint(0, 2), "mu": mu}
    if kind == "s_op":
        i, j = rng.randint(1, M + N), rng.randint(M + 1, M + N)
        if rng.random() < 0.5:
            i, j = j, i
        return {"kind": kind, "i": i, "j": j, "mu": mu, "n": rng.randint(0, 2)}
    if kind == "central":
        return {"kind": kind, "mbar": mu + [rng.randint(0, 2)], "direction": rng.randint(1, q)}
    if kind == "normal_pair_sum":
        return {"kind": kind, "a": _unit_vector(rng, M, q), "b": _unit_vector(rng, M, q),
                "n": rng.randint(0, 2)}
    if kind == "vertex_product_sum":
        alpha = _vector(rng, M, q)
        return {"kind": kind, "a": alpha, "mu": mu, "index": _vertex_index(rng, alpha, gammas)}
    simple = ("vertex", "current", "phi", "phi_star")
    parts = [_simple_op(rng, rng.choice(simple), M, N, q, gammas) for _ in range(rng.randint(2, 3))]
    if kind == "sum":
        return {"kind": kind, "terms": [{"coeff": _frac(rng), "op": p} for p in parts]}
    # a vertex mode's index suits the input's gammas, so it may only act first
    # (the rightmost factor); a vertex mode after it could reach deep creation
    # levels and turn four terms into 3k
    parts[:-1] = [_simple_op(rng, rng.choice(simple[1:]), M, N, q, gammas) for _ in parts[:-1]]
    return {"kind": kind, "factors": parts}


def _toroidal(rng, M, N, q):
    out = []
    for _ in range(rng.randint(1, 4)):
        exponent = [rng.randint(-2, 2) for _ in range(q)]
        if rng.random() < 0.85:
            out.append({"coeff": _frac(rng), "kind": "T", "i": rng.randint(1, M + N),
                        "j": rng.randint(1, M + N), "exponent": exponent})
        else:
            out.append({"coeff": _frac(rng), "kind": "K", "direction": rng.randint(1, q),
                        "exponent": exponent})
    return out


def act_batch(seed: int, batch: int) -> list:
    """One batch of request texts, a pure function of (seed, batch)."""
    rng = _rng("act", seed, batch)
    requests = []
    for k, kind in enumerate(OP_KINDS):
        for n, size in enumerate(state_sizes(kind)):
            M, N, q = SHAPES[(batch + k + n) % len(SHAPES)]
            state, gammas = _state(rng, M, N, q, size)
            op = _operator(rng, kind, M, N, q, gammas, create=LADDER.index(size) % 2 == 1)
            requests.append(json.dumps({"op": op, "state": state}))
    for n in range(SHARE):
        M, N, q = SHAPES[(batch + n) % len(SHAPES)]
        requests.append(json.dumps({"M": M, "N": N, "x": _toroidal(rng, M, N, q),
                                    "y": _toroidal(rng, M, N, q)}))
    rng.shuffle(requests)
    return requests


def handle(text: str) -> str:
    """Serve one request the way the ``act`` and ``bracket`` commands do."""
    obj = json.loads(text)
    if "op" in obj:
        op = ser.operator_from_obj(obj["op"])
        state = ser.tensor_state_from_obj(obj["state"])
        return ser.dumps(ser.tensor_state_to_obj(op.apply(state)))
    alg = Superalgebra(obj["M"], obj["N"])
    x = ser.toroidal_from_obj(obj["x"])
    y = ser.toroidal_from_obj(obj["y"])
    return ser.dumps(ser.toroidal_to_obj(alg.bracket_toroidal(x, y)))


def round_trips(request: str, response: str) -> bool:
    """The response reads back and encodes to the same text, bit for bit."""
    obj = json.loads(response)
    if "op" in json.loads(request):
        again = ser.tensor_state_to_obj(ser.tensor_state_from_obj(obj))
    else:
        again = ser.toroidal_to_obj(ser.toroidal_from_obj(obj))
    return ser.dumps(again) == response
