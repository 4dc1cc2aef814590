"""Seeded relation checker with machine-readable, replayable reports.

Every check family draws its inputs from a deterministic stream: the
64-bit seed is combined with the family, clause, pattern and sample
labels through SHA-256, so a report is a pure function of its
configuration, identical across processes and scheduling.

Families and their clauses:

    cocycle      cocycle-identity, sign-law, bimultiplicative,
                 basis-table, bilinear-form, parity
    jacobi       super-jacobi (exhaustive on small algebras)
    form         supersymmetric, even, invariant
    rtables      R1..R10   printed affine table vs generic bracket (q=1)
    sttables     ST1..ST10 printed toroidal table vs generic (q>=2)
    prop33       3.1(1)-(3) boson relations, R1..R10 as operator
                 identities through the q=1 dictionary
    thm46        ST1..ST10 as operator identities (q>=2), Kq-identity,
                 central-witness, central-consistency, 4.4-product
    lemma49      lemma4.9, lemma2.8
    corollary19  1.9(1)-(3)
    identity110  1.10(1)-(3)

One table, _CLAUSES, holds every check: family -> clause ->
(generate, evaluate).  generate(cfg) yields (pattern, payload) pairs
whose payloads hold library objects, ints, int lists and strings;
evaluate(cfg, payload) returns the check's two sides (lhs, rhs) as
library objects, and one judge, _holds, decides whether they agree.  A
state identity's sides are two operators, judged as one difference on the
payload's state and applied to it only for a record or a replay (_side).
FAMILIES gives each family the uniform interface generate(cfg, clause)
and evaluate(cfg, clause, payload) -> (ok, adjudicated, note, lhs, rhs).
Only a clause's first failure is encoded (_serialize), and a replay
reads its recorded payload back (_payload_from_obj).

Comparisons are exact; there is no tolerance anywhere.  A failing check
records the first counterexample with enough payload to re-run it in
isolation (see replay_counterexample).  Printed-table rows known to
disagree with the generic bracket are adjudicated explicitly instead of
failing: the report lists each adjudicated row with its note.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from functools import partial
from itertools import product

from . import serialize as ser
from . import tables
from .lattice import LatticeConfig, LatticeVector, Record, bilinear, cocycle, parity
from .fock_boson import BosonState, phi_apply, phi_star_apply
from .superalgebra import GLElement, Superalgebra, ToroidalElement, d_cocycle
from .representation import (
    Current,
    DiagCurrent,
    NormalPairSum,
    OpProduct,
    OpSum,
    PhiMode,
    PhiStarMode,
    TensorState,
    VertexMode,
    VertexProductSum,
    _Operator,
    apply,
    commutator,
    rho,
)

class CheckConfig(Record):
    M: int = 3
    N: int = 2
    q: int = 2
    max_degree: int = 6
    exponent_box: int = 2
    samples: int = 20
    seed: int = 0

    def to_obj(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_obj(cls, obj) -> "CheckConfig":
        names = list(cls._fields)
        if set(ser._object(obj, "a config")) != set(names):
            raise ValueError(f"a config has the integer fields {names}, got {sorted(obj)}")
        return cls(**{k: ser._int(obj[k], k) for k in names})


def derive_rng(seed: int, *labels) -> random.Random:
    """Deterministic stream from the seed and string labels."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))


# ---------------------------------------------------------------------------
# seeded generation


def _random_vector(rng, M, q, box, gamma_parity=None, q_only=False):
    while True:
        e = tuple(rng.randint(-box, box) for _ in range(M))
        if gamma_parity is not None and sum(e) % 2 != gamma_parity:
            continue
        break
    delta = tuple(rng.randint(-box, box) for _ in range(q - 1))
    if q_only:
        d = (0,) * (q - 1)
    else:
        d = tuple(rng.randint(-box, box) for _ in range(q - 1))
    return LatticeVector(e, delta, d)


def _random_coeff(rng) -> Fraction:
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(num, rng.randint(1, 3))


def _random_bosons(rng, N, budget, p):
    """(phi, phi*) creators drawn while each draw passes p and the doubled budget lasts."""
    phi, phis = [], []
    while budget >= 1 and rng.random() < p:
        mag = 2 * rng.randint(0, (budget - 1) // 2) + 1
        mode = (rng.randint(1, N), -mag)
        (phi if rng.random() < 0.5 else phis).append(mode)
        budget -= mag
    return tuple(sorted(phi)), tuple(sorted(phis))


def _draw_state(rng, cfg, q=None) -> TensorState:
    """Nonzero homogeneous state of this config (at q if given) within the
    doubled degree budget, drawn from rng."""
    q, box = q or cfg.q, cfg.exponent_box
    lat = LatticeConfig(cfg.M, q)
    par = rng.randint(0, 1) if box > 0 else 0  # box 0 pins gamma to 0
    while True:
        terms = []
        for _ in range(rng.randint(1, 2)):
            budget = cfg.max_degree
            gamma = _random_vector(rng, cfg.M, q, box, gamma_parity=par)
            mono = []
            while budget >= 2 and rng.random() < 0.6:
                n = rng.randint(1, budget // 2)
                mono.append((rng.randrange(lat.rank), n))
                budget -= 2 * n
            key = ((gamma, tuple(sorted(mono))), _random_bosons(rng, cfg.N, budget, 0.5))
            terms.append((key, _random_coeff(rng)))
        state = TensorState(terms)
        if not state.is_zero():
            return state


def gen_state(cfg: CheckConfig, seed_offset) -> TensorState:
    """Deterministic pseudo-random homogeneous state for this config."""
    return _draw_state(derive_rng(cfg.seed, "state", seed_offset), cfg)


def _random_boson_state(rng, N, max_degree) -> BosonState:
    while True:
        s = BosonState([(_random_bosons(rng, N, max_degree, 0.6), _random_coeff(rng))
                        for _ in range(rng.randint(1, 2))])
        if not s.is_zero():
            return s


def _exp_pair(rng, q, box, pattern):
    mb = tuple(rng.randint(-box, box) for _ in range(q))
    if not any(mb):
        mb = (1,) + (0,) * (q - 1)
    nb = tuple(rng.randint(-box, box) for _ in range(q))
    zero = (0,) * q
    if pattern == "zero":
        return zero, zero
    if pattern == "opposite":
        return mb, tuple(-x for x in mb)
    if pattern == "right-zero":
        return mb, zero
    return mb, nb


_EXP_PATTERNS = ("opposite", "generic", "zero", "right-zero")


def _cycle(cfg, patterns, *labels):
    """(pattern, rng) per sample, taking the patterns in turn.

    Every pattern is hit and there are at least two samples; each stream
    is derived from the labels, the pattern and the sample index.
    """
    for k in range(max(cfg.samples, len(patterns), 2)):
        pattern = patterns[k % len(patterns)]
        yield pattern, derive_rng(cfg.seed, *labels, pattern, k)


def _draw_vectors(rng, cfg, names, **kw):
    """One random vector per name."""
    return {n: _random_vector(rng, cfg.M, cfg.q, cfg.exponent_box, **kw) for n in names}


def _tuples(cfg, labels, space, names, limit):
    """Every tuple over space when there are at most limit, else samples."""
    if len(space) ** len(names) <= limit:
        for values in product(space, repeat=len(names)):
            yield "exhaustive", dict(zip(names, values))
    else:
        rng = derive_rng(cfg.seed, *labels)
        for _ in range(cfg.samples):
            yield "sampled", {n: rng.choice(space) for n in names}


# ---------------------------------------------------------------------------
# cocycle family


def _box_space(cfg):
    """The coordinate box of e-vectors."""
    zq = (0,) * (cfg.q - 1)
    box = range(-cfg.exponent_box, cfg.exponent_box + 1)
    return [LatticeVector(e, zq, zq) for e in product(box, repeat=cfg.M)]


def _eval_cocycle_identity(cfg, payload):
    a, b, c = payload["a"], payload["b"], payload["c"]
    return cocycle(a, b) * cocycle(a + b, c), cocycle(b, c) * cocycle(a, b + c)


def _eval_sign_law(cfg, payload):
    a, b = payload["a"], payload["b"]
    return cocycle(a, b) * cocycle(b, a), (-1) ** (bilinear(a, b) + parity(a) * parity(b))


def _gen_bimultiplicative(cfg):
    for slot, rng in _cycle(cfg, ("left", "right"), "cocycle", "bimultiplicative"):
        yield slot, {**_draw_vectors(rng, cfg, "xy", q_only=True),
                     **_draw_vectors(rng, cfg, "z", q_only=(slot == "left")), "slot": slot}


def _eval_bimultiplicative(cfg, payload):
    x, y, z = payload["x"], payload["y"], payload["z"]
    if payload["slot"] == "left":
        return cocycle(x + y, z), cocycle(x, z) * cocycle(y, z)
    return cocycle(x, y + z), cocycle(x, y) * cocycle(x, z)


def _gen_basis_table(cfg):
    M, q = cfg.M, cfg.q
    rng = derive_rng(cfg.seed, "cocycle", "basis-table")
    for i in range(1, M + 1):
        for j in range(1, M + 1):
            yield "ee", {"case": "ee", "i": i, "j": j, "expected": 1 if i <= j else -1}
    alpha = _random_vector(rng, M, q, cfg.exponent_box, q_only=True)
    yield "zero", {"case": "zero-left", "alpha": alpha, "expected": 1}
    yield "zero", {"case": "zero-right", "alpha": alpha, "expected": 1}
    for j in range(1, q):
        for i in range(1, M + 1):
            yield "delta", {"case": "e-delta", "i": i, "j": j, "expected": 1}
            yield "delta", {"case": "delta-e", "i": i, "j": j, "expected": 1}
        for l in range(1, q):
            yield "delta", {"case": "delta-delta", "i": j, "j": l, "expected": 1}
        beta = _random_vector(rng, M, q, cfg.exponent_box, q_only=True)
        yield "dgen", {"case": "x-d", "alpha": beta, "j": j, "expected": 1}


# the two cocycle arguments of each basis-table case
_BASIS_CASES = {
    "ee": lambda lat, p: (lat.e(p["i"]), lat.e(p["j"])),
    "zero-left": lambda lat, p: (lat.zero(), p["alpha"]),
    "zero-right": lambda lat, p: (p["alpha"], lat.zero()),
    "e-delta": lambda lat, p: (lat.e(p["i"]), lat.delta(p["j"])),
    "delta-e": lambda lat, p: (lat.delta(p["j"]), lat.e(p["i"])),
    "delta-delta": lambda lat, p: (lat.delta(p["i"]), lat.delta(p["j"])),
    "x-d": lambda lat, p: (p["alpha"], lat.dgen(p["j"])),
}


def _eval_basis_table(cfg, payload):
    return (cocycle(*_BASIS_CASES[payload["case"]](LatticeConfig(cfg.M, cfg.q), payload)),
            payload["expected"])


def _gen_bilinear_form(cfg):
    for slot, rng in _cycle(cfg, ("linear", "symmetric"), "cocycle", "bilinear-form"):
        yield slot, {**_draw_vectors(rng, cfg, "abc"), "m": rng.randint(-3, 3),
                     "n": rng.randint(-3, 3), "slot": slot}


def _eval_bilinear_form(cfg, payload):
    a, b, c = payload["a"], payload["b"], payload["c"]
    if payload["slot"] == "linear":
        m, n = payload["m"], payload["n"]
        return bilinear(m * a + n * b, c), m * bilinear(a, c) + n * bilinear(b, c)
    return bilinear(a, b), bilinear(b, a)


def _gen_parity(cfg):
    for slot, rng in _cycle(cfg, ("additive", "norm"), "cocycle", "parity"):
        yield slot, {**_draw_vectors(rng, cfg, "ab"), "slot": slot}


def _eval_parity(cfg, payload):
    a, b = payload["a"], payload["b"]
    if payload["slot"] == "additive":
        return parity(a + b), (parity(a) + parity(b)) % 2
    return parity(a), bilinear(a, a) % 2


# ---------------------------------------------------------------------------
# jacobi and form families


def _symbols(cfg):
    return [list(x) for x in Superalgebra(cfg.M, cfg.N).symbols()]


def _symbol_args(cfg, payload, names):
    return [Superalgebra(cfg.M, cfg.N)] + [tuple(payload[n]) for n in names]


def _eval_jacobi(cfg, payload):
    alg, x, y, z = _symbol_args(cfg, payload, "xyz")
    return alg.jacobi_sides(x, y, z)


def _gen_form_pairs(cfg, mixed_only):
    """Every ordered pair of basis symbols, or only those of mixed parity."""
    alg = Superalgebra(cfg.M, cfg.N)
    for x, y in product(_symbols(cfg), repeat=2):
        if not mixed_only or alg.parity_symbol(x) != alg.parity_symbol(y):
            yield "exhaustive", {"x": x, "y": y}


def _eval_supersymmetric(cfg, payload):
    alg, x, y = _symbol_args(cfg, payload, "xy")
    sign = (-1) ** (alg.parity_symbol(x) * alg.parity_symbol(y))
    return alg.form(x, y), sign * alg.form(y, x)


def _eval_even(cfg, payload):
    alg, x, y = _symbol_args(cfg, payload, "xy")
    return alg.form(x, y), Fraction(0)


def _eval_invariant(cfg, payload):
    alg, x, y, z = _symbol_args(cfg, payload, "xyz")
    return (alg.form_el(alg.bracket(x, y), GLElement.symbol(*z)),
            alg.form_el(GLElement.symbol(*x), alg.bracket(y, z)))


# ---------------------------------------------------------------------------
# the one judge of a check's two sides, and a side as a record holds it


def _holds(lhs, rhs, payload):
    """Whether a check's sides agree: two operators iff lhs - rhs, applied once through
    one sink with lhs first, sends payload["state"] to 0 (neither side is built; only a
    record or a replay applies one, _side), a central witness iff its image state lhs is
    nonzero, and any other two sides iff they are equal."""
    if isinstance(lhs, _Operator):
        return not OpSum(((1, lhs), (-1, rhs))).apply(payload["state"]).terms
    if rhs == "nonzero":
        return not lhs.is_zero()
    return lhs == rhs


def _side(side, payload):
    """A check side as a record holds it, an operator side applied to payload["state"]."""
    return _serialize(side.apply(payload["state"]) if isinstance(side, _Operator) else side)


# ---------------------------------------------------------------------------
# printed table rows: against the generic bracket, and as operator identities


_ROW_BY_ID = {r.row: r for r in tables.R_ROWS + tables.ST_ROWS}


def _gen_rows(cfg, clause, kind, label):
    """Each feasible (row, index pattern, exponent pattern) cell in turn.

    Cross indexing the two pattern kinds hits every joint cell; cycling
    both by one counter would alias and, for example, never pair a
    double-delta row with exponents that keep its central term alive.
    "hom" cells also carry a random state to act on.
    """
    qeff = 1 if kind == "R" else cfg.q
    probe = random.Random(0)
    cells = [
        (row, pid, cons, ep)
        for row in (tables.R_ROWS if kind == "R" else tables.ST_ROWS)
        if row.clause == clause
        for pid, cons in row.patterns
        if tables.solve_pattern(row.vars, cons, cfg.M, cfg.N, probe) is not None
        for ep in _EXP_PATTERNS
    ]
    for k in range(max(cfg.samples, len(cells))):
        row, pid, cons, ep = cells[k % len(cells)]
        rng = derive_rng(cfg.seed, label, clause, row.row, pid, ep, k)
        idx = tables.solve_pattern(row.vars, cons, cfg.M, cfg.N, rng)
        me, ne = _exp_pair(rng, qeff, cfg.exponent_box, ep)
        payload = {"row": row.row, "indices": idx, "me": list(me), "ne": list(ne)}
        if label == "hom":
            payload["state"] = _draw_state(rng, cfg, qeff)
        yield f"{row.row}|{pid}|{ep}", payload


def _build_row(cfg, payload):
    """The bracket arguments x, y of a row payload and the printed [x, y]."""
    row = _ROW_BY_ID[payload["row"]]
    return row.build(Superalgebra(cfg.M, cfg.N), payload["indices"],
                     tuple(payload["me"]), tuple(payload["ne"]))


def _eval_table(cfg, payload):
    x, y, printed = _build_row(cfg, payload)
    return printed, Superalgebra(cfg.M, cfg.N).bracket_toroidal(x, y)


def _eval_hom(cfg, payload):
    x, y, _ = _build_row(cfg, payload)
    lat = LatticeConfig(cfg.M, len(payload["me"]))
    bracket = Superalgebra(cfg.M, cfg.N).bracket_toroidal(x, y)
    return commutator(rho(x, lat), rho(y, lat), cfg.M), rho(bracket, lat)


# ---------------------------------------------------------------------------
# boson relations 3.1


_BOSON_PATTERNS = ("diag-contract", "diag-free", "offdiag")


def _gen_boson31(cfg, clause):
    box = max(cfg.exponent_box, 1)
    for pid, rng in _cycle(cfg, _BOSON_PATTERNS, "boson", clause):
        r = rng.randint(-box, box + 1)
        if pid == "diag-contract":
            i = j = rng.randint(1, cfg.N)
            s_idx = 1 - r
        elif pid == "diag-free":
            i = j = rng.randint(1, cfg.N)
            s_idx = rng.choice([v for v in range(-box, box + 2) if v != 1 - r])
        else:
            i = rng.randint(1, cfg.N)
            j = rng.choice([v for v in range(1, cfg.N + 1) if v != i]) if cfg.N > 1 else i
            s_idx = rng.randint(-box, box + 1)
        state = _random_boson_state(rng, cfg.N, cfg.max_degree)
        yield pid, {"i": i, "j": j, "r": r, "s": s_idx, "state": state}


def _eval_boson31(payload, first, second, contracts):
    """[first^i_r, second^j_s] on a boson state; only phi against phi* contracts."""
    i, j, r, s_idx, t = (payload[k] for k in ("i", "j", "r", "s", "state"))
    return (first(i, r, second(j, s_idx, t)) - second(j, s_idx, first(i, r, t)),
            (-1 if (contracts and r + s_idx - 1 == 0 and i == j) else 0) * t)


# ---------------------------------------------------------------------------
# thm46 beyond the table rows


def _gen_kq_identity(cfg):
    for k in range(max(cfg.samples, 1)):
        rng = derive_rng(cfg.seed, "thm46", "Kq-identity", k)
        yield "identity", {"state": _draw_state(rng, cfg)}


def _eval_kq_identity(cfg, payload):
    return rho(ToroidalElement.k(cfg.q, (0,) * cfg.q), LatticeConfig(cfg.M, cfg.q)), OpProduct(())


def _gen_central_witness(cfg):
    q, box = cfg.q, cfg.exponent_box
    lat = LatticeConfig(cfg.M, q)
    per = max(1, cfg.samples // q)
    for direction in range(1, q + 1):
        for k in range(per):
            rng = derive_rng(cfg.seed, "thm46", "central-witness", direction, k)
            if direction == q:
                # X_{m_q}(delta_mu) moves the vacuum iff m_q <= 0 and
                # the creation levels below -m_q are populated, which
                # needs delta_mu != 0 whenever m_q < 0
                mbar = [rng.randint(-box, box) for _ in range(q - 1)]
                mbar.append(-rng.randint(0, 1) if any(mbar) else 0)
                state = TensorState.vacuum(lat)
            else:
                mbar = [0] * q
                state = TensorState.basis(rng.randint(1, 2) * lat.dgen(direction))
            yield f"K{direction}", {"direction": direction, "mbar": mbar, "state": state}


def _eval_central_witness(cfg, payload):
    x = ToroidalElement.k(payload["direction"], tuple(payload["mbar"]))
    return apply(rho(x, LatticeConfig(cfg.M, cfg.q)), payload["state"]), "nonzero"


def _gen_central_consistency(cfg):
    box = cfg.exponent_box
    variants = ("remark-form", "antisymmetry")
    for variant, rng in _cycle(cfg, variants, "thm46", "central-consistency"):
        mbar = [rng.randint(-box, box) for _ in range(cfg.q)]
        nbar = [rng.randint(-box, box) for _ in range(cfg.q)]
        yield variant, {"variant": variant, "mbar": mbar, "nbar": nbar,
                        "state": _draw_state(rng, cfg)}


def _eval_central_consistency(cfg, payload):
    lat = LatticeConfig(cfg.M, cfg.q)
    mbar = tuple(payload["mbar"])
    nbar = tuple(payload["nbar"])
    lhs = rho(d_cocycle(mbar, nbar), lat)
    if payload["variant"] == "antisymmetry":
        return lhs, OpSum(((-1, rho(d_cocycle(nbar, mbar), lat)),))
    mu_total = tuple(a + b for a, b in zip(mbar[:-1], nbar[:-1]))
    s_mode = mbar[-1] + nbar[-1]
    dm = lat.delta_sum(mbar[:-1])
    return lhs, OpSum((
        (Fraction(1), DiagCurrent(dm, s_mode, mu_total)),
        (Fraction(mbar[-1]), VertexMode(lat.delta_sum(mu_total), 2 * s_mode)),
    ))


def _gen_product44(cfg):
    lat = LatticeConfig(cfg.M, cfg.q)
    # roots alpha_ij need two e-directions
    pats = ("alpha-root", "alpha-ei") if cfg.M >= 2 else ("alpha-ei",)
    for pid, rng in _cycle(cfg, pats, "thm46", "4.4-product"):
        if pid == "alpha-root":
            i = rng.randint(1, cfg.M)
            j = rng.choice([v for v in range(1, cfg.M + 1) if v != i])
            alpha = lat.root(i, j)
            idx = 2 * rng.randint(-2, 2)
        else:
            alpha = lat.e(rng.randint(1, cfg.M))
            idx = 2 * rng.randint(-2, 2) - 1
        mu = [rng.randint(-cfg.exponent_box, cfg.exponent_box) for _ in range(cfg.q - 1)]
        yield pid, {"alpha": alpha, "mu": mu, "index": idx, "state": _draw_state(rng, cfg)}


def _eval_product44(cfg, payload):
    alpha, mu, idx = payload["alpha"], tuple(payload["mu"]), payload["index"]
    dm = LatticeConfig(cfg.M, cfg.q).delta_sum(mu)
    return VertexProductSum(alpha, mu, idx), VertexMode(alpha + dm, idx)


# ---------------------------------------------------------------------------
# lemmas 4.9 and 2.8


def _gen_lemma49(cfg):
    box = cfg.exponent_box
    nonzero = [v for v in range(-max(box, 1), max(box, 1) + 1) if v]
    for pid, rng in _cycle(cfg, ("mq=0", "mq!=0"), "lemma49", "lemma4.9"):
        mu = [rng.randint(-box, box) for _ in range(cfg.q - 1)]
        mq = 0 if pid == "mq=0" else rng.choice(nonzero)
        yield pid, {"mu": mu, "mq": mq, "state": _draw_state(rng, cfg)}


def _eval_lemma49(cfg, payload):
    mu, mq = tuple(payload["mu"]), payload["mq"]
    dm = LatticeConfig(cfg.M, cfg.q).delta_sum(mu)
    return OpSum(((1, DiagCurrent(dm, mq, mu)), (mq, VertexMode(dm, 2 * mq)))), OpSum(())


def _gen_lemma28(cfg):
    lat = LatticeConfig(cfg.M, cfg.q)
    for pid, rng in _cycle(cfg, ("yy-commute", "yy-contract"), "lemma49", "lemma2.8"):
        sgn = rng.choice((1, -1))
        x1 = VertexMode(sgn * lat.e(rng.randint(1, cfg.M)), 2 * rng.randint(-2, 2) - 1)
        x2 = VertexMode(rng.choice((1, -1)) * lat.e(rng.randint(1, cfg.M)),
                        2 * rng.randint(-2, 2) - 1)
        f1 = rng.randint(1, cfg.N)
        r1 = rng.randint(-2, 2)
        y1 = PhiMode(f1, r1)
        if pid == "yy-contract":
            y2 = PhiStarMode(f1, 1 - r1)
        else:
            y2 = PhiMode(rng.randint(1, cfg.N), rng.randint(-2, 2))
        yield pid, {"x1": x1, "y1": y1, "x2": x2, "y2": y2, "state": _draw_state(rng, cfg)}


def _eval_lemma28(cfg, payload):
    x1, y1, x2, y2 = (payload[k] for k in ("x1", "y1", "x2", "y2"))
    lhs = commutator(OpProduct((x1, y1)), OpProduct((x2, y2)), cfg.M)
    # [X1,X2] Y1 Y2 - X2 X1 [Y1,Y2], with the odd pair anticommuting
    return lhs, OpSum(((1, OpProduct((commutator(x1, x2, cfg.M), y1, y2))),
                       (-1, OpProduct((x2, x1, commutator(y1, y2, cfg.M))))))


# ---------------------------------------------------------------------------
# mode identities 1.9 and 1.10


def _gen_cor19_roots(cfg):
    M = cfg.M
    for pid, rng in _cycle(cfg, ("i=k", "i!=k", "i=j"), "cor19", "1.9(1)"):
        j = rng.randint(1, M)
        kk = rng.choice([v for v in range(1, M + 1) if v != j])
        if pid == "i=k":
            i = kk
        elif pid == "i=j":
            i = j
        else:
            i = rng.choice([v for v in range(1, M + 1) if v != kk])
        state = _draw_state(rng, cfg)
        yield pid, {"i": i, "j": j, "k": kk, "m": rng.randint(-2, 2),
                    "n": rng.randint(-2, 2), "state": state}


def _eval_cor19_roots(cfg, payload):
    i, j, kk, m, n = (payload[k] for k in "ijkmn")
    lat = LatticeConfig(cfg.M, cfg.q)
    lhs = commutator(VertexMode(lat.e(i), 2 * m - 1), VertexMode(lat.root(j, kk), 2 * n), cfg.M)
    w = cocycle(lat.e(i), lat.root(j, kk)) if i == kk else 0
    return lhs, OpSum(((w, VertexMode(lat.e(j), 2 * (m + n) - 1)),))


def _gen_cor19_odd(cfg):
    M = cfg.M
    for pid, rng in _cycle(cfg, ("i=j,m+n=0", "i=j,m+n!=0", "i!=j"), "cor19", "1.9(2)"):
        i = rng.randint(1, M)
        if pid == "i!=j":
            j = rng.choice([v for v in range(1, M + 1) if v != i])
        else:
            j = i
        m = rng.randint(-2, 2)
        n = -m if pid.endswith("m+n=0") or pid == "i!=j" else m + rng.choice((1, -1, 2))
        yield pid, {"i": i, "j": j, "m": m, "n": n, "state": _draw_state(rng, cfg)}


def _eval_cor19_odd(cfg, payload):
    i, j, m, n = (payload[k] for k in "ijmn")
    lat = LatticeConfig(cfg.M, cfg.q)
    lhs = commutator(VertexMode(lat.e(i), 2 * m - 1), VertexMode(-lat.e(j), 2 * n + 1), cfg.M)
    w = cocycle(lat.e(i), -lat.e(j)) if (i == j and m + n == 0) else 0
    return lhs, OpSum(((w, OpProduct(())),))


def _gen_cor19_current(cfg):
    M = cfg.M
    lat = LatticeConfig(M, cfg.q)
    for pid, rng in _cycle(cfg, ("norm2", "norm1", "norm0"), "cor19", "1.9(3)"):
        alpha = rng.choice((1, -1)) * lat.e(rng.randint(1, M))
        if pid == "norm2":
            i = rng.randint(1, M)
            j = rng.choice([v for v in range(1, M + 1) if v != i])
            beta = lat.root(i, j)
            idx = 2 * rng.randint(-2, 2)
        elif pid == "norm1":
            beta = rng.choice((1, -1)) * lat.e(rng.randint(1, M))
            idx = 2 * rng.randint(-2, 2) - 1
        else:
            beta = lat.zero()
            idx = 2 * rng.randint(-2, 2)
        state = _draw_state(rng, cfg)
        yield pid, {"alpha": alpha, "beta": beta, "m": rng.randint(-2, 2), "index": idx,
                    "state": state}


def _eval_cor19_current(cfg, payload):
    alpha, beta, m, idx = (payload[k] for k in ("alpha", "beta", "m", "index"))
    lhs = commutator(Current(alpha, m), VertexMode(beta, idx), cfg.M)
    return lhs, OpSum(((bilinear(alpha, beta), VertexMode(beta, idx + 2 * m)),))


def _gen_id110_roots(cfg):
    M = cfg.M
    for pid, rng in _cycle(cfg, ("m+n=0", "m+n!=0", "m=n=0"), "id110", "1.10(1)"):
        i = rng.randint(1, M)
        j = rng.choice([v for v in range(1, M + 1) if v != i])
        if pid == "m=n=0":
            m = n = 0
        else:
            m = rng.choice([v for v in range(-2, 3) if v])
            n = -m if pid == "m+n=0" else m + rng.choice((1, -1))
        yield pid, {"i": i, "j": j, "m": m, "n": n, "state": _draw_state(rng, cfg)}


def _eval_id110_roots(cfg, payload):
    i, j, m, n = (payload[k] for k in "ijmn")
    alpha = LatticeConfig(cfg.M, cfg.q).root(i, j)
    lhs = commutator(VertexMode(alpha, 2 * m), VertexMode(-alpha, 2 * n), cfg.M)
    f = cocycle(alpha, -alpha)
    return lhs, OpSum(((f, Current(alpha, m + n)), (f * m if m + n == 0 else 0, OpProduct(()))))


def _gen_id110_pairs(cfg):
    M = cfg.M
    for pid, rng in _cycle(cfg, ("form1", "form2"), "id110", "1.10(2)"):
        i = rng.randint(1, M)
        j = rng.choice([v for v in range(1, M + 1) if v != i])
        state = _draw_state(rng, cfg)
        yield pid, {"i": i, "j": j, "n": rng.randint(-2, 2), "form": pid, "state": state}


def _eval_id110_pairs(cfg, payload):
    i, j, n = payload["i"], payload["j"], payload["n"]
    lat = LatticeConfig(cfg.M, cfg.q)
    a, b = lat.e(i), -lat.e(j)
    if payload["form"] == "form2":
        a, b = b, a
    return NormalPairSum(a, b, n), OpSum(((cocycle(a, b), VertexMode(lat.root(i, j), 2 * n)),))


def _gen_id110_current(cfg):
    for pid, rng in _cycle(cfg, ("n<0", "n=0", "n>0"), "id110", "1.10(3)"):
        i = rng.randint(1, cfg.M)
        n = 0 if pid == "n=0" else rng.randint(1, 2) * (1 if pid == "n>0" else -1)
        yield pid, {"i": i, "n": n, "state": _draw_state(rng, cfg)}


def _eval_id110_current(cfg, payload):
    ei, n = LatticeConfig(cfg.M, cfg.q).e(payload["i"]), payload["n"]
    return NormalPairSum(ei, -ei, n), Current(ei, n)


# ---------------------------------------------------------------------------
# the clause table


def _rows(clauses, kind, label, evaluate):
    return {c: (partial(_gen_rows, clause=c, kind=kind, label=label), evaluate)
            for c in clauses}


# family -> clause -> (generate(cfg), evaluate(cfg, payload) -> (lhs, rhs)), in report order
_CLAUSES = {
    "cocycle": {
        "cocycle-identity": (
            lambda cfg: _tuples(cfg, ("cocycle", "cocycle-identity"), _box_space(cfg), "abc",
                                1_000_000),
            _eval_cocycle_identity,
        ),
        "sign-law": (
            lambda cfg: _tuples(cfg, ("cocycle", "sign-law"), _box_space(cfg), "ab", 1_000_000),
            _eval_sign_law,
        ),
        "bimultiplicative": (_gen_bimultiplicative, _eval_bimultiplicative),
        "basis-table": (_gen_basis_table, _eval_basis_table),
        "bilinear-form": (_gen_bilinear_form, _eval_bilinear_form),
        "parity": (_gen_parity, _eval_parity),
    },
    "jacobi": {
        "super-jacobi": (
            lambda cfg: _tuples(cfg, ("jacobi", "super-jacobi"), _symbols(cfg), "xyz", 5000),
            _eval_jacobi,
        ),
    },
    "form": {
        "supersymmetric": (partial(_gen_form_pairs, mixed_only=False), _eval_supersymmetric),
        "even": (partial(_gen_form_pairs, mixed_only=True), _eval_even),
        "invariant": (
            lambda cfg: _tuples(cfg, ("form", "invariant"), _symbols(cfg), "xyz", 0),
            _eval_invariant,
        ),
    },
    "rtables": _rows(tables.R_CLAUSES, "R", "table", _eval_table),
    "sttables": _rows(tables.ST_CLAUSES, "ST", "table", _eval_table),
    "prop33": {
        "3.1(1)": (partial(_gen_boson31, clause="3.1(1)"),
                   lambda cfg, p: _eval_boson31(p, phi_apply, phi_apply, False)),
        "3.1(2)": (partial(_gen_boson31, clause="3.1(2)"),
                   lambda cfg, p: _eval_boson31(p, phi_star_apply, phi_star_apply, False)),
        "3.1(3)": (partial(_gen_boson31, clause="3.1(3)"),
                   lambda cfg, p: _eval_boson31(p, phi_apply, phi_star_apply, True)),
        **_rows(tables.R_CLAUSES, "R", "hom", _eval_hom),
    },
    "thm46": {
        **_rows(tables.ST_CLAUSES, "ST", "hom", _eval_hom),
        "Kq-identity": (_gen_kq_identity, _eval_kq_identity),
        "central-witness": (_gen_central_witness, _eval_central_witness),
        "central-consistency": (_gen_central_consistency, _eval_central_consistency),
        "4.4-product": (_gen_product44, _eval_product44),
    },
    "lemma49": {
        "lemma4.9": (_gen_lemma49, _eval_lemma49),
        "lemma2.8": (_gen_lemma28, _eval_lemma28),
    },
    "corollary19": {
        "1.9(1)": (_gen_cor19_roots, _eval_cor19_roots),
        "1.9(2)": (_gen_cor19_odd, _eval_cor19_odd),
        "1.9(3)": (_gen_cor19_current, _eval_cor19_current),
    },
    "identity110": {
        "1.10(1)": (_gen_id110_roots, _eval_id110_roots),
        "1.10(2)": (_gen_id110_pairs, _eval_id110_pairs),
        "1.10(3)": (_gen_id110_current, _eval_id110_current),
    },
}
FAMILY_ORDER = tuple(_CLAUSES)

# the encoder of each kind of payload value or check side, by name on serialize; any
# other value (an int, an int list, a string, a float power of -1, "nonzero") is kept
_CODECS = {
    TensorState: "tensor_state_to_obj",
    BosonState: "boson_state_to_obj",
    GLElement: "gl_element_to_obj",
    ToroidalElement: "toroidal_to_obj",
    Fraction: "frac_to_str",
    LatticeVector: "vector_to_obj",
    **dict.fromkeys((VertexMode, PhiMode, PhiStarMode), "operator_to_obj"),
}


def _serialize(value):
    """A payload (a dict, encoded value by value) or a check side as JSON objects."""
    if type(value) is dict:
        return {k: _serialize(v) for k, v in value.items()}
    codec = _CODECS.get(type(value))
    return value if codec is None else getattr(ser, codec)(value)


# the reader of each payload field of a library object, by name on serialize, and the
# string fields; x, y, z are vectors in cocycle only, and a 3.1(*) state is a boson state
_FIELD_READERS = {
    **dict.fromkeys(("a", "b", "c", "alpha", "beta"), "vector_from_obj"),
    **dict.fromkeys(("x1", "y1", "x2", "y2"), "operator_from_obj"),
    "state": "tensor_state_from_obj",
}
_STRING_FIELDS = ("slot", "case", "row", "variant", "form")


def _payload_from_obj(cfg, family, clause, obj):
    """A recorded payload as its generator yields it; every other field holds ints.

    Vectors, operators and tensor states are read at the lattice shape
    their generator draws, q = 1 in prop33 (its R rows) and the config's q
    otherwise, and a reader's error names its field.
    """
    payload = {}
    for name, value in ser._object(obj, "a payload").items():
        reader = _FIELD_READERS.get(name)
        if family == "cocycle" and name in ("x", "y", "z"):
            reader = "vector_from_obj"
        elif name == "state" and family == "prop33" and clause.startswith("3.1"):
            reader = "boson_state_from_obj"
        if reader is not None:
            shape = LatticeConfig(cfg.M, 1 if family == "prop33" else cfg.q)
            read = getattr(ser, reader)
            try:
                value = read(value) if reader == "boson_state_from_obj" else read(value, shape)
            except ValueError as exc:
                raise ValueError(f"payload field {name}: {exc}") from None
        elif name in _STRING_FIELDS:
            if type(value) is not str:
                raise ValueError(f"payload field {name} must be a string, got {value!r}")
        elif isinstance(value, dict):
            value = {k: ser._int(v, name) for k, v in value.items()}
        else:
            value = ser._ints(value, name) if isinstance(value, list) else ser._int(value, name)
        payload[name] = value
    return payload


def _refuse_config(family, cfg):
    """Raise where a family cannot run at cfg: every family needs M, q and samples >= 1
    and N, the degree and the box >= 0, every family but cocycle draws from gl(M|N) with
    N >= 1, corollary19 and identity110 need M >= 2 for their root pairs, and the
    toroidal tables and thm46 need q >= 2."""
    for name, low in (("M", 1), ("N", 0), ("q", 1), ("max_degree", 0), ("exponent_box", 0),
                      ("samples", 1)):
        if getattr(cfg, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {name} = {getattr(cfg, name)}")
    if family != "cocycle" and cfg.N < 1:
        raise ValueError(f"the {family} family needs N >= 1, got N = {cfg.N}")
    if family in ("corollary19", "identity110") and cfg.M < 2:
        raise ValueError(f"the {family} family needs M >= 2 for its root pairs, got M = {cfg.M}")
    if family in ("sttables", "thm46") and cfg.q < 2:
        raise ValueError(f"the {family} family needs q >= 2")


def _generate(family, cfg, clause):
    _refuse_config(family, cfg)
    return _CLAUSES[family][clause][0](cfg)


def _evaluate(family, cfg, clause, payload):
    """(ok, adjudicated, note, lhs, rhs) with both sides as library objects, ok as _holds
    judges the sides.

    Only the printed-table families adjudicate: a failing row with a
    known print typo at these indices is reported with its note.
    """
    lhs, rhs = _CLAUSES[family][clause][1](cfg, payload)
    ok = _holds(lhs, rhs, payload)
    adjudicated, note = False, None
    if not ok and family in ("rtables", "sttables"):
        adj = tables.ADJUDICATIONS.get(payload["row"])
        if adj is not None and adj["predicate"](payload["indices"]):
            adjudicated, note = True, adj["note"]
    return ok, adjudicated, note, lhs, rhs


FAMILIES = {
    family: {
        "clauses": tuple(clauses),
        "generate": partial(_generate, family),
        "evaluate": partial(_evaluate, family),
    }
    for family, clauses in _CLAUSES.items()
}


def evaluate_check(cfg: CheckConfig, family: str, clause: str, payload):
    """Re-run one check from its recorded payload, with both sides encoded; the replay
    entry point."""
    requested_families(cfg, [family])
    if clause not in _CLAUSES[family]:
        raise ValueError(f"unknown clause {clause!r} of family {family!r}")
    payload = _payload_from_obj(cfg, family, clause, payload)
    ok, adj, note, lhs, rhs = FAMILIES[family]["evaluate"](cfg, clause, payload)
    return ok, adj, note, _side(lhs, payload), _side(rhs, payload)


# ---------------------------------------------------------------------------
# runner and report


def _run_clause(cfg: CheckConfig, family: str, clause: str) -> dict:
    """Run a clause's checks, counting each check's one outcome; only an adjudicated
    check keeps its note, and only the first fail records its counterexample."""
    spec = FAMILIES[family]
    t0 = time.perf_counter()
    counts = dict.fromkeys(("pass", "fail", "adjudicated"), 0)
    patterns = {}
    notes = []
    counterexample = None
    for pattern, payload in spec["generate"](cfg, clause):
        ok, adj, note, lhs, rhs = spec["evaluate"](cfg, clause, payload)
        patterns[pattern] = patterns.get(pattern, 0) + 1
        outcome = "pass" if ok else "adjudicated" if adj else "fail"
        counts[outcome] += 1
        if outcome == "adjudicated" and note and note not in notes:
            notes.append(note)
        elif outcome == "fail" and counterexample is None:
            counterexample = {
                "family": family,
                "clause": clause,
                "pattern": pattern,
                "config": cfg.to_obj(),
                "payload": _serialize(payload),
                "lhs": _side(lhs, payload),
                "rhs": _side(rhs, payload),
            }
            if "row" in payload:
                # spell out the bracket arguments the row encodes
                x, y, _ = _build_row(cfg, payload)
                counterexample["x"] = ser.toroidal_to_obj(x)
                counterexample["y"] = ser.toroidal_to_obj(y)
    hits = sum(counts.values())
    return {
        **counts,
        "hits": hits,
        "ok": counts["fail"] == 0 and hits > 0,
        "patterns": dict(sorted(patterns.items())),
        "notes": notes,
        "counterexample": counterexample,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
    }


def requested_families(cfg: CheckConfig, families=None) -> list:
    """The families to run, a family named twice once where it is first named; raises
    where one is unknown or cannot run at cfg, before any family runs."""
    families = list(dict.fromkeys(FAMILY_ORDER if families is None else families))
    if not families:
        raise ValueError(f"no family requested; known: {', '.join(FAMILY_ORDER)}")
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}; known: {', '.join(FAMILY_ORDER)}")
        _refuse_config(fam, cfg)
    return families


def run(cfg: CheckConfig, families=None) -> dict:
    """Run the requested families and assemble the report."""
    families = requested_families(cfg, families)
    report = {"config": cfg.to_obj(), "families": {}, "coverage": {},
              "adjudications": [], "all_pass": True}
    for fam in families:
        cells = {}
        for clause in FAMILIES[fam]["clauses"]:
            cells[clause] = c = _run_clause(cfg, fam, clause)
            # the generic side of each R-row evaluates the finite bracket
            # table clause of the same number
            for covered in (clause, "T" + clause[1:]) if fam == "rtables" else (clause,):
                report["coverage"][covered] = report["coverage"].get(covered, 0) + c["hits"]
            report["adjudications"] += ({"family": fam, "clause": clause,
                                         "count": c["adjudicated"], "note": note}
                                        for note in c["notes"])
        fam_ok = all(c["ok"] for c in cells.values())
        report["families"][fam] = {
            "clauses": cells,
            "pass": fam_ok,
            "elapsed_ms": round(sum(c["elapsed_ms"] for c in cells.values()), 3),
        }
        report["all_pass"] = report["all_pass"] and fam_ok
    report["adjudications"].sort(key=lambda a: (a["family"], a["clause"]))
    return report


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def replay_counterexample(obj) -> dict:
    """Re-run a serialized counterexample and compare with the record.

    Returns the fresh outcome plus whether the recorded failure was
    reproduced bit-exactly.
    """
    ser._object(obj, "a counterexample record")
    for name in ("family", "clause"):
        if not isinstance(obj[name], str):
            raise ValueError(f"record field {name} must be a string, got {obj[name]!r}")
    cfg = CheckConfig.from_obj(obj["config"])
    ok, adj, note, lhs, rhs = evaluate_check(cfg, obj["family"], obj["clause"], obj["payload"])
    return {
        "family": obj["family"],
        "clause": obj["clause"],
        "pattern": obj.get("pattern"),
        "ok": ok,
        "adjudicated": adj,
        "note": note,
        "lhs": lhs,
        "rhs": rhs,
        "reproduced": (not ok) and lhs == obj["lhs"] and rhs == obj["rhs"],
    }
