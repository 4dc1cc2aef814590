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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product

from . import serialize as ser
from . import tables
from .lattice import LatticeConfig, LatticeVector, bilinear, cocycle, parity
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
    apply,
    rho,
    super_commutator,
)

FAMILY_ORDER = (
    "cocycle",
    "jacobi",
    "form",
    "rtables",
    "sttables",
    "prop33",
    "thm46",
    "lemma49",
    "corollary19",
    "identity110",
)


@dataclass(frozen=True)
class CheckConfig:
    M: int = 3
    N: int = 2
    q: int = 2
    max_degree: int = 6
    exponent_box: int = 2
    samples: int = 20
    seed: int = 0

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj) -> "CheckConfig":
        return cls(**{k: int(v) for k, v in obj.items()})


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


def _random_vector(rng, M, q, box, gamma_parity=None, q_only=False, gamma_only=False):
    while True:
        e = tuple(rng.randint(-box, box) for _ in range(M))
        if gamma_parity is not None and sum(e) % 2 != gamma_parity:
            continue
        break
    if gamma_only:
        z = (0,) * (q - 1)
        return LatticeVector(e, z, z)
    delta = tuple(rng.randint(-box, box) for _ in range(q - 1))
    if q_only:
        d = (0,) * (q - 1)
    else:
        d = tuple(rng.randint(-box, box) for _ in range(q - 1))
    return LatticeVector(e, delta, d)


def _random_coeff(rng) -> Fraction:
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(num, rng.randint(1, 3))


def _random_state(rng, M, N, q, max_degree, box) -> TensorState:
    """Nonzero homogeneous state within the doubled degree budget."""
    lat = LatticeConfig(M, q)
    par = rng.randint(0, 1) if box > 0 else 0  # box 0 pins gamma to 0
    while True:
        terms = {}
        for _ in range(rng.randint(1, 2)):
            budget = max_degree
            gamma = _random_vector(rng, M, q, box, gamma_parity=par)
            mono = []
            while budget >= 2 and rng.random() < 0.6:
                n = rng.randint(1, budget // 2)
                mono.append((rng.randrange(lat.rank), n))
                budget -= 2 * n
            phi, phis = [], []
            while budget >= 1 and rng.random() < 0.5:
                mag = 2 * rng.randint(0, (budget - 1) // 2) + 1
                mode = (rng.randint(1, N), -mag)
                if rng.random() < 0.5:
                    phi.append(mode)
                else:
                    phis.append(mode)
                budget -= mag
            key = (
                (gamma, tuple(sorted(mono))),
                (tuple(sorted(phi)), tuple(sorted(phis))),
            )
            terms[key] = terms.get(key, Fraction(0)) + _random_coeff(rng)
        state = TensorState(terms)
        if not state.is_zero():
            return state


def gen_state(cfg: CheckConfig, seed_offset) -> TensorState:
    """Deterministic pseudo-random homogeneous state for this config."""
    rng = derive_rng(cfg.seed, "state", seed_offset)
    return _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, cfg.exponent_box)


def _random_boson_state(rng, N, max_degree) -> BosonState:
    while True:
        terms = {}
        for _ in range(rng.randint(1, 2)):
            budget = max_degree
            phi, phis = [], []
            while budget >= 1 and rng.random() < 0.6:
                mag = 2 * rng.randint(0, (budget - 1) // 2) + 1
                mode = (rng.randint(1, N), -mag)
                (phi if rng.random() < 0.5 else phis).append(mode)
                budget -= mag
            key = (tuple(sorted(phi)), tuple(sorted(phis)))
            terms[key] = terms.get(key, Fraction(0)) + _random_coeff(rng)
        s = BosonState(terms)
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


# ---------------------------------------------------------------------------
# cocycle family


_COCYCLE_CLAUSES = (
    "cocycle-identity",
    "sign-law",
    "bimultiplicative",
    "basis-table",
    "bilinear-form",
    "parity",
)


def _box_vectors(M, box):
    return list(product(range(-box, box + 1), repeat=M))


def _gen_cocycle(cfg, clause):
    box, M, q = cfg.exponent_box, cfg.M, cfg.q
    zq = (0,) * (q - 1)

    def vec(e):
        return LatticeVector(tuple(e), zq, zq)

    if clause == "cocycle-identity":
        space = _box_vectors(M, box)
        if len(space) ** 3 <= 1_000_000:
            for a in space:
                for b in space:
                    for c in space:
                        yield "exhaustive", {"a": ser.vector_to_obj(vec(a)),
                                             "b": ser.vector_to_obj(vec(b)),
                                             "c": ser.vector_to_obj(vec(c))}
        else:
            rng = derive_rng(cfg.seed, "cocycle", clause)
            for _ in range(cfg.samples):
                a, b, c = (rng.choice(space) for _ in range(3))
                yield "sampled", {"a": ser.vector_to_obj(vec(a)),
                                  "b": ser.vector_to_obj(vec(b)),
                                  "c": ser.vector_to_obj(vec(c))}
    elif clause == "sign-law":
        space = _box_vectors(M, box)
        if len(space) ** 2 <= 1_000_000:
            for a in space:
                for b in space:
                    yield "exhaustive", {"a": ser.vector_to_obj(vec(a)),
                                         "b": ser.vector_to_obj(vec(b))}
        else:
            rng = derive_rng(cfg.seed, "cocycle", clause)
            for _ in range(cfg.samples):
                yield "sampled", {"a": ser.vector_to_obj(vec(rng.choice(space))),
                                  "b": ser.vector_to_obj(vec(rng.choice(space)))}
    elif clause == "bimultiplicative":
        for k in range(max(cfg.samples, 2)):
            slot = ("left", "right")[k % 2]
            rng = derive_rng(cfg.seed, "cocycle", clause, slot, k)
            x = _random_vector(rng, M, q, box, q_only=True)
            y = _random_vector(rng, M, q, box, q_only=True)
            z = _random_vector(rng, M, q, box, q_only=(slot == "left"))
            yield slot, {"x": ser.vector_to_obj(x), "y": ser.vector_to_obj(y),
                         "z": ser.vector_to_obj(z), "slot": slot}
    elif clause == "basis-table":
        rng = derive_rng(cfg.seed, "cocycle", clause)
        for i in range(1, M + 1):
            for j in range(1, M + 1):
                yield "ee", {"case": "ee", "i": i, "j": j,
                             "expected": 1 if i <= j else -1}
        alpha = _random_vector(rng, M, q, box, q_only=True)
        yield "zero", {"case": "zero-left", "alpha": ser.vector_to_obj(alpha), "expected": 1}
        yield "zero", {"case": "zero-right", "alpha": ser.vector_to_obj(alpha), "expected": 1}
        for j in range(1, q):
            for i in range(1, M + 1):
                yield "delta", {"case": "e-delta", "i": i, "j": j, "expected": 1}
                yield "delta", {"case": "delta-e", "i": i, "j": j, "expected": 1}
            for l in range(1, q):
                yield "delta", {"case": "delta-delta", "i": j, "j": l, "expected": 1}
            beta = _random_vector(rng, M, q, box, q_only=True)
            yield "dgen", {"case": "x-d", "alpha": ser.vector_to_obj(beta), "j": j,
                           "expected": 1}
    elif clause == "bilinear-form":
        for k in range(max(cfg.samples, 2)):
            slot = ("linear", "symmetric")[k % 2]
            rng = derive_rng(cfg.seed, "cocycle", clause, slot, k)
            a = _random_vector(rng, M, q, box)
            b = _random_vector(rng, M, q, box)
            c = _random_vector(rng, M, q, box)
            yield slot, {"a": ser.vector_to_obj(a), "b": ser.vector_to_obj(b),
                         "c": ser.vector_to_obj(c), "m": rng.randint(-3, 3),
                         "n": rng.randint(-3, 3), "slot": slot}
    elif clause == "parity":
        for k in range(max(cfg.samples, 2)):
            slot = ("additive", "norm")[k % 2]
            rng = derive_rng(cfg.seed, "cocycle", clause, slot, k)
            a = _random_vector(rng, M, q, box)
            b = _random_vector(rng, M, q, box)
            yield slot, {"a": ser.vector_to_obj(a), "b": ser.vector_to_obj(b), "slot": slot}


def _eval_cocycle(cfg, clause, payload):
    if clause == "cocycle-identity":
        a = ser.vector_from_obj(payload["a"])
        b = ser.vector_from_obj(payload["b"])
        c = ser.vector_from_obj(payload["c"])
        lhs = cocycle(a, b) * cocycle(a + b, c)
        rhs = cocycle(b, c) * cocycle(a, b + c)
        return lhs == rhs, lhs, rhs
    if clause == "sign-law":
        a = ser.vector_from_obj(payload["a"])
        b = ser.vector_from_obj(payload["b"])
        lhs = cocycle(a, b) * cocycle(b, a)
        rhs = (-1) ** (bilinear(a, b) + parity(a) * parity(b))
        return lhs == rhs, lhs, rhs
    if clause == "bimultiplicative":
        x = ser.vector_from_obj(payload["x"])
        y = ser.vector_from_obj(payload["y"])
        z = ser.vector_from_obj(payload["z"])
        if payload["slot"] == "left":
            lhs, rhs = cocycle(x + y, z), cocycle(x, z) * cocycle(y, z)
        else:
            lhs, rhs = cocycle(x, y + z), cocycle(x, y) * cocycle(x, z)
        return lhs == rhs, lhs, rhs
    if clause == "basis-table":
        lat = LatticeConfig(cfg.M, cfg.q)
        case = payload["case"]
        if case == "ee":
            lhs = cocycle(lat.e(payload["i"]), lat.e(payload["j"]))
        elif case == "zero-left":
            lhs = cocycle(lat.zero(), ser.vector_from_obj(payload["alpha"]))
        elif case == "zero-right":
            lhs = cocycle(ser.vector_from_obj(payload["alpha"]), lat.zero())
        elif case == "e-delta":
            lhs = cocycle(lat.e(payload["i"]), lat.delta(payload["j"]))
        elif case == "delta-e":
            lhs = cocycle(lat.delta(payload["j"]), lat.e(payload["i"]))
        elif case == "delta-delta":
            lhs = cocycle(lat.delta(payload["i"]), lat.delta(payload["j"]))
        elif case == "x-d":
            lhs = cocycle(ser.vector_from_obj(payload["alpha"]), lat.dgen(payload["j"]))
        else:
            raise ValueError(f"unknown basis-table case {case!r}")
        rhs = payload["expected"]
        return lhs == rhs, lhs, rhs
    if clause == "bilinear-form":
        a = ser.vector_from_obj(payload["a"])
        b = ser.vector_from_obj(payload["b"])
        c = ser.vector_from_obj(payload["c"])
        if payload["slot"] == "linear":
            m, n = payload["m"], payload["n"]
            lhs = bilinear(m * a + n * b, c)
            rhs = m * bilinear(a, c) + n * bilinear(b, c)
        else:
            lhs, rhs = bilinear(a, b), bilinear(b, a)
        return lhs == rhs, lhs, rhs
    if clause == "parity":
        a = ser.vector_from_obj(payload["a"])
        b = ser.vector_from_obj(payload["b"])
        if payload["slot"] == "additive":
            lhs = parity(a + b)
            rhs = (parity(a) + parity(b)) % 2
        else:
            lhs, rhs = parity(a), bilinear(a, a) % 2
        return lhs == rhs, lhs, rhs
    raise ValueError(f"unknown cocycle clause {clause!r}")


# ---------------------------------------------------------------------------
# jacobi and form families


def _gen_jacobi(cfg, clause):
    alg = Superalgebra(cfg.M, cfg.N)
    syms = list(alg.symbols())
    if len(syms) ** 3 <= 5000:
        for x in syms:
            for y in syms:
                for z in syms:
                    yield "exhaustive", {"x": list(x), "y": list(y), "z": list(z)}
    else:
        rng = derive_rng(cfg.seed, "jacobi", clause)
        for _ in range(cfg.samples):
            x, y, z = (rng.choice(syms) for _ in range(3))
            yield "sampled", {"x": list(x), "y": list(y), "z": list(z)}


def _eval_jacobi(cfg, clause, payload):
    alg = Superalgebra(cfg.M, cfg.N)
    x, y, z = (tuple(payload[k]) for k in ("x", "y", "z"))
    sign = (-1) ** (alg.parity_symbol(x) * alg.parity_symbol(y))
    lhs = alg.bracket_el(alg.bracket(x, y), GLElement.symbol(*z))
    rhs = alg.bracket_el(GLElement.symbol(*x), alg.bracket(y, z)) - sign * alg.bracket_el(
        GLElement.symbol(*y), alg.bracket(x, z)
    )
    return lhs == rhs, ser.gl_element_to_obj(lhs), ser.gl_element_to_obj(rhs)


_FORM_CLAUSES = ("supersymmetric", "even", "invariant")


def _gen_form(cfg, clause):
    alg = Superalgebra(cfg.M, cfg.N)
    syms = list(alg.symbols())
    if clause in ("supersymmetric", "even"):
        for x in syms:
            for y in syms:
                if clause == "even" and alg.parity_symbol(x) == alg.parity_symbol(y):
                    continue
                yield "exhaustive", {"x": list(x), "y": list(y)}
    else:
        rng = derive_rng(cfg.seed, "form", clause)
        for _ in range(cfg.samples):
            x, y, z = (rng.choice(syms) for _ in range(3))
            yield "sampled", {"x": list(x), "y": list(y), "z": list(z)}


def _eval_form(cfg, clause, payload):
    alg = Superalgebra(cfg.M, cfg.N)
    x = tuple(payload["x"])
    y = tuple(payload["y"])
    if clause == "supersymmetric":
        sign = (-1) ** (alg.parity_symbol(x) * alg.parity_symbol(y))
        lhs, rhs = alg.form(x, y), sign * alg.form(y, x)
    elif clause == "even":
        lhs, rhs = alg.form(x, y), Fraction(0)
    else:
        z = tuple(payload["z"])
        lhs = alg.form_el(alg.bracket(x, y), GLElement.symbol(*z))
        rhs = alg.form_el(GLElement.symbol(*x), alg.bracket(y, z))
    return lhs == rhs, ser.frac_to_str(lhs), ser.frac_to_str(rhs)


# ---------------------------------------------------------------------------
# printed tables vs generic bracket


def _table_rows(kind):
    rows = tables.R_ROWS if kind == "R" else tables.ST_ROWS
    index = {}
    for row in rows:
        index.setdefault(row.clause, []).append(row)
    return rows, index


_ROW_BY_ID = {r.row: r for r in tables.R_ROWS + tables.ST_ROWS}


def _feasible_combos(by_clause, clause, M, N):
    """Row/pattern pairs satisfiable at this algebra size."""
    probe = random.Random(0)
    out = []
    for row in by_clause[clause]:
        for pid, cons in row.patterns:
            if tables.solve_pattern(row.vars, cons, M, N, probe) is not None:
                out.append((row, pid, cons))
    return out


def _gen_table(cfg, clause, kind):
    if kind == "ST" and cfg.q < 2:
        raise ValueError("the toroidal table family needs q >= 2")
    qeff = 1 if kind == "R" else cfg.q
    _, by_clause = _table_rows(kind)
    # cross index patterns with exponent patterns so that every joint
    # cell is hit; cycling both by the same counter would alias and, for
    # example, never pair a double-delta row with exponents that keep
    # its central term alive
    cells = [
        (row, pid, cons, ep)
        for row, pid, cons in _feasible_combos(by_clause, clause, cfg.M, cfg.N)
        for ep in _EXP_PATTERNS
    ]
    total = max(cfg.samples, len(cells))
    for k in range(total):
        row, pid, cons, ep = cells[k % len(cells)]
        rng = derive_rng(cfg.seed, "table", clause, row.row, pid, ep, k)
        idx = tables.solve_pattern(row.vars, cons, cfg.M, cfg.N, rng)
        me, ne = _exp_pair(rng, qeff, cfg.exponent_box, ep)
        yield f"{row.row}|{pid}|{ep}", {
            "row": row.row,
            "indices": idx,
            "me": list(me),
            "ne": list(ne),
        }


def _eval_table(cfg, clause, payload):
    alg = Superalgebra(cfg.M, cfg.N)
    row = _ROW_BY_ID[payload["row"]]
    idx = {k: int(v) for k, v in payload["indices"].items()}
    me = tuple(payload["me"])
    ne = tuple(payload["ne"])
    x, y, printed = row.build(alg, idx, me, ne)
    generic = alg.bracket_toroidal(x, y)
    ok = printed == generic
    adjudicated = False
    note = None
    if not ok:
        adj = tables.ADJUDICATIONS.get(row.row)
        if adj is not None and adj["predicate"](idx):
            adjudicated = True
            note = adj["note"]
    return ok, adjudicated, note, ser.toroidal_to_obj(printed), ser.toroidal_to_obj(generic)


# ---------------------------------------------------------------------------
# representation families


def _gen_hom(cfg, clause, kind, qeff):
    _, by_clause = _table_rows(kind)
    cells = [
        (row, pid, cons, ep)
        for row, pid, cons in _feasible_combos(by_clause, clause, cfg.M, cfg.N)
        for ep in _EXP_PATTERNS
    ]
    total = max(cfg.samples, len(cells))
    for k in range(total):
        row, pid, cons, ep = cells[k % len(cells)]
        rng = derive_rng(cfg.seed, "hom", clause, row.row, pid, ep, k)
        idx = tables.solve_pattern(row.vars, cons, cfg.M, cfg.N, rng)
        me, ne = _exp_pair(rng, qeff, cfg.exponent_box, ep)
        state = _random_state(rng, cfg.M, cfg.N, qeff, cfg.max_degree, cfg.exponent_box)
        yield f"{row.row}|{pid}|{ep}", {
            "row": row.row,
            "indices": idx,
            "me": list(me),
            "ne": list(ne),
            "state": ser.tensor_state_to_obj(state),
        }


def _eval_hom(cfg, clause, payload):
    alg = Superalgebra(cfg.M, cfg.N)
    row = _ROW_BY_ID[payload["row"]]
    idx = {k: int(v) for k, v in payload["indices"].items()}
    me = tuple(payload["me"])
    ne = tuple(payload["ne"])
    lat = LatticeConfig(cfg.M, len(me))
    x, y, _ = row.build(alg, idx, me, ne)
    state = ser.tensor_state_from_obj(payload["state"], lat)
    lhs = super_commutator(rho(x, lat), rho(y, lat), state)
    rhs = apply(rho(alg.bracket_toroidal(x, y), lat), state)
    return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)


_BOSON_PATTERNS = ("diag-contract", "diag-free", "offdiag")


def _gen_boson31(cfg, clause):
    rel = clause  # "3.1(1)" etc
    for k in range(max(cfg.samples, len(_BOSON_PATTERNS))):
        pid = _BOSON_PATTERNS[k % 3]
        rng = derive_rng(cfg.seed, "boson", rel, pid, k)
        box = max(cfg.exponent_box, 1)
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
        yield pid, {"i": i, "j": j, "r": r, "s": s_idx,
                    "state": ser.boson_state_to_obj(state)}


def _eval_boson31(cfg, clause, payload):
    i, j, r, s_idx = payload["i"], payload["j"], payload["r"], payload["s"]
    t = ser.boson_state_from_obj(payload["state"])
    if clause == "3.1(1)":
        lhs = phi_apply(i, r, phi_apply(j, s_idx, t)) - phi_apply(j, s_idx, phi_apply(i, r, t))
        rhs = BosonState.zero()
    elif clause == "3.1(2)":
        lhs = phi_star_apply(i, r, phi_star_apply(j, s_idx, t)) - phi_star_apply(
            j, s_idx, phi_star_apply(i, r, t)
        )
        rhs = BosonState.zero()
    else:
        lhs = phi_apply(i, r, phi_star_apply(j, s_idx, t)) - phi_star_apply(
            j, s_idx, phi_apply(i, r, t)
        )
        rhs = (-1 if (r + s_idx - 1 == 0 and i == j) else 0) * t
    return lhs == rhs, ser.boson_state_to_obj(lhs), ser.boson_state_to_obj(rhs)


# --- thm46 extras


def _gen_thm46_extra(cfg, clause):
    if cfg.q < 2:
        raise ValueError("the toroidal representation family needs q >= 2")
    q, box = cfg.q, cfg.exponent_box
    if clause == "Kq-identity":
        for k in range(max(cfg.samples, 1)):
            rng = derive_rng(cfg.seed, "thm46", clause, k)
            state = _random_state(rng, cfg.M, cfg.N, q, cfg.max_degree, box)
            yield "identity", {"state": ser.tensor_state_to_obj(state)}
    elif clause == "central-witness":
        lat = LatticeConfig(cfg.M, q)
        per = max(1, cfg.samples // q)
        for direction in range(1, q + 1):
            for k in range(per):
                rng = derive_rng(cfg.seed, "thm46", clause, direction, k)
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
                yield f"K{direction}", {
                    "direction": direction,
                    "mbar": mbar,
                    "state": ser.tensor_state_to_obj(state),
                }
    elif clause == "central-consistency":
        variants = ("remark-form", "antisymmetry")
        for k in range(max(cfg.samples, 2)):
            variant = variants[k % 2]
            rng = derive_rng(cfg.seed, "thm46", clause, variant, k)
            mbar = [rng.randint(-box, box) for _ in range(q)]
            nbar = [rng.randint(-box, box) for _ in range(q)]
            state = _random_state(rng, cfg.M, cfg.N, q, cfg.max_degree, box)
            yield variant, {"variant": variant, "mbar": mbar, "nbar": nbar,
                            "state": ser.tensor_state_to_obj(state)}
    elif clause == "4.4-product":
        # roots alpha_ij need two e-directions
        pats = ("alpha-root", "alpha-ei") if cfg.M >= 2 else ("alpha-ei",)
        for k in range(max(cfg.samples, 2)):
            pid = pats[k % len(pats)]
            rng = derive_rng(cfg.seed, "thm46", clause, pid, k)
            lat = LatticeConfig(cfg.M, q)
            if pid == "alpha-root":
                i = rng.randint(1, cfg.M)
                j = rng.choice([v for v in range(1, cfg.M + 1) if v != i])
                alpha = lat.root(i, j)
                idx = 2 * rng.randint(-2, 2)
            else:
                alpha = lat.e(rng.randint(1, cfg.M))
                idx = 2 * rng.randint(-2, 2) - 1
            mu = [rng.randint(-box, box) for _ in range(q - 1)]
            state = _random_state(rng, cfg.M, cfg.N, q, cfg.max_degree, box)
            yield pid, {"alpha": ser.vector_to_obj(alpha), "mu": mu, "index": idx,
                        "state": ser.tensor_state_to_obj(state)}
    else:
        raise ValueError(f"unknown thm46 clause {clause!r}")


def _eval_thm46_extra(cfg, clause, payload):
    state = ser.tensor_state_from_obj(payload["state"])
    M, q = cfg.M, cfg.q
    lat = LatticeConfig(M, q)
    if clause == "Kq-identity":
        img = apply(rho(ToroidalElement.k(q, (0,) * q), lat), state)
        return img == state, ser.tensor_state_to_obj(img), ser.tensor_state_to_obj(state)
    if clause == "central-witness":
        x = ToroidalElement.k(payload["direction"], tuple(payload["mbar"]))
        img = apply(rho(x, lat), state)
        return (not img.is_zero()), ser.tensor_state_to_obj(img), "nonzero"
    if clause == "central-consistency":
        mbar = tuple(payload["mbar"])
        nbar = tuple(payload["nbar"])
        lhs = apply(rho(d_cocycle(mbar, nbar), lat), state)
        if payload["variant"] == "antisymmetry":
            rhs = -1 * apply(rho(d_cocycle(nbar, mbar), lat), state)
        else:
            total = tuple(a + b for a, b in zip(mbar, nbar))
            mu_total = total[:-1]
            s_mode = total[-1]
            dm = lat.delta_sum(mbar[:-1])
            remark = OpSum((
                (Fraction(1), DiagCurrent(dm, s_mode, mu_total)),
                (Fraction(mbar[-1]), VertexMode(lat.delta_sum(mu_total), 2 * s_mode)),
            ))
            rhs = apply(remark, state)
        return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)
    if clause == "4.4-product":
        alpha = ser.vector_from_obj(payload["alpha"], lat)
        mu = tuple(payload["mu"])
        idx = payload["index"]
        lhs = apply(VertexProductSum(alpha, mu, idx), state)
        rhs = apply(VertexMode(alpha + lat.delta_sum(mu), idx), state)
        return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)
    raise ValueError(f"unknown thm46 clause {clause!r}")


# --- lemma and mode identity families


def _gen_lemma(cfg, clause):
    box = cfg.exponent_box
    if clause == "lemma4.9":
        pats = ("mq=0", "mq!=0")
        for k in range(max(cfg.samples, 2)):
            pid = pats[k % 2]
            rng = derive_rng(cfg.seed, "lemma49", clause, pid, k)
            mu = [rng.randint(-box, box) for _ in range(cfg.q - 1)]
            mq = 0 if pid == "mq=0" else rng.choice([v for v in range(-box, box + 1) if v])
            state = _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, box)
            yield pid, {"mu": mu, "mq": mq, "state": ser.tensor_state_to_obj(state)}
    elif clause == "lemma2.8":
        pats = ("yy-commute", "yy-contract")
        for k in range(max(cfg.samples, 2)):
            pid = pats[k % 2]
            rng = derive_rng(cfg.seed, "lemma49", clause, pid, k)
            lat = LatticeConfig(cfg.M, cfg.q)
            sgn = rng.choice((1, -1))
            x1 = VertexMode(sgn * lat.e(rng.randint(1, cfg.M)), 2 * rng.randint(-2, 2) - 1)
            x2 = VertexMode(rng.choice((1, -1)) * lat.e(rng.randint(1, cfg.M)),
                            2 * rng.randint(-2, 2) - 1)
            f1 = rng.randint(1, cfg.N)
            r1 = rng.randint(-2, 2)
            if pid == "yy-contract":
                y1 = PhiMode(f1, r1)
                y2 = PhiStarMode(f1, 1 - r1)
            else:
                y1 = PhiMode(f1, r1)
                y2 = PhiMode(rng.randint(1, cfg.N), rng.randint(-2, 2))
            state = _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, box)
            yield pid, {
                "x1": ser.operator_to_obj(x1), "y1": ser.operator_to_obj(y1),
                "x2": ser.operator_to_obj(x2), "y2": ser.operator_to_obj(y2),
                "state": ser.tensor_state_to_obj(state),
            }
    else:
        raise ValueError(f"unknown lemma clause {clause!r}")


def _eval_lemma(cfg, clause, payload):
    state = ser.tensor_state_from_obj(payload["state"])
    if clause == "lemma4.9":
        lat = LatticeConfig(cfg.M, cfg.q)
        mu = tuple(payload["mu"])
        mq = payload["mq"]
        dm = lat.delta_sum(mu)
        lhs = apply(DiagCurrent(dm, mq, mu), state) + mq * apply(VertexMode(dm, 2 * mq), state)
        rhs = TensorState.zero()
        return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)
    x1 = ser.operator_from_obj(payload["x1"])
    y1 = ser.operator_from_obj(payload["y1"])
    x2 = ser.operator_from_obj(payload["x2"])
    y2 = ser.operator_from_obj(payload["y2"])
    lhs = super_commutator(OpProduct((x1, y1)), OpProduct((x2, y2)), state)
    # [X1,X2] Y1 Y2 - X2 X1 [Y1,Y2], with the odd pair anticommuting
    yy = y1.apply(y2.apply(state)) - y2.apply(y1.apply(state))
    first = y2.apply(state)
    first = y1.apply(first)
    first = x2.apply(x1.apply(first)) + x1.apply(x2.apply(first))
    rhs = first - x2.apply(x1.apply(yy))
    return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)


def _gen_cor19(cfg, clause):
    box = cfg.exponent_box
    M = cfg.M
    if M < 2 and clause == "1.9(1)":
        raise ValueError("the root-pair identity 1.9(1) needs M >= 2")
    if clause == "1.9(1)":
        pats = ("i=k", "i!=k", "i=j")
        for k in range(max(cfg.samples, len(pats))):
            pid = pats[k % len(pats)]
            rng = derive_rng(cfg.seed, "cor19", clause, pid, k)
            j = rng.randint(1, M)
            kk = rng.choice([v for v in range(1, M + 1) if v != j])
            if pid == "i=k":
                i = kk
            elif pid == "i=j":
                i = j
            else:
                choices = [v for v in range(1, M + 1) if v != kk]
                i = rng.choice(choices)
            state = _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, box)
            yield pid, {"i": i, "j": j, "k": kk, "m": rng.randint(-2, 2),
                        "n": rng.randint(-2, 2), "state": ser.tensor_state_to_obj(state)}
    elif clause == "1.9(2)":
        pats = ("i=j,m+n=0", "i=j,m+n!=0", "i!=j")
        for k in range(max(cfg.samples, len(pats))):
            pid = pats[k % len(pats)]
            rng = derive_rng(cfg.seed, "cor19", clause, pid, k)
            i = rng.randint(1, M)
            if pid == "i!=j" and M > 1:
                j = rng.choice([v for v in range(1, M + 1) if v != i])
            else:
                j = i
            m = rng.randint(-2, 2)
            n = -m if pid.endswith("m+n=0") or pid == "i!=j" else m + rng.choice((1, -1, 2))
            state = _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, box)
            yield pid, {"i": i, "j": j, "m": m, "n": n,
                        "state": ser.tensor_state_to_obj(state)}
    elif clause == "1.9(3)":
        pats = ("norm2", "norm1", "norm0")
        for k in range(max(cfg.samples, len(pats))):
            pid = pats[k % len(pats)]
            rng = derive_rng(cfg.seed, "cor19", clause, pid, k)
            lat = LatticeConfig(cfg.M, cfg.q)
            alpha = rng.choice((1, -1)) * lat.e(rng.randint(1, M))
            if pid == "norm2":
                i = rng.randint(1, M)
                j = rng.choice([v for v in range(1, M + 1) if v != i]) if M > 1 else i
                beta = lat.root(i, j) if i != j else lat.zero()
                idx = 2 * rng.randint(-2, 2)
            elif pid == "norm1":
                beta = rng.choice((1, -1)) * lat.e(rng.randint(1, M))
                idx = 2 * rng.randint(-2, 2) - 1
            else:
                beta = lat.zero()
                idx = 2 * rng.randint(-2, 2)
            state = _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, box)
            yield pid, {"alpha": ser.vector_to_obj(alpha), "beta": ser.vector_to_obj(beta),
                        "m": rng.randint(-2, 2), "index": idx,
                        "state": ser.tensor_state_to_obj(state)}
    else:
        raise ValueError(f"unknown corollary clause {clause!r}")


def _eval_cor19(cfg, clause, payload):
    state = ser.tensor_state_from_obj(payload["state"])
    lat = LatticeConfig(cfg.M, cfg.q)
    if clause == "1.9(1)":
        i, j, kk = payload["i"], payload["j"], payload["k"]
        m, n = payload["m"], payload["n"]
        op1 = VertexMode(lat.e(i), 2 * m - 1)
        op2 = VertexMode(lat.root(j, kk), 2 * n)
        lhs = super_commutator(op1, op2, state)
        w = cocycle(lat.e(i), lat.root(j, kk)) if i == kk else 0
        rhs = w * apply(VertexMode(lat.e(j), 2 * (m + n) - 1), state)
        return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)
    if clause == "1.9(2)":
        i, j, m, n = payload["i"], payload["j"], payload["m"], payload["n"]
        op1 = VertexMode(lat.e(i), 2 * m - 1)
        op2 = VertexMode(-lat.e(j), 2 * n + 1)
        lhs = super_commutator(op1, op2, state)
        w = cocycle(lat.e(i), -lat.e(j)) if (i == j and m + n == 0) else 0
        rhs = w * state
        return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)
    alpha = ser.vector_from_obj(payload["alpha"], lat)
    beta = ser.vector_from_obj(payload["beta"], lat)
    m, idx = payload["m"], payload["index"]
    lhs = super_commutator(Current(alpha, m), VertexMode(beta, idx), state)
    rhs = bilinear(alpha, beta) * apply(VertexMode(beta, idx + 2 * m), state)
    return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)


def _gen_id110(cfg, clause):
    box = cfg.exponent_box
    M = cfg.M
    if M < 2 and clause in ("1.10(1)", "1.10(2)"):
        raise ValueError(f"the root-pair identity {clause} needs M >= 2")
    if clause == "1.10(1)":
        pats = ("m+n=0", "m+n!=0", "m=n=0")
        for k in range(max(cfg.samples, len(pats))):
            pid = pats[k % len(pats)]
            rng = derive_rng(cfg.seed, "id110", clause, pid, k)
            i = rng.randint(1, M)
            j = rng.choice([v for v in range(1, M + 1) if v != i])
            if pid == "m=n=0":
                m = n = 0
            else:
                m = rng.choice([v for v in range(-2, 3) if v])
                n = -m if pid == "m+n=0" else m + rng.choice((1, -1))
            state = _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, box)
            yield pid, {"i": i, "j": j, "m": m, "n": n,
                        "state": ser.tensor_state_to_obj(state)}
    elif clause == "1.10(2)":
        pats = ("form1", "form2")
        for k in range(max(cfg.samples, 2)):
            pid = pats[k % 2]
            rng = derive_rng(cfg.seed, "id110", clause, pid, k)
            i = rng.randint(1, M)
            j = rng.choice([v for v in range(1, M + 1) if v != i])
            state = _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, box)
            yield pid, {"i": i, "j": j, "n": rng.randint(-2, 2), "form": pid,
                        "state": ser.tensor_state_to_obj(state)}
    elif clause == "1.10(3)":
        pats = ("n<0", "n=0", "n>0")
        for k in range(max(cfg.samples, 3)):
            pid = pats[k % 3]
            rng = derive_rng(cfg.seed, "id110", clause, pid, k)
            i = rng.randint(1, M)
            n = 0 if pid == "n=0" else rng.randint(1, 2) * (1 if pid == "n>0" else -1)
            state = _random_state(rng, cfg.M, cfg.N, cfg.q, cfg.max_degree, box)
            yield pid, {"i": i, "n": n, "state": ser.tensor_state_to_obj(state)}
    else:
        raise ValueError(f"unknown identity clause {clause!r}")


def _eval_id110(cfg, clause, payload):
    state = ser.tensor_state_from_obj(payload["state"])
    lat = LatticeConfig(cfg.M, cfg.q)
    if clause == "1.10(1)":
        i, j, m, n = payload["i"], payload["j"], payload["m"], payload["n"]
        alpha = lat.root(i, j)
        lhs = super_commutator(VertexMode(alpha, 2 * m), VertexMode(-alpha, 2 * n), state)
        f = cocycle(alpha, -alpha)
        rhs = f * apply(Current(alpha, m + n), state)
        if m + n == 0 and m:
            rhs = rhs + (f * m) * state
        return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)
    if clause == "1.10(2)":
        i, j, n = payload["i"], payload["j"], payload["n"]
        ei, ej = lat.e(i), lat.e(j)
        if payload["form"] == "form1":
            lhs = apply(NormalPairSum(ei, -ej, n), state)
            rhs = cocycle(ei, -ej) * apply(VertexMode(lat.root(i, j), 2 * n), state)
        else:
            lhs = apply(NormalPairSum(-ej, ei, n), state)
            rhs = cocycle(-ej, ei) * apply(VertexMode(lat.root(i, j), 2 * n), state)
        return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)
    i, n = payload["i"], payload["n"]
    ei = lat.e(i)
    lhs = apply(NormalPairSum(ei, -ei, n), state)
    rhs = apply(Current(ei, n), state)
    return lhs == rhs, ser.tensor_state_to_obj(lhs), ser.tensor_state_to_obj(rhs)


# ---------------------------------------------------------------------------
# family registry


_R_CLAUSES = tables.R_CLAUSES
_ST_CLAUSES = tables.ST_CLAUSES


def _family_table():
    fams = {}
    fams["cocycle"] = {
        "clauses": _COCYCLE_CLAUSES,
        "generate": _gen_cocycle,
        "evaluate": _wrap(_eval_cocycle),
    }
    fams["jacobi"] = {
        "clauses": ("super-jacobi",),
        "generate": _gen_jacobi,
        "evaluate": _wrap(_eval_jacobi),
    }
    fams["form"] = {
        "clauses": _FORM_CLAUSES,
        "generate": _gen_form,
        "evaluate": _wrap(_eval_form),
    }
    fams["rtables"] = {
        "clauses": _R_CLAUSES,
        "generate": lambda cfg, clause: _gen_table(cfg, clause, "R"),
        "evaluate": _eval_table,
    }
    fams["sttables"] = {
        "clauses": _ST_CLAUSES,
        "generate": lambda cfg, clause: _gen_table(cfg, clause, "ST"),
        "evaluate": _eval_table,
    }
    prop33_clauses = ("3.1(1)", "3.1(2)", "3.1(3)") + _R_CLAUSES

    def gen_prop33(cfg, clause):
        if clause.startswith("3.1"):
            return _gen_boson31(cfg, clause)
        return _gen_hom(cfg, clause, "R", 1)

    def eval_prop33(cfg, clause, payload):
        if clause.startswith("3.1"):
            return _wrap(_eval_boson31)(cfg, clause, payload)
        return _wrap(_eval_hom)(cfg, clause, payload)

    fams["prop33"] = {
        "clauses": prop33_clauses,
        "generate": gen_prop33,
        "evaluate": eval_prop33,
    }
    thm46_clauses = _ST_CLAUSES + (
        "Kq-identity",
        "central-witness",
        "central-consistency",
        "4.4-product",
    )

    def gen_thm46(cfg, clause):
        if clause in _ST_CLAUSES:
            if cfg.q < 2:
                raise ValueError("the toroidal representation family needs q >= 2")
            return _gen_hom(cfg, clause, "ST", cfg.q)
        return _gen_thm46_extra(cfg, clause)

    def eval_thm46(cfg, clause, payload):
        if clause in _ST_CLAUSES:
            return _wrap(_eval_hom)(cfg, clause, payload)
        return _wrap(_eval_thm46_extra)(cfg, clause, payload)

    fams["thm46"] = {
        "clauses": thm46_clauses,
        "generate": gen_thm46,
        "evaluate": eval_thm46,
    }
    fams["lemma49"] = {
        "clauses": ("lemma4.9", "lemma2.8"),
        "generate": _gen_lemma,
        "evaluate": _wrap(_eval_lemma),
    }
    fams["corollary19"] = {
        "clauses": ("1.9(1)", "1.9(2)", "1.9(3)"),
        "generate": _gen_cor19,
        "evaluate": _wrap(_eval_cor19),
    }
    fams["identity110"] = {
        "clauses": ("1.10(1)", "1.10(2)", "1.10(3)"),
        "generate": _gen_id110,
        "evaluate": _wrap(_eval_id110),
    }
    return fams


def _wrap(fn):
    """Adapt a 3-tuple evaluator to the uniform 5-tuple outcome."""

    def wrapped(cfg, clause, payload):
        ok, lhs, rhs = fn(cfg, clause, payload)
        return ok, False, None, lhs, rhs

    return wrapped


FAMILIES = _family_table()


def evaluate_check(cfg: CheckConfig, family: str, clause: str, payload):
    """Re-run one check from its payload; the replay entry point."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family]["evaluate"](cfg, clause, payload)


# ---------------------------------------------------------------------------
# runner and report


def _run_clause(cfg: CheckConfig, family: str, clause: str) -> dict:
    spec = FAMILIES[family]
    t0 = time.perf_counter()
    passed = failed = adjudicated = 0
    patterns = {}
    notes = []
    counterexample = None
    for pattern, payload in spec["generate"](cfg, clause):
        ok, adj, note, lhs, rhs = spec["evaluate"](cfg, clause, payload)
        patterns[pattern] = patterns.get(pattern, 0) + 1
        if ok:
            passed += 1
        elif adj:
            adjudicated += 1
            if note and note not in notes:
                notes.append(note)
        else:
            failed += 1
            if counterexample is None:
                counterexample = {
                    "family": family,
                    "clause": clause,
                    "pattern": pattern,
                    "config": cfg.to_obj(),
                    "payload": payload,
                    "lhs": lhs,
                    "rhs": rhs,
                }
                if "row" in payload:
                    # spell out the bracket arguments the row encodes
                    alg = Superalgebra(cfg.M, cfg.N)
                    row = _ROW_BY_ID[payload["row"]]
                    x, y, _ = row.build(
                        alg,
                        {k: int(v) for k, v in payload["indices"].items()},
                        tuple(payload["me"]),
                        tuple(payload["ne"]),
                    )
                    counterexample["x"] = ser.toroidal_to_obj(x)
                    counterexample["y"] = ser.toroidal_to_obj(y)
    hits = passed + failed + adjudicated
    return {
        "clause": clause,
        "pass": passed,
        "fail": failed,
        "adjudicated": adjudicated,
        "hits": hits,
        "ok": failed == 0 and hits > 0,
        "patterns": dict(sorted(patterns.items())),
        "notes": notes,
        "counterexample": counterexample,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
    }


def run(cfg: CheckConfig, families=None, jobs: int = 1) -> dict:
    """Run the requested families and assemble the report."""
    if families is None:
        families = FAMILY_ORDER
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}; known: {', '.join(FAMILY_ORDER)}")
    tasks = [(fam, clause) for fam in families for clause in FAMILIES[fam]["clauses"]]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda t: _run_clause(cfg, *t), tasks))
    else:
        results = [_run_clause(cfg, *t) for t in tasks]

    report = {"config": cfg.to_obj(), "families": {}, "coverage": {},
              "adjudications": [], "all_pass": True}
    by_family = {}
    for (fam, clause), res in zip(tasks, results):
        by_family.setdefault(fam, []).append(res)
    for fam in families:
        cells = by_family.get(fam, [])
        fam_ok = all(c["ok"] for c in cells)
        report["families"][fam] = {
            "clauses": {c["clause"]: {k: v for k, v in c.items() if k != "clause"}
                        for c in cells},
            "pass": fam_ok,
            "elapsed_ms": round(sum(c["elapsed_ms"] for c in cells), 3),
        }
        report["all_pass"] = report["all_pass"] and fam_ok
        for c in cells:
            report["coverage"][c["clause"]] = report["coverage"].get(c["clause"], 0) + c["hits"]
            if c["adjudicated"]:
                for note in c["notes"]:
                    report["adjudications"].append(
                        {"family": fam, "clause": c["clause"],
                         "count": c["adjudicated"], "note": note}
                    )
        if fam == "rtables" and cells:
            # the generic side of each R-row evaluates the finite bracket
            # table clause of the same number
            for c in cells:
                tclause = "T" + c["clause"][1:]
                report["coverage"][tclause] = report["coverage"].get(tclause, 0) + c["hits"]
    report["adjudications"].sort(key=lambda a: (a["family"], a["clause"]))
    return report


def run_family(family: str, cfg: CheckConfig) -> dict:
    """Single-family run; the report restricted to that family."""
    return run(cfg, families=(family,))


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def report_text(report: dict, include_timing: bool = True) -> str:
    body = report if include_timing else strip_timings(report)
    return ser.dumps(body)


def replay_counterexample(obj) -> dict:
    """Re-run a serialized counterexample and compare with the record.

    Returns the fresh outcome plus whether the recorded failure was
    reproduced bit-exactly.
    """
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
