"""Independent reference implementations used as test oracles.

These recompute the library's operations along different routes:

* reference_vertex_mode_apply is the vertex kernel with one Fraction
  product and sum per (key, annihilation term, creation term), the loop
  the integer kernel replaced, and exp T_+ expanded on each whole
  monomial, where the kernel expands only the factors a can contract;
* reference_creation_level builds a creation level of exp T_- by the
  recurrence k P_k = sum_n a(-n) P_{k-n} from all lower levels, the
  route the closed form replaced;
* reference_apply and reference_super_commutator evaluate an operator on
  a tensor state the Fraction way the integer sinks replaced: the lattice
  operators on one lattice state per boson half (reference_vertex_mode_apply,
  naive_heisenberg, and the dressed current, pair sum and product sum as
  literal sums over widened windows), an OpSum by scaling every coefficient
  of each term's image, an OpProduct through a Fraction state per factor,
  and the commutator from both orderings built in full and subtracted; a
  vertex mode goes through reference_vertex_mode_apply, or through the
  library's vertex_mode_apply on one lattice state, as the replaced path
  called it, where the reference kernel would take seconds;
* reference_boson_mode_apply applies a boson mode to a tensor state the
  grouped way the tensor path replaced: one BosonState per lattice key,
  through phi_apply / phi_star_apply;
* naive_heisenberg expands the derivation action position by position
  (Leibniz over an exploded factor list) instead of multiplicity
  counting;
* oracle_vertex_modes builds the whole z-series of Y(a, z) applied to a
  state as a dense convolution of exp-series levels, with the
  annihilation exponential expanded through partitions and the creation
  exponential through iterated application (the production code
  substitutes into each annihilated factor and writes each creation
  level in closed form), and reads off every requested coefficient with
  no window logic;
* oracle_s_plain / oracle_s_dressed evaluate the S mode sums through
  PhiMode / PhiStarMode / VertexMode on the whole state, with one window
  for the whole state widened by a margin (the library evaluates the
  boson factor per key and reads one window per boson half), so any
  clipping bug in the production windows shows up as a discrepancy;
* reference_pair_with_basis and reference_basis_support read a lattice
  vector block by block, one branch or loop per block, where the library
  reads one expression over the concatenated blocks;
* reference_dumps is the canonical JSON text through CPython's own
  encoder, which serialize.dumps emits directly;
* reference_lattice_state_from_obj, reference_boson_state_from_obj and
  reference_tensor_state_from_obj read every term's gamma through
  vector_from_obj and every phi/phi_star list through _modes_from_obj,
  the per-term route the memoized key readers replaced, and check the
  lattice shape of every term's gamma, a zero or cancelling term's too;
  reference_state_to_obj encodes every term's key halves anew, where
  the state encoders share one object per distinct gamma, monomial and
  mode list.

Two predicates only tests ask: in_gamma, whether a lattice vector lies in
Gamma, and doubled_degree, the budget measure the state generator keeps
under max_degree.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, gcd

from supertoroidal.combination import accumulate
from supertoroidal.lattice import LatticeConfig, bilinear, basis_support, cocycle, pair_with_basis
from supertoroidal.fock_lattice import (
    LatticeFockState,
    current_upper_bound,
    _creation_level,
    _exp_annihilation,
    _mode_depth,
    effective_mode_bound,
    heisenberg_apply,
    monomial_degree,
    monomial_insert,
    vanishing_bound,
)
from supertoroidal import serialize as ser
from supertoroidal.fock_boson import BosonState, depth, phi_apply, phi_star_apply
from supertoroidal import representation as rep
from supertoroidal.representation import PhiMode, PhiStarMode, TensorState, VertexMode


def reference_vertex_mode_apply(a, idx, s):
    """X_idx(a) s summed one Fraction term at a time over the cached levels."""
    h = _mode_depth(a, idx)
    out = {}
    for (gamma, mono), coeff in s.terms.items():
        shift = bilinear(a, gamma)
        sign = cocycle(a, gamma)
        new_gamma = a + gamma
        for d, monos in _exp_annihilation(a, mono).items():
            c_level = d - shift - h
            if c_level < 0:
                continue
            d_cre, created = _creation_level(a, c_level)
            for mo, n_ann in monos:
                base = coeff * sign * n_ann
                accumulate(out, (((new_gamma, tuple(sorted(mo + extra))), base * Fraction(n_cre, d_cre))
                                 for extra, n_cre in created))
    return LatticeFockState._from_clean(out)


def reference_creation_level(a, c):
    """_creation_level(a, c) through the recurrence on Q_k = k! P_k.

    Differentiating exp T_- in z gives k P_k = sum_{n=1..k} a(-n) P_{k-n}
    for the level-k part P_k, so Q_k has integer coefficients and
    Q_k = sum_n (k-1)!/(k-n)! a(-n) Q_{k-n}.
    """
    supp = basis_support(a)
    levels = [{(): 1}]  # Q_0, ..., Q_c
    for k in range(1, c + 1):
        level = {}
        for n in range(1, k + 1):
            f = factorial(k - 1) // factorial(k - n)
            accumulate(level, ((monomial_insert(mono, (b, n)), f * w * q)
                               for mono, q in levels[k - n].items() for b, w in supp))
        levels.append(level)
    g = gcd(factorial(c), *levels[c].values())
    return factorial(c) // g, tuple(sorted((mono, q // g) for mono, q in levels[c].items()))


def reference_boson_mode_apply(j, r, ts, star=False):
    """phi^j_{r-1/2} (phi^{j*} when star) on a tensor state, grouped by lattice key."""
    fn = phi_star_apply if star else phi_apply
    groups = {}
    for (lk, bk), c in ts.terms.items():
        groups.setdefault(lk, {})[bk] = c
    out = {}
    for lk, half in groups.items():
        for bk, c in fn(j, r, BosonState(half)).terms.items():
            out[(lk, bk)] = c
    return TensorState(out)


def naive_heisenberg(a, m, s):
    """a(m) on a state by explicit per-position Leibniz expansion."""
    out = {}
    if m < 0:
        for (g, u), c in s.terms.items():
            for b, w in basis_support(a):
                key = (g, tuple(sorted(u + ((b, -m),))))
                out[key] = out.get(key, 0) + c * w
    elif m == 0:
        for (g, u), c in s.terms.items():
            out[(g, u)] = out.get((g, u), 0) + c * bilinear(a, g)
    else:
        for (g, u), c in s.terms.items():
            for pos in range(len(u)):
                b, n = u[pos]
                if n == m:
                    rest = u[:pos] + u[pos + 1 :]
                    w = pair_with_basis(a, b)
                    if w:
                        out[(g, rest)] = out.get((g, rest), 0) + c * m * w
    return LatticeFockState(out)


def _partitions(n):
    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, maxpart), 0, -1):
            for mult in range(remaining // part, 0, -1):
                for rest in gen(remaining - part * mult, part - 1):
                    yield ((part, mult),) + rest

    return list(gen(n, n))


def _ann_level(a, d, state):
    """Coefficient of z^{-d} of exp T_+(a, z), via partitions of d."""
    total = LatticeFockState.zero()
    for partition in _partitions(d):
        weight = Fraction(1)
        cur = state
        for part, mult in partition:
            fact = 1
            for t in range(1, mult + 1):
                fact *= t
            weight *= Fraction(-1, part) ** mult / fact
            for _ in range(mult):
                cur = heisenberg_apply(a, part, cur)
        total = total + weight * cur
    return total


def _creation_series(a, state, cmax):
    """Levels 0..cmax of exp T_-(a, z) applied to the state, iteratively."""
    levels = {0: state}
    term = {0: state}
    j = 0
    while term:
        j += 1
        nxt = {}
        for lvl, st in term.items():
            for n in range(1, cmax - lvl + 1):
                r = Fraction(1, n) * heisenberg_apply(a, -n, st)
                if not r.is_zero():
                    nxt[lvl + n] = nxt.get(lvl + n, LatticeFockState.zero()) + r
        term = {}
        for lvl, st in nxt.items():
            st = Fraction(1, j) * st
            if not st.is_zero() and lvl <= cmax:
                term[lvl] = st
                levels[lvl] = levels.get(lvl, LatticeFockState.zero()) + st
    return levels


def oracle_vertex_modes(a, s, klo, khi):
    """X_k(a) s for every doubled k in [klo, khi], densely computed."""
    p = bilinear(a, a)
    out = {k: LatticeFockState.zero() for k in range(klo, khi + 1)}
    for (gamma, mono), coeff in s.terms.items():
        base = LatticeFockState({(gamma, mono): coeff})
        shift = bilinear(a, gamma)
        sign = cocycle(a, gamma)
        # needed creation depth: z-power of Y is shift + c - d; solve for
        # the extremes of h over the requested doubled window
        hs = []
        for k in range(klo, khi + 1):
            if p % 2 == 0 and k % 2 == 0:
                hs.append((k + p) // 2)
            elif p % 2 == 1 and k % 2 == 1:
                hs.append((k + 1) // 2)
        if not hs:
            continue
        cmax = max(monomial_degree(mono) - shift - min(hs), 0)
        # dense combination: for every (d, c) pair assemble the z-power
        for d in range(0, monomial_degree(mono) + 1):
            ann = _ann_level(a, d, base)
            if ann.is_zero():
                continue
            cre = _creation_series(a, ann, cmax)
            for c_lvl, st in cre.items():
                zpow = shift + c_lvl - d
                for k in range(klo, khi + 1):
                    if p % 2 == 0 and k % 2 == 0:
                        h = (k + p) // 2
                    elif p % 2 == 1 and k % 2 == 1:
                        h = (k + 1) // 2
                    else:
                        continue
                    if zpow == -h:
                        shifted = LatticeFockState(
                            {(a + g, u): sign * cc for (g, u), cc in st.terms.items()}
                        )
                        out[k] = out[k] + shifted
    return out


def _lattice_bound(a, ts):
    """Effective bound of a over all lattice keys of ts, one window for the whole state."""
    return effective_mode_bound(a, LatticeFockState({lk: 1 for (lk, _) in ts.terms}))


def _boson_depth(ts):
    """Creation depth over all boson keys of ts, one window for the whole state."""
    return depth(BosonState({bk: 1 for (_, bk) in ts.terms}))


def oracle_s_plain(fam, i, j, M, q, m, ts, margin=4):
    """Undressed S_ij(m) with windows widened by a safety margin."""
    cfg = LatticeConfig(M, q)
    bd = _boson_depth(ts)
    if bd == float("-inf"):
        return TensorState.zero()
    out = TensorState.zero()
    if fam in ("upper", "lower"):
        vec = cfg.e(i) if fam == "upper" else -cfg.e(j)
        flavor = (j if fam == "upper" else i) - M
        lb = _lattice_bound(vec, ts)
        for r in range(m - (bd - 1) // 2 - margin, (lb + 1) // 2 + margin + 1):
            mode = PhiStarMode(flavor, m - r + 1) if fam == "upper" else PhiMode(flavor, m - r + 1)
            out = out + VertexMode(vec, 2 * r - 1).apply(mode.apply(ts))
        return out
    a, b = i - M, j - M
    for r in range(m - (bd - 1) // 2 - margin, (bd + 1) // 2 + margin + 1):
        s_idx = m - r + 1
        if r <= s_idx:
            out = out + PhiMode(a, r).apply(PhiStarMode(b, s_idx).apply(ts))
        else:
            out = out + PhiStarMode(b, s_idx).apply(PhiMode(a, r).apply(ts))
    return out


def oracle_s_dressed(fam, i, j, M, q, mu, n, ts, margin=3):
    """S^mu_ij(n) as a literal double sum with widened windows."""
    cfg = LatticeConfig(M, q)
    dm = cfg.delta_sum(mu)
    if ts.is_zero():
        return ts
    lbd = _lattice_bound(dm, ts)
    bd = _boson_depth(ts)
    if fam == "upper":
        k_hi = (_lattice_bound(cfg.e(i), ts) + 1) // 2 + (bd - 1) // 2
    elif fam == "lower":
        k_hi = (_lattice_bound(-cfg.e(j), ts) + 1) // 2 + (bd - 1) // 2
    else:
        k_hi = (bd + 1) // 2 + (bd - 1) // 2
    out = TensorState.zero()
    for k in range(n - lbd // 2 - margin, k_hi + margin + 1):
        inner = VertexMode(dm, 2 * (n - k)).apply(ts)
        if not inner.is_zero():
            out = out + oracle_s_plain(fam, i, j, M, q, k, inner, margin)
    return out


def reference_pair_with_basis(a, idx):
    """(a, basis_vector(idx)): delta_j pairs with the d-coordinate j, d_j with the delta one."""
    m, qm1 = len(a.e), len(a.delta)
    if 0 <= idx < m:
        return a.e[idx]
    if m <= idx < m + qm1:
        return a.d[idx - m]
    if m + qm1 <= idx < m + 2 * qm1:
        return a.delta[idx - m - qm1]
    raise ValueError(f"basis index {idx} out of range for rank {m + 2 * qm1}")


def reference_basis_support(a):
    """(flat basis index, coordinate) for the nonzero coordinates, block by block."""
    m, qm1 = len(a.e), len(a.delta)
    out = [(i, c) for i, c in enumerate(a.e) if c]
    out += [(m + i, c) for i, c in enumerate(a.delta) if c]
    out += [(m + qm1 + i, c) for i, c in enumerate(a.d) if c]
    return out


def in_gamma(a) -> bool:
    """Whether the lattice vector a lies in Gamma: no delta and no d components."""
    return not any(a.delta) and not any(a.d)


def doubled_degree(ts) -> int:
    """Max over the keys of the tensor state ts of 2 deg(monomial) + total boson mode magnitude."""
    best = 0
    for ((_, u), (p, ps)) in ts.terms:
        d = 2 * monomial_degree(u) - sum(k for _, k in p) - sum(k for _, k in ps)
        best = max(best, d)
    return best


def reference_dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) and a newline, the text of serialize.dumps."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _reference_lattice_key(item, config, shapes):
    gamma = ser.vector_from_obj(item["gamma"], config)
    shapes.append(gamma.shape)
    rank = len(gamma.e) + 2 * len(gamma.delta)
    return gamma, ser._monomial_from_obj(item.get("monomial", ()), rank)


def _reference_boson_key(item):
    return (ser._modes_from_obj(item.get("phi", ()), "phi"),
            ser._modes_from_obj(item.get("phi_star", ()), "phi_star"))


def _reference_terms_from_obj(cls, obj, key_from_obj):
    """The cls state of the terms in obj, every coefficient parsed and checked again."""
    what = f"a {cls.__name__}"
    try:
        terms = [(key_from_obj(item), ser.frac_from_str(item["coeff"]))
                 for item in ser._array(obj, what)]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ser._wrong_shape(what, exc) from None
    return cls(terms)


def reference_lattice_state_from_obj(obj, config=None):
    shapes = []  # one per term, zero and cancelling terms included
    s = _reference_terms_from_obj(LatticeFockState, obj,
                                  lambda item: _reference_lattice_key(item, config, shapes))
    return ser._one_shape(s, shapes)


def reference_boson_state_from_obj(obj):
    return _reference_terms_from_obj(BosonState, obj, _reference_boson_key)


def reference_tensor_state_from_obj(obj, config=None):
    shapes = []
    s = _reference_terms_from_obj(
        TensorState, obj,
        lambda item: (_reference_lattice_key(item, config, shapes), _reference_boson_key(item)))
    return ser._one_shape(s, shapes)


def _reference_lattice_key_to_obj(key, obj):
    obj["gamma"], obj["monomial"] = ser.vector_to_obj(key[0]), ser._monomial_to_obj(key[1])
    return obj


def _reference_boson_key_to_obj(key, obj):
    obj["phi"], obj["phi_star"] = ser._modes_to_obj(key[0]), ser._modes_to_obj(key[1])
    return obj


def reference_state_to_obj(s):
    """s encoded term by term, every key half a new object."""
    if isinstance(s, LatticeFockState):
        key_to_obj = _reference_lattice_key_to_obj
    elif isinstance(s, BosonState):
        key_to_obj = _reference_boson_key_to_obj
    else:
        def key_to_obj(key, obj):
            return _reference_boson_key_to_obj(key[1], _reference_lattice_key_to_obj(key[0], obj))
    return ser._terms_to_obj(s, key_to_obj)


def _per_half(fn, ts):
    """The lattice operator fn on the lattice half of ts, one boson half at a time."""
    groups = {}
    for (lk, bk), c in ts.terms.items():
        groups.setdefault(bk, {})[lk] = c
    out = {}
    for bk, half in groups.items():
        for lk, c in fn(LatticeFockState(half)).terms.items():
            out[(lk, bk)] = c
    return TensorState(out)


def _total(states):
    out = LatticeFockState.zero()
    for s in states:
        out = out + s
    return out


def _reference_dressed(a, dm, n, s, vertex, margin=3):
    """sum_k a(k) X_{2(n-k)}(dm) s over a widened window."""
    if dm.is_zero():
        return naive_heisenberg(a, n, s)
    hi = int(current_upper_bound(a, s)) + margin
    lo = n - int(vanishing_bound(dm, s)) // 2 - margin
    return _total(naive_heisenberg(a, k, vertex(dm, 2 * (n - k), s))
                  for k in range(lo, hi + 1))


def _reference_product_sum(a, dm, idx, s, vertex, margin=6):
    """sum_k X_{idx-k}(a) X_k(dm) s over a widened window of even k."""
    lo = idx - int(effective_mode_bound(a, s)) - margin
    hi = int(vanishing_bound(dm, s)) + margin
    return _total(vertex(a, idx - k, vertex(dm, k, s))
                  for k in range(lo - lo % 2, hi + 1, 2))


def _reference_pair_sum(a, b, n, s, vertex, margin=5):
    """sum_k :X_{k+1/2}(a) X_{n-k-1/2}(b): s over a widened window of k."""
    lo = n - (int(effective_mode_bound(b, s)) + 1) // 2 - margin
    hi = max((n - 1) // 2, (int(effective_mode_bound(a, s)) - 1) // 2) + margin
    out = LatticeFockState.zero()
    for k in range(lo, hi + 1):
        i1, i2 = 2 * k + 1, 2 * (n - k) - 1
        if i1 <= i2:
            out = out + vertex(a, i1, vertex(b, i2, s))
        else:
            out = out - vertex(b, i2, vertex(a, i1, s))
    return out


def reference_apply(op, ts, vertex=reference_vertex_mode_apply):
    """op ts through Fraction states only (see the module docstring); vertex(a, idx, s)
    applies one vertex mode to a lattice state."""
    if isinstance(op, rep.OpProduct):
        for f in reversed(op.factors):
            ts = reference_apply(f, ts, vertex)
        return ts
    if isinstance(op, rep.OpSum):
        out = {}
        for c, f in op.terms:
            accumulate(out, ((k, c * v) for k, v in reference_apply(f, ts, vertex).terms.items()))
        return TensorState._from_clean(out)
    if isinstance(op, (PhiMode, PhiStarMode)):
        return reference_boson_mode_apply(op.flavor, op.r, ts, isinstance(op, PhiStarMode))
    if ts.is_zero():
        return ts
    M, q = ts.lattice_shape()
    cfg = LatticeConfig(M, q)
    if isinstance(op, VertexMode):
        return _per_half(lambda s: vertex(op.alpha, op.index, s), ts)
    if isinstance(op, rep.Current):
        return _per_half(lambda s: naive_heisenberg(op.alpha, op.mode, s), ts)
    if isinstance(op, rep.DiagCurrent):
        dm = cfg.delta_sum(op.mu)
        return _per_half(lambda s: _reference_dressed(op.alpha, dm, op.mode, s, vertex), ts)
    if isinstance(op, rep.SOp):
        return oracle_s_dressed(op.family(M), op.i, op.j, M, q, op.mu, op.n, ts)
    if isinstance(op, rep.CentralImage):
        return reference_apply(op.resolve(M), ts, vertex)
    if isinstance(op, rep.NormalPairSum):
        return _per_half(lambda s: _reference_pair_sum(op.a, op.b, op.n, s, vertex), ts)
    if isinstance(op, rep.VertexProductSum):
        dm = cfg.delta_sum(op.mu)
        return _per_half(lambda s: _reference_product_sum(op.a, dm, op.index, s, vertex), ts)
    raise TypeError(f"no reference for {op!r}")


def reference_super_commutator(op1, op2, ts, vertex=reference_vertex_mode_apply):
    """op1 op2 ts - (-1)^{|op1||op2|} op2 op1 ts, both orderings built as states."""
    shape = ts.lattice_shape()
    M = shape[0] if shape else None
    first = reference_apply(op1, reference_apply(op2, ts, vertex), vertex)
    second = reference_apply(op2, reference_apply(op1, ts, vertex), vertex)
    return first + second if op1.parity(M) and op2.parity(M) else first - second
