"""Independent reference implementations used as test oracles.

These recompute the library's operations along different routes:

* reference_vertex_mode_apply is the vertex kernel with one Fraction
  product and sum per (key, annihilation term, creation term), the loop
  the integer kernel replaced;
* naive_heisenberg expands the derivation action position by position
  (Leibniz over an exploded factor list) instead of multiplicity
  counting;
* oracle_vertex_modes builds the whole z-series of Y(a, z) applied to a
  state as a dense convolution of exp-series levels, with the
  annihilation exponential expanded through partitions and the creation
  exponential through iterated application (the production code iterates
  the annihilation exponential and builds each creation level from the
  lower ones by k P_k = sum_n a(-n) P_{k-n}), and reads off every
  requested coefficient with no window logic;
* oracle_s_plain / oracle_s_dressed evaluate the S mode sums with crude
  windows widened by a margin, so any clipping bug in the production
  windows shows up as a discrepancy.
"""

from __future__ import annotations

from fractions import Fraction

from supertoroidal.combination import accumulate
from supertoroidal.lattice import LatticeConfig, bilinear, basis_support, cocycle, pair_with_basis
from supertoroidal.fock_lattice import (
    LatticeFockState,
    _creation_level,
    _exp_annihilation,
    _mode_depth,
    heisenberg_apply,
    monomial_degree,
)
from supertoroidal.representation import (
    PhiMode,
    PhiStarMode,
    TensorState,
    VertexMode,
    _boson_depth,
    _lattice_bound,
)


def reference_vertex_mode_apply(a, idx, s):
    """X_idx(a) s summed one Fraction term at a time over the cached levels."""
    h = _mode_depth(a, idx)
    out = {}
    for (gamma, mono), coeff in s.terms.items():
        shift = bilinear(a, gamma)
        sign = cocycle(a, gamma)
        new_gamma = a + gamma
        for d, (d_ann, monos) in _exp_annihilation(a, mono).items():
            c_level = d - shift - h
            if c_level < 0:
                continue
            d_cre, created = _creation_level(a, c_level)
            for mo, n_ann in monos:
                base = coeff * sign * Fraction(n_ann, d_ann)
                accumulate(out, (((new_gamma, tuple(sorted(mo + extra))), base * Fraction(n_cre, d_cre))
                                 for extra, n_cre in created))
    return LatticeFockState._from_clean(out)


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
