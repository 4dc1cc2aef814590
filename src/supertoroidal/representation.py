"""The tensor module and the operator dictionary of the toroidal action.

States live in V[Gbar] (x) F: each basis vector pairs a lattice key
(gamma, creation monomial) with a boson key (phi multiset, phi* multiset).
Lattice operators act on the first slot and boson operators on the
second; the two kinds commute, and the parity of a basis vector is the
parity of its lattice half.

Operators are symbolic descriptors evaluated lazily on states, never as
matrices.  The primitive descriptors are

    VertexMode(a, k)        X-mode of a in Q, doubled index k
    Current(a, n)           Heisenberg mode a(n) on the lattice slot
    PhiMode / PhiStarMode    boson modes phi^j_{r-1/2}, phi^{j*}_{r-1/2}
    DiagCurrent(a, n, mu)   sum_k a(k) X_{2(n-k)}(delta_mu)
    SOp(i, j, mu, n)        sum_k S_ij(k) X_{2(n-k)}(delta_mu)
    CentralImage(mbar, i)   image of the central symbol t^mbar K_i

plus OpProduct (composition, rightmost factor first) and OpSum (rational
combinations).  Every internal mode sum is clipped to an exactly
computed finite window: boson annihilators die beyond the state's depth,
lattice modes die beyond the vanishing bound, and the attached
X(delta_mu) factors only create material orthogonal to the e-block, so
the effective bounds of the input state cap every index.

The dictionary rho sends T_ij (x) t^mbar to X-modes (i, j <= M), to the
dressed diagonal current (i = j <= M), or to an S family mode (an index
beyond M); the central t^mbar K_i go to DiagCurrent(delta_i, ...) for
i < q and to X-modes of delta_mu for i = q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combination import Combination, accumulate
from .lattice import LatticeConfig, LatticeVector, bilinear, parity
from .fock_lattice import (
    NEG_INF,
    LatticeFockState,
    current_upper_bound,
    effective_mode_bound,
    heisenberg_apply,
    monomial_degree,
    normal_ordered_pair_sum,
    vertex_mode_apply,
    vertex_product_sum,
)
from .fock_boson import BosonState, creation_modes, depth, phi_apply, phi_star_apply


class TensorState(Combination):
    """Finitely supported map (lattice key, boson key) -> rational."""

    __slots__ = ()

    @classmethod
    def vacuum(cls, config: LatticeConfig) -> "TensorState":
        return cls({((config.zero(), ()), ((), ())): Fraction(1)})

    @classmethod
    def basis(cls, gamma, mono=(), phi=(), phi_star=(), coeff=1) -> "TensorState":
        key = ((gamma, tuple(sorted(mono))), (creation_modes(phi), creation_modes(phi_star)))
        return cls({key: coeff})

    @classmethod
    def product(cls, lat: LatticeFockState, bos: BosonState) -> "TensorState":
        return cls._from_clean({(lk, bk): cl * cb for lk, cl in lat.terms.items()
                                for bk, cb in bos.terms.items()})

    @staticmethod
    def _sort_key(item):
        ((g, u), (p, ps)), _ = item
        return (g.e, g.delta, g.d, u, p, ps)

    @staticmethod
    def _format_term(key, c) -> str:
        (g, u), (p, ps) = key
        return f"{c} * e^{g!r}(x){u or 1}(x)phi{list(p)}phi*{list(ps)}"

    def parity(self):
        seen = {parity(g) for ((g, _), _) in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def doubled_degree(self) -> int:
        """Max over keys of 2 deg(monomial) + total boson mode magnitude."""
        best = 0
        for ((_, u), (p, ps)) in self.terms:
            d = 2 * monomial_degree(u) - sum(k for _, k in p) - sum(k for _, k in ps)
            best = max(best, d)
        return best

    def lattice_shape(self):
        """(M, q) read off any key, or None for the zero state."""
        for ((g, _), _) in self.terms:
            return len(g.e), len(g.delta) + 1
        return None


def _map_half(fn, ts: TensorState, lattice: bool) -> TensorState:
    """Apply fn to the lattice (or boson) half of ts, the other half fixed."""
    cls = LatticeFockState if lattice else BosonState
    groups = {}
    for (lk, bk), c in ts.terms.items():
        if lattice:
            groups.setdefault(bk, {})[lk] = c
        else:
            groups.setdefault(lk, {})[bk] = c
    out = {}
    for fixed, half in groups.items():
        # groups differ in the fixed half, so no two images share a key
        for k, c in fn(cls._from_clean(half)).terms.items():
            out[(k, fixed) if lattice else (fixed, k)] = c
    return TensorState._from_clean(out)


_ONE = Fraction(1)


def _lattice_keys(ts: TensorState) -> LatticeFockState:
    """The lattice keys of ts as a state; the bound functions read only keys."""
    return LatticeFockState._from_clean(dict.fromkeys((lk for lk, _ in ts.terms), _ONE))


def _lattice_bound(a: LatticeVector, ts: TensorState):
    """Effective doubled vanishing bound of a over the lattice keys."""
    return effective_mode_bound(a, _lattice_keys(ts))


def _current_bound(a: LatticeVector, ts: TensorState):
    return current_upper_bound(a, _lattice_keys(ts))


def _boson_depth(ts: TensorState):
    return depth(BosonState._from_clean(dict.fromkeys((bk for _, bk in ts.terms), _ONE)))


# ---------------------------------------------------------------------------
# operator descriptors


class _Operator:
    """Shared by the descriptors: an operator is even unless it says otherwise."""

    def parity(self, M=None) -> int:
        return 0


@dataclass(frozen=True)
class VertexMode(_Operator):
    alpha: LatticeVector
    index: int  # doubled

    def apply(self, ts: TensorState) -> TensorState:
        return _map_half(lambda s: vertex_mode_apply(self.alpha, self.index, s), ts, lattice=True)

    def parity(self, M=None) -> int:
        return bilinear(self.alpha, self.alpha) % 2


@dataclass(frozen=True)
class Current(_Operator):
    alpha: LatticeVector
    mode: int

    def apply(self, ts: TensorState) -> TensorState:
        return _map_half(lambda s: heisenberg_apply(self.alpha, self.mode, s), ts, lattice=True)


@dataclass(frozen=True)
class _BosonMode(_Operator):
    flavor: int
    r: int  # mode r - 1/2

    def __post_init__(self):
        if self.flavor < 1:
            raise ValueError(f"flavors are 1-based, got {self.flavor}")


@dataclass(frozen=True)
class PhiMode(_BosonMode):
    def apply(self, ts: TensorState) -> TensorState:
        return _map_half(lambda s: phi_apply(self.flavor, self.r, s), ts, lattice=False)


@dataclass(frozen=True)
class PhiStarMode(_BosonMode):
    def apply(self, ts: TensorState) -> TensorState:
        return _map_half(lambda s: phi_star_apply(self.flavor, self.r, s), ts, lattice=False)


@dataclass(frozen=True)
class DiagCurrent(_Operator):
    """Dressed current: sum_k alpha(k) X_{2(n-k)}(delta_mu)."""

    alpha: LatticeVector
    mode: int
    mu: tuple = ()

    def __post_init__(self):
        if any(self.alpha.d):
            raise ValueError("dressed currents require alpha without d-components")
        if len(self.mu) != len(self.alpha.delta):
            raise ValueError("mu length must be q-1 for the alpha shape")

    def apply(self, ts: TensorState) -> TensorState:
        if ts.is_zero():
            return ts
        M, q = ts.lattice_shape()
        dm = LatticeConfig(M, q).delta_sum(self.mu)
        if dm.is_zero():
            return Current(self.alpha, self.mode).apply(ts)
        k_hi = max(_current_bound(self.alpha, ts), 0)
        return _window(dm, self.mode, k_hi, lambda k, t: Current(self.alpha, k).apply(t), ts)


@dataclass(frozen=True)
class SOp(_Operator):
    """S-family mode: sum_k S_ij(k) X_{2(n-k)}(delta_mu)."""

    i: int
    j: int
    mu: tuple
    n: int

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise ValueError(f"S indices ({self.i},{self.j}) are 1-based")

    def family(self, M: int) -> str:
        if self.i <= M < self.j:
            return "upper"
        if self.j <= M < self.i:
            return "lower"
        if self.i > M and self.j > M:
            return "boson"
        raise ValueError(f"S indices ({self.i},{self.j}) need one index beyond M={M}")

    def apply(self, ts: TensorState) -> TensorState:
        if ts.is_zero():
            return ts
        M, q = ts.lattice_shape()
        if len(self.mu) != q - 1:
            raise ValueError(f"mu has length {len(self.mu)}, state has q={q}")
        fam = self.family(M)
        cfg = LatticeConfig(M, q)
        dm = cfg.delta_sum(self.mu)
        if dm.is_zero():
            return _s_plain(fam, self.i, self.j, M, cfg, self.n, ts)
        bd = _boson_depth(ts)
        if fam == "upper":
            k_hi = (_lattice_bound(cfg.e(self.i), ts) + 1) // 2 + (bd - 1) // 2
        elif fam == "lower":
            k_hi = (_lattice_bound(-cfg.e(self.j), ts) + 1) // 2 + (bd - 1) // 2
        else:
            k_hi = (bd + 1) // 2 + (bd - 1) // 2
        return _window(dm, self.n, k_hi,
                       lambda k, t: _s_plain(fam, self.i, self.j, M, cfg, k, t), ts)

    def parity(self, M: int) -> int:
        return 1 if (self.i <= M) != (self.j <= M) else 0


def _s_plain(fam: str, i: int, j: int, M: int, cfg: LatticeConfig, m: int, ts: TensorState) -> TensorState:
    """Undressed S_ij(m) on a state, with the exact finite r-window.

    upper:  sum_r X_{r-1/2}(e_i) phi*^{j-M}_{m-r+1/2}
    lower:  sum_r X_{r-1/2}(-e_j) phi^{i-M}_{m-r+1/2}
    boson:  sum_r :phi^{i-M}_{r-1/2} phi*^{j-M}_{m-r+1/2}:
    """
    if ts.is_zero():
        return ts
    bd = _boson_depth(ts)
    a, b = i - M, j - M
    if fam == "boson":
        r_hi = (bd + 1) // 2
    else:
        vec = cfg.e(i) if fam == "upper" else -cfg.e(j)
        r_hi = (_lattice_bound(vec, ts) + 1) // 2
    out = {}
    for r in range(m - (bd - 1) // 2, r_hi + 1):
        s_idx = m - r + 1
        if fam == "upper":
            first, second = PhiStarMode(b, s_idx), VertexMode(vec, 2 * r - 1)
        elif fam == "lower":
            first, second = PhiMode(a, s_idx), VertexMode(vec, 2 * r - 1)
        elif r <= s_idx:  # normal ordering: phi first iff r <= s, annihilators right
            first, second = PhiStarMode(b, s_idx), PhiMode(a, r)
        else:
            first, second = PhiMode(a, r), PhiStarMode(b, s_idx)
        t = first.apply(ts)
        if not t.is_zero():
            accumulate(out, second.apply(t).terms.items())
    return TensorState._from_clean(out)


def _window(dm: LatticeVector, n: int, k_hi: int, plain, ts: TensorState) -> TensorState:
    """sum_k plain(k, X_{2(n-k)}(dm) ts) for a nonzero dm, k up to k_hi.

    X_{2(n-k)}(dm) kills ts once 2(n-k) passes the effective bound of dm,
    which fixes the lowest k.  The caller reads k_hi off ts; it holds on
    X(dm) ts too, since X(dm) only creates factors the e-block cannot
    contract.
    """
    out = {}
    for k in range(n - _lattice_bound(dm, ts) // 2, k_hi + 1):
        inner = VertexMode(dm, 2 * (n - k)).apply(ts)
        if not inner.is_zero():
            accumulate(out, plain(k, inner).terms.items())
    return TensorState._from_clean(out)


@dataclass(frozen=True)
class CentralImage(_Operator):
    """Image of the central symbol t^mbar K_direction."""

    mbar: tuple
    direction: int

    def __post_init__(self):
        if not 1 <= self.direction <= len(self.mbar):
            raise ValueError("central direction out of range")

    def apply(self, ts: TensorState) -> TensorState:
        if ts.is_zero():
            return ts
        M, q = ts.lattice_shape()
        if len(self.mbar) != q:
            raise ValueError(f"mbar has length {len(self.mbar)}, state has q={q}")
        return self.resolve(M).apply(ts)

    def resolve(self, M: int):
        """The concrete operator behind the symbol, per the central dictionary."""
        q = len(self.mbar)
        cfg = LatticeConfig(M, q)
        mq = self.mbar[-1]
        mu = tuple(self.mbar[:-1])
        if self.direction == q:
            return VertexMode(cfg.delta_sum(mu), 2 * mq)
        return DiagCurrent(cfg.delta(self.direction), mq, mu)


@dataclass(frozen=True)
class NormalPairSum(_Operator):
    """sum_k :X_{k+1/2}(a) X_{n-k-1/2}(b): for odd a, b."""

    a: LatticeVector
    b: LatticeVector
    n: int

    def apply(self, ts: TensorState) -> TensorState:
        return _map_half(lambda s: normal_ordered_pair_sum(self.a, self.b, self.n, s), ts,
                         lattice=True)


@dataclass(frozen=True)
class VertexProductSum(_Operator):
    """sum_k X_{idx-k}(a) X_k(delta_mu), the dressed vertex mode."""

    a: LatticeVector
    mu: tuple
    index: int  # doubled

    def apply(self, ts: TensorState) -> TensorState:
        if ts.is_zero():
            return ts
        M, q = ts.lattice_shape()
        dm = LatticeConfig(M, q).delta_sum(self.mu)
        return _map_half(lambda s: vertex_product_sum(self.a, dm, self.index, s), ts, lattice=True)

    def parity(self, M=None) -> int:
        return bilinear(self.a, self.a) % 2


@dataclass(frozen=True)
class OpProduct(_Operator):
    factors: tuple

    def apply(self, ts: TensorState) -> TensorState:
        for f in reversed(self.factors):
            ts = f.apply(ts)
        return ts

    def parity(self, M=None):
        total = 0
        for f in self.factors:
            p = f.parity(M)
            if p is None:
                return None
            total += p
        return total % 2


@dataclass(frozen=True)
class OpSum(_Operator):
    terms: tuple  # of (Fraction, operator)

    def apply(self, ts: TensorState) -> TensorState:
        out = {}
        for c, op in self.terms:
            accumulate(out, ((k, c * v) for k, v in op.apply(ts).terms.items()))
        return TensorState._from_clean(out)

    def parity(self, M=None):
        seen = set()
        for _, op in self.terms:
            seen.add(op.parity(M))
        if not seen:
            return 0
        return seen.pop() if len(seen) == 1 and None not in seen else None


def apply(op, ts: TensorState) -> TensorState:
    """Evaluate a symbolic operator on a state, exactly."""
    return op.apply(ts)


def s_mode_apply(family: str, i: int, j: int, mu, n: int, ts: TensorState) -> TensorState:
    """Apply the S-family mode named by family, validating the index shape."""
    if ts.is_zero():
        return ts
    M, _ = ts.lattice_shape()
    op = SOp(i, j, tuple(mu), n)
    if op.family(M) != family:
        raise ValueError(f"indices ({i},{j}) with M={M} are family {op.family(M)}, not {family}")
    return op.apply(ts)


def rho(x, cfg: LatticeConfig) -> OpSum:
    """The representation dictionary on toroidal elements.

    T_ij (x) t^mbar goes to the X-mode of alpha_ij + delta_mu (i != j both
    <= M), to the dressed diagonal current for i = j <= M, and to the S
    mode when an index passes M; t^mbar K_i goes to the dressed current
    of delta_i (i < q) and to the X-mode of delta_mu (i = q).
    """
    M, q = cfg.M, cfg.q
    terms = []
    for key, c in x.sorted_terms():
        if key[0] == "T":
            _, i, j, mbar = key
            if len(mbar) != q:
                raise ValueError("exponent length does not match q")
            mq = mbar[-1]
            mu = tuple(mbar[:-1])
            if i <= M and j <= M:
                if i != j:
                    op = VertexMode(cfg.root(i, j) + cfg.delta_sum(mu), 2 * mq)
                else:
                    op = DiagCurrent(cfg.e(i), mq, mu)
            else:
                op = SOp(i, j, mu, mq)
        else:
            _, direction, mbar = key
            op = CentralImage(tuple(mbar), direction)
        terms.append((c, op))
    return OpSum(tuple(terms))


def super_commutator(op1, op2, ts: TensorState) -> TensorState:
    """[op1, op2] s = op1 op2 s - (-1)^{|op1||op2|} op2 op1 s."""
    shape = ts.lattice_shape()
    M = shape[0] if shape else None
    p1 = op1.parity(M)
    p2 = op2.parity(M)
    if p1 is None or p2 is None:
        raise ValueError("super commutator needs homogeneous operators")
    sign = -1 if (p1 and p2) else 1
    return op1.apply(op2.apply(ts)) - sign * op2.apply(op1.apply(ts))
