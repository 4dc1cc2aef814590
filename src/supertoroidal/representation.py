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
the effective bounds of the input state cap every index.  All three S
families are one vertex_modes window per boson half: the boson factor is
evaluated on the boson key alone, and for the upper and lower families
identity 4.4 folds X(+-e) X(delta_mu) into one vertex mode of
+-e + delta_mu.

The dictionary rho sends T_ij (x) t^mbar to X-modes (i, j <= M), to the
dressed diagonal current (i = j <= M), or to an S family mode (an index
beyond M); the central t^mbar K_i go to DiagCurrent(delta_i, ...) for
i < q and to X-modes of delta_mu for i = q.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination, accumulate
from .lattice import LatticeConfig, LatticeVector, Record, bilinear, parity
from .fock_lattice import (
    LatticeFockState,
    _dressed_current,
    effective_mode_bound,
    heisenberg_apply,
    normal_ordered_pair_sum,
    vertex_mode_apply,
    vertex_product_sum,
    window_sum,
)
from .fock_boson import BosonState, creation_modes, key_depth, mode_on_key


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
        return (*g, u, p, ps)

    @staticmethod
    def _format_term(key, c) -> str:
        (g, u), (p, ps) = key
        return f"{c} * e^{g!r}(x){u or 1}(x)phi{list(p)}phi*{list(ps)}"

    def parity(self):
        seen = {parity(g) for ((g, _), _) in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def lattice_shape(self):
        """(M, q) read off any key, or None for the zero state."""
        return next((g.shape for (g, _), _ in self.terms), None)


def _boson_groups(ts: TensorState) -> dict:
    """ts grouped by boson half: {boson key: {lattice key: coefficient}}."""
    groups = {}
    for (lk, bk), c in ts.terms.items():
        groups.setdefault(bk, {})[lk] = c
    return groups


def _map_half(fn, ts: TensorState) -> TensorState:
    """Apply the lattice operator fn to the lattice half of ts, the boson half fixed."""
    out = {}
    for bk, half in _boson_groups(ts).items():
        # groups differ in the boson half, so no two images share a key
        for lk, c in fn(LatticeFockState._from_clean(half)).terms.items():
            out[(lk, bk)] = c
    return TensorState._from_clean(out)


# ---------------------------------------------------------------------------
# operator descriptors


class _Operator(Record):
    """Shared by the descriptors: an operator is even unless it says otherwise."""

    def parity(self, M=None) -> int:
        return 0


class VertexMode(_Operator):
    alpha: LatticeVector
    index: int  # doubled

    def apply(self, ts: TensorState) -> TensorState:
        return _map_half(lambda s: vertex_mode_apply(self.alpha, self.index, s), ts)

    def parity(self, M=None) -> int:
        return bilinear(self.alpha, self.alpha) % 2


class Current(_Operator):
    alpha: LatticeVector
    mode: int

    def apply(self, ts: TensorState) -> TensorState:
        return _map_half(lambda s: heisenberg_apply(self.alpha, self.mode, s), ts)


class _BosonMode(_Operator):
    flavor: int
    r: int  # mode r - 1/2

    def __post_init__(self):
        if self.flavor < 1:
            raise ValueError(f"flavors are 1-based, got {self.flavor}")

    def _apply(self, ts: TensorState, star: bool) -> TensorState:
        """Rewrite the boson half of each key in one pass; the lattice half stays."""
        j, r = self.flavor, self.r
        out = {}
        for (lk, bk), c in ts.terms.items():
            image = mode_on_key(j, r, bk, star)
            if image is not None:
                out[(lk, image[0])] = c if image[1] == 1 else c * image[1]
        return TensorState._from_clean(out)


class PhiMode(_BosonMode):
    def apply(self, ts: TensorState) -> TensorState:
        return self._apply(ts, star=False)


class PhiStarMode(_BosonMode):
    def apply(self, ts: TensorState) -> TensorState:
        return self._apply(ts, star=True)


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
        return _map_half(lambda s: _dressed_current(self.alpha, dm, self.mode, s), ts)


class SOp(_Operator):
    """S-family mode sum_k S_ij(k) X_{2(n-k)}(delta_mu); with a = i - M, b = j - M,

    upper:  sum_r X_{r-1/2}(e_i + delta_mu) phi*^b_{n-r+1/2}
    lower:  sum_r X_{r-1/2}(-e_j + delta_mu) phi^a_{n-r+1/2}
    boson:  S^{ab}(k) = sum_r :phi^a_{r-1/2} phi*^b_{k-r+1/2}:

    For upper and lower, identity 4.4, sum_k X_{idx-k}(v) X_k(delta_mu) =
    X_idx(v + delta_mu), folds the k sum into one vertex mode.  The factors
    act on different halves of a key, so per boson half the boson factor is
    evaluated on the key alone, each image at the doubled index of the lattice
    mode it pairs with (2r - 1, or 2(n - k) for the boson family), and one
    vertex_modes window of the family's vector on the lattice half serves them.
    """

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
        vec = cfg.delta_sum(self.mu)
        if fam != "boson":
            vec = (cfg.e(self.i) if fam == "upper" else -cfg.e(self.j)) + vec
        out = {}
        for bk, half in _boson_groups(ts).items():
            half = LatticeFockState._from_clean(half)
            images = self._boson_images(fam, M, vec, bk, half)
            if images:
                window_sum(out, vec, images, lambda idx, lat: (
                    ((lk, image), c if w == 1 else c * w)
                    for image, w in images[idx] for lk, c in lat.terms.items()), half)
        return TensorState._from_clean(out)

    def _boson_images(self, fam: str, M: int, vec, bk, half) -> dict:
        """{lattice doubled index: [(boson image key, integer weight), ...]} on the boson
        key bk.  The key's creation depth bounds the boson annihilators, and the
        effective bound of vec on the lattice half under bk the lattice index; the
        only nonzero mode of vec = 0 (the boson family at mu = 0) is X_0."""
        a, b, n = self.i - M, self.j - M, self.n
        bd, bound = key_depth(bk), effective_mode_bound(vec, half)
        images = {}
        if fam != "boson":
            star = fam == "upper"
            for r in range(n - (bd - 1) // 2, (bound + 1) // 2 + 1):
                image = mode_on_key(b if star else a, n - r + 1, bk, star)
                if image is not None:
                    images[2 * r - 1] = (image,)
            return images
        k_hi = n if vec.is_zero() else (bd + 1) // 2 + (bd - 1) // 2
        for k in range(n - bound // 2, k_hi + 1):
            for r in range(k - (bd - 1) // 2, (bd + 1) // 2 + 1):
                s = k - r + 1
                # normal ordering: phi* acts first iff r <= s, annihilators right
                if r <= s:
                    first = mode_on_key(b, s, bk, True)
                    second = first and mode_on_key(a, r, first[0], False)
                else:
                    first = mode_on_key(a, r, bk, False)
                    second = first and mode_on_key(b, s, first[0], True)
                if second:
                    images.setdefault(2 * (n - k), []).append((second[0], first[1] * second[1]))
        return images

    def parity(self, M: int) -> int:
        return 1 if (self.i <= M) != (self.j <= M) else 0


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


class NormalPairSum(_Operator):
    """sum_k :X_{k+1/2}(a) X_{n-k-1/2}(b): for odd a, b."""

    a: LatticeVector
    b: LatticeVector
    n: int

    def apply(self, ts: TensorState) -> TensorState:
        return _map_half(lambda s: normal_ordered_pair_sum(self.a, self.b, self.n, s), ts)


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
        return _map_half(lambda s: vertex_product_sum(self.a, dm, self.index, s), ts)

    def parity(self, M=None) -> int:
        return bilinear(self.a, self.a) % 2


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


class OpSum(_Operator):
    terms: tuple  # of (Fraction, operator)

    def apply(self, ts: TensorState) -> TensorState:
        if len(self.terms) == 1 and self.terms[0][0] == 1:
            return self.terms[0][1].apply(ts)
        out = {}
        for c, op in self.terms:
            image = op.apply(ts).terms.items()
            accumulate(out, image if c == 1 else ((k, c * v) for k, v in image))
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
    # the second ordering is folded into a copy of the first's terms, added for
    # two odd operators and subtracted otherwise
    out = dict(op1.apply(op2.apply(ts)).terms)
    accumulate(out, op2.apply(op1.apply(ts)).terms.items(), negate=not (p1 and p2))
    return TensorState._from_clean(out)
