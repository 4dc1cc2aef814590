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
    NormalPairSum(a, b, n)  sum_k :X_{k+1/2}(a) X_{n-k-1/2}(b): for odd a, b
    VertexProductSum(a, mu, k)  sum_j X_{k-j}(a) X_j(delta_mu), doubled k

plus OpProduct (composition, rightmost factor first) and OpSum (rational
combinations).  Every internal mode sum is clipped to an exactly
computed finite window: boson annihilators die beyond the state's depth,
lattice modes die beyond the vanishing bound, and the attached
X(delta_mu) factors only create material orthogonal to the e-block, so
the effective bounds of the input state cap every index.  All three S
families are one vertex_modes window over the state, each boson half
reading its own indices: the boson factor is evaluated on the boson key
alone, and for the upper and lower families
identity 4.4 folds X(+-e) X(delta_mu) into one vertex mode of
+-e + delta_mu.

Every operator evaluates in the integer form of fock_lattice: _into adds
scale times its image of a Sink into a Sink, both grouped by (gamma, boson
key), so a lattice operator runs once on a whole tensor state with the
boson half riding along as the tag, a boson mode rewrites a whole group's
key at once, an OpSum hands each term its
coefficient as the scale, an OpProduct hands each factor the previous
factor's sink, and commutator is the OpSum of its two OpProduct orderings,
which super_commutator applies.  apply turns the input's Fractions into
ints once, builds one Fraction per key of the image, and returns the zero
state as it is.

The dictionary rho sends T_ij (x) t^mbar to X-modes (i, j <= M), to the
dressed diagonal current (i = j <= M), or to an S family mode (an index
beyond M); the central t^mbar K_i go to DiagCurrent(delta_i, ...) for
i < q and to X-modes of delta_mu for i = q.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination, Sink
from .lattice import LatticeConfig, LatticeVector, Record, bilinear, parity
from .fock_lattice import (
    LatticeFockState,
    _dressed_current,
    _effective_bound,
    heisenberg_apply,
    normal_ordered_pair_sum,
    vertex_mode_apply,
    vertex_modes,
    vertex_product_sum,
)
from .fock_boson import BosonState, _check_flavor, creation_modes, key_depth, mode_on_key


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


def _shape(src: Sink):
    """(M, q) read off the gamma of any group key of a tensor state in integer form."""
    return next(iter(src.terms))[0].shape


# ---------------------------------------------------------------------------
# operator descriptors


class _Operator(Record):
    """Shared by the descriptors: an operator is even unless it says otherwise.

    An operator adds scale * op src into a sink with _into, src and sink both
    tensor states in integer form (Sinks grouped by (gamma, boson key)), so a
    composite hands its factors integers, and apply builds one Fraction per key
    of the image.  Only the boson modes override apply: they send distinct keys to
    distinct keys, so they keep or scale each Fraction and never need the ints.
    Every operator class holds apply in its own __dict__ for a tracer to wrap.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.apply = cls.apply

    def apply(self, ts: TensorState) -> TensorState:
        if not ts.terms:  # the zero state stops here, so no _into is handed it
            return ts
        sink = Sink()
        self._into(sink, Sink.of(ts.terms), 1)
        return sink.state(TensorState)

    def parity(self, M=None) -> int:
        return 0


class VertexMode(_Operator):
    alpha: LatticeVector
    index: int  # doubled

    def _into(self, sink: Sink, src: Sink, scale):
        # one kernel call serves every boson half
        vertex_mode_apply(self.alpha, self.index, src, sink, scale)

    def parity(self, M=None) -> int:
        return bilinear(self.alpha, self.alpha) % 2


class Current(_Operator):
    alpha: LatticeVector
    mode: int

    def _into(self, sink: Sink, src: Sink, scale):
        heisenberg_apply(self.alpha, self.mode, src, sink, scale)


class _BosonMode(_Operator):
    flavor: int
    r: int  # mode r - 1/2

    def __post_init__(self):
        _check_flavor(self.flavor)

    def _images(self, terms):
        """(image key, value, int weight) per item of terms, keyed (lattice half, boson
        key), whose boson key the mode keeps: the boson key is rewritten, the lattice half
        stays.  The lattice half is a lattice key, or the gamma of a group."""
        j, r, star = self.flavor, self.r, self._star
        for (lk, bk), c in terms.items():
            image = mode_on_key(j, r, bk, star)
            if image is not None:
                yield (lk, image[0]), c, image[1]

    def apply(self, ts: TensorState) -> TensorState:
        # distinct keys have distinct images, so a coefficient is kept or scaled, never
        # summed, and apply need not turn it into an int and back
        return TensorState._from_clean({key: c if w == 1 else c * w
                                        for key, c, w in self._images(ts.terms)})

    def _into(self, sink: Sink, src: Sink, scale):
        # one boson key per group, so one mode_on_key serves every monomial of it
        sink.add(((key, group.items(), w) for key, group, w in self._images(src.terms)),
                 src.den, scale)


class PhiMode(_BosonMode):
    _star = False


class PhiStarMode(_BosonMode):
    _star = True


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

    def _into(self, sink: Sink, src: Sink, scale):
        dm = LatticeConfig(*_shape(src)).delta_sum(self.mu)
        _dressed_current(self.alpha, dm, self.mode, src, sink, scale)


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
    vertex_modes window of the family's vector serves every half, each keyed
    to its images; the kernel skips a half without images.  One call also
    widens the sink once for all halves.
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

    def _into(self, sink: Sink, src: Sink, scale):
        M, q = _shape(src)
        fam = self.family(M)
        cfg = LatticeConfig(M, q)
        vec = cfg.delta_sum(self.mu)
        if fam != "boson":
            vec = (cfg.e(self.i) if fam == "upper" else -cfg.e(self.j)) + vec
        halves = {}  # boson key -> its ((gamma, boson key), monomials) items
        for item in src.terms.items():
            halves.setdefault(item[0][1], []).append(item)
        # one kernel call for every boson half, each half reading its own indices
        targets = {bk: self._boson_images(fam, M, vec, bk, items) for bk, items in halves.items()}
        idxs = {idx for images in targets.values() for idx in images}
        vertex_modes(vec, idxs, src, dict.fromkeys(idxs, sink), scale, targets)

    def _boson_images(self, fam: str, M: int, vec, bk, items) -> dict:
        """{lattice doubled index: [(boson image key, integer weight), ...]} on the boson
        key bk.  The key's creation depth bounds the boson annihilators, and the
        effective bound of vec on items, the sink's groups under bk, the lattice index;
        the only nonzero mode of vec = 0 (the boson family at mu = 0) is X_0."""
        a, b, n = self.i - M, self.j - M, self.n
        bd, bound = key_depth(bk), _effective_bound(vec, items)
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

    def _into(self, sink: Sink, src: Sink, scale):
        M, q = _shape(src)
        if len(self.mbar) != q:
            raise ValueError(f"mbar has length {len(self.mbar)}, state has q={q}")
        self.resolve(M)._into(sink, src, scale)

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

    def _into(self, sink: Sink, src: Sink, scale):
        normal_ordered_pair_sum(self.a, self.b, self.n, src, sink, scale)


class VertexProductSum(_Operator):
    """sum_k X_{idx-k}(a) X_k(delta_mu), the dressed vertex mode."""

    a: LatticeVector
    mu: tuple
    index: int  # doubled

    def _into(self, sink: Sink, src: Sink, scale):
        dm = LatticeConfig(*_shape(src)).delta_sum(self.mu)
        vertex_product_sum(self.a, dm, self.index, src, sink, scale)

    def parity(self, M=None) -> int:
        return bilinear(self.a, self.a) % 2


class OpProduct(_Operator):
    factors: tuple

    def _into(self, sink: Sink, src: Sink, scale):
        """The rightmost factor acts first; each image but the last is a new Sink, and
        a zero image ends the product."""
        if not self.factors:
            sink.add(((key, group.items(), 1) for key, group in src.terms.items()),
                     src.den, scale)
            return
        for f in reversed(self.factors[1:]):
            image = Sink()
            f._into(image, src, 1)
            if not image.terms:
                return
            src = image
        self.factors[0]._into(sink, src, scale)

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

    def _into(self, sink: Sink, src: Sink, scale):
        """Each term adds into sink at scale times its coefficient."""
        for c, op in self.terms:
            if c:
                op._into(sink, src, scale * c)

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


def commutator(op1, op2, M: int) -> OpSum:
    """[op1, op2] = op1 op2 - (-1)^{|op1||op2|} op2 op1, the OpSum of the two orderings,
    with each parity read at M; the sign is -1 unless both operators are odd."""
    p1, p2 = op1.parity(M), op2.parity(M)
    if p1 is None or p2 is None:
        raise ValueError("super commutator needs homogeneous operators")
    return OpSum(((1, OpProduct((op1, op2))), (1 if p1 and p2 else -1, OpProduct((op2, op1)))))


def super_commutator(op1, op2, ts: TensorState) -> TensorState:
    """[op1, op2] s, the commutator applied to s; the zero state maps to itself before any
    parity is read."""
    if not ts.terms:
        return ts
    # both orderings add into one sink; calling _Operator.apply keeps the sum out of the
    # tracer's per-operator apply counts
    return _Operator.apply(commutator(op1, op2, ts.lattice_shape()[0]), ts)
