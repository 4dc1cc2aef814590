"""Lattice Fock space and exact vertex-operator Fourier modes.

States live in C[Gbar] (x) S(hbar_-): a state is a finitely supported
rational combination of basis vectors

    e^gamma (x) u,    gamma in Gbar,  u a monomial in creation modes b(-n)

with b ranging over the lattice basis and n > 0.  A monomial is stored as
a sorted tuple of (basis index, mode) pairs with repetition.

The Heisenberg algebra acts by multiplication (negative modes), the
derivation sending b(-n) to delta_{m,n} m (a, b) (positive modes), and
the scalar (a, gamma) (zero mode).  The central element acts as 1 and is
never represented.

Vertex operators follow the standard homogeneous construction

    Y(a, z) = e^a z^{a(0)} exp T_-(a, z) exp T_+(a, z),
    T_+-(a, z) = - sum_{n in Z_+-} (1/n) a(n) z^{-n},

with Fourier modes addressed by a doubled integer index idx: X_idx(a) is
the coefficient of z^{-h} in Y(a, z), with h = (idx + p)/2 for an even
vector of norm p = (a, a) and h = (idx + 1)/2 for every odd vector,
whatever its norm (_mode_depth).  So an even vector's mode n of
X(a, z) = z^{p/2} Y(a, z) is stored as 2n, and an odd vector of norm 1
has its mode n - 1/2 stored as 2n - 1; for an odd vector of norm p >= 3
the doubled index is not twice the conformal mode: mode m is 2m + p - 1.

Every mode application is exact and finite: exp T_+ substitutes
f - (a, b) z^{-n} for each factor f = b(-n), a finite product of
binomials with integer coefficients, and per index only the single
creation level that can reach the requested z-coefficient is expanded
from exp T_-.  No truncation parameter exists anywhere.  The kernel,
vertex_modes, serves a window of indices of one vector on one state
from one pass over the state, so the mode sums that need many modes of
X(a) on the same state read them all at once; vertex_mode_apply is its
one-index case.  exp T_+ leaves a factor b(-n) with (a, b) = 0 as it is,
so the kernel looks exp T_+ up once per key on the key's contracted part
alone and passes the carried factors through.

exp T_- factors over the basis, prod_b exp(w_b sum_n b(-n) z^n / n) for
a = sum_b w_b b, so the kernel may multiply by the creation levels of a
one group of its support bases at a time.  Two products of annihilated
and created monomials can meet on one key only through a basis that an
annihilated monomial already uses; the kernel takes such met bases one
at a time, merging equal monomials after each, and then the other bases
of a's support together, writing each product straight to the image.

Inside the package the operators run in an integer form: a Sink (see
combination) holds int numerators over one denominator, keyed by (lattice
key, tag) with the tag a boson key, and vertex_modes, vertex_mode_apply,
the Heisenberg modes and the mode sums add scale times their image into a
sink the caller owns.  A mode sum feeds each window image to its outer
factor as ints, and the representation layer keeps the boson half as the
tag, so no Fraction is built between the kernel and the tensor state.  The
public functions on lattice states take and give Fractions around that
form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, factorial, gcd

from .combination import Combination, Sink
from .lattice import LatticeVector, basis_support, bilinear, cocycle, pair_with_basis, parity

NEG_INF = float("-inf")


def monomial_degree(mono) -> int:
    return sum(n for _, n in mono)


def monomial_insert(mono, factor):
    return tuple(sorted(mono + (factor,)))


def monomial_remove(mono, factor):
    out = list(mono)
    out.remove(factor)
    return tuple(out)


class LatticeFockState(Combination):
    """Finitely supported map (gamma, monomial) -> nonzero rational."""

    __slots__ = ()

    @classmethod
    def basis(cls, gamma: LatticeVector, mono=(), coeff=1) -> "LatticeFockState":
        return cls({(gamma, tuple(sorted(mono))): coeff})

    @classmethod
    def vacuum(cls, config) -> "LatticeFockState":
        return cls.basis(config.zero())

    @staticmethod
    def _sort_key(item):
        (gamma, mono), _ = item
        return (*gamma, mono)

    @staticmethod
    def _format_term(key, c) -> str:
        g, u = key
        return f"{c} * e^{g!r} (x) {u or 1}"

    def parity(self):
        """Common parity of all keys, or None for a mixed state."""
        seen = {parity(g) for (g, _) in self.terms}
        return seen.pop() if len(seen) == 1 else None


def heisenberg_apply(a: LatticeVector, m: int, s, sink=None, scale=1):
    """Action of the Heisenberg mode a(m) on a state.

    m < 0 multiplies by a(m), m = 0 scales each key by (a, gamma), m > 0
    acts as the derivation contracting one matching factor at a time.  With
    a sink, scale * a(m) s is added into it in integer form, every tag kept,
    and the sink is returned.
    """
    if sink is None:
        return _on_lattice(heisenberg_apply, s, a, m)
    terms = s.terms.items()
    if m < 0:
        supp = basis_support(a)
        items = ((((gamma, monomial_insert(mono, (b, -m))), tag), n * w)
                 for ((gamma, mono), tag), n in terms for b, w in supp)
    elif m == 0:
        items = ((key, n * bilinear(a, key[0][0])) for key, n in terms)
    else:
        # one of the mult copies of a distinct factor f = b(-m) goes, weighted mult m (a, b)
        items = ((((gamma, monomial_remove(mono, f)), tag), n * (mono.count(f) * m * w))
                 for ((gamma, mono), tag), n in terms for f in dict.fromkeys(mono)
                 if f[1] == m and (w := pair_with_basis(a, f[0])))
    sink.add(items, s.den, scale)
    return sink


def _tagged(s: LatticeFockState) -> Sink:
    """s in integer form: each key tagged None."""
    src = Sink.of(s)
    return Sink(src.den, {(key, None): n for key, n in src.terms.items()})


def _untagged(sink: Sink) -> LatticeFockState:
    """The lattice state of a sink in integer form, its tags dropped."""
    den = sink.den
    return LatticeFockState._from_clean({lk: Fraction(n, den) for (lk, _), n in sink.terms.items()})


def _on_lattice(fn, s: LatticeFockState, *args) -> LatticeFockState:
    """fn(*args, s) on a lattice state, through fn's integer form, which never sees 0."""
    if not s.terms:
        return s
    return _untagged(fn(*args, _tagged(s), Sink()))


def group_multiply(a: LatticeVector, s: LatticeFockState) -> LatticeFockState:
    """Twisted group algebra action e^a: (gamma, u) -> F(a, gamma) (a+gamma, u)."""
    return LatticeFockState._from_clean(
        {(a + gamma, mono): c * cocycle(a, gamma) for (gamma, mono), c in s.terms.items()}
    )


# thm46's heaviest check reads 50 levels and a q = 3 heavy check 120; a whole thm46 pass
# reads 330 and misses 345 at this bound, 501 at 128 (act: 660 and 915).  The bound keeps
# the levels of a deep mode from living as long as the process
@lru_cache(maxsize=256)
def _creation_level(a: LatticeVector, c: int):
    """Coefficient of z^c in exp T_-(a, z) applied to 1, in closed form.

    Returns (D, ((added-factors monomial, numerator), ...)) with the
    monomials sorted and gcd(D, numerators) = 1, each coefficient being
    numerator / D.  With a(-n) = sum_b w_b b(-n), exp T_- is the product
    over the factor kinds f = b(-n) of exp(w_b f z^n / n), so the
    monomial with m_f copies of each f has coefficient
    prod_f w_b^m_f / (n^m_f m_f!), and c! times it is an int.

    The monomials of degree c are enumerated depth first over the kinds
    in factor order, more copies of a kind before fewer, which is their
    sorted order.  After the kind b(-n) of the last basis index only
    larger modes remain, so a branch that would leave a degree in 1..n
    is not entered.  The recursive fill refers to itself through its cell,
    and that cell is emptied once it returns, so a call's scratch is freed
    by reference counting and leaves no cycle for the cyclic collector.
    """
    supp = basis_support(a)
    fact = factorial(c)
    # per kind b(-n) in factor order: its runs (degree, factors, w^m, n^m m!), most copies
    # first, then n and whether b is the last basis index
    kinds = [([(m * n, ((b, n),) * m, w**m, n**m * factorial(m)) for m in range(c // n, 0, -1)],
              n, b == supp[-1][0]) for b, w in supp for n in range(1, c + 1)]
    out = [((), 1)] if c == 0 else []

    def fill(i, left, mono, num, rest):  # rest = c! / (the n^m m! so far), an int
        for j in range(i, len(kinds)):
            runs, n, last = kinds[j]
            for deg, run, wm, dm in runs:
                if deg == left:
                    out.append((mono + run, num * wm * (rest // dm)))
                elif deg < left and (not last or left - deg > n):
                    fill(j + 1, left - deg, mono + run, num * wm, rest // dm)

    fill(0, c, (), 1, fact)
    del fill  # breaks the cycle fill -> its cell -> fill
    g = gcd(fact, *(q for _, q in out))
    return fact // g, tuple((mono, q // g) for mono, q in out)


# thm46's heaviest check looks up 79 contracted parts, and a whole thm46 pass 1,338 (1,373 misses)
@lru_cache(maxsize=512)
def _exp_annihilation(a: LatticeVector, mono):
    """exp T_+(a, z) applied to a monomial, as {level d: ((mono', int coefficient), ...)}.

    Level d collects the z^{-d} coefficient.  T_+ acts as the derivation
    b(-n) -> -(a, b) z^{-n}, so exp T_+ is the algebra map substituting
    f - (a, b_f) z^{-n_f} for each factor f = b_f(-n_f).  A factor of
    multiplicity m keeps m - k copies with weight C(m, k) (-(a, b_f))^k
    at level k n_f; every coefficient is a nonzero int.  A factor with
    (a, b_f) = 0 is kept as it is, so this holds for any monomial, but
    vertex_modes asks only for the contracted part of each key and carries
    the rest past the cache.
    """
    terms = [(0, (), 1)]  # (level, kept factors, coefficient)
    for f, run in groupby(mono):
        m = len(tuple(run))
        w = -pair_with_basis(a, f[0])
        # mono is sorted and f runs in its order, so the kept factors stay sorted
        options = [(k * f[1], (f,) * (m - k), comb(m, k) * w**k) for k in range(m + 1 if w else 1)]
        terms = [(d + dk, kept + rest, c * ck) for d, kept, c in terms for dk, rest, ck in options]
    levels = {}
    for d, kept, c in terms:
        levels.setdefault(d, []).append((kept, c))
    return {d: tuple(monos) for d, monos in levels.items()}


def _mode_depth(a: LatticeVector, idx: int, p=None) -> int:
    """z-power h with X_idx(a) = coefficient of z^{-h} in Y(a, z); p is (a, a) if known."""
    if p is None:
        p = bilinear(a, a)
    if p % 2 == 0:
        if idx % 2:
            raise ValueError(f"even vector {a!r} takes even doubled indices, got {idx}")
        return (idx + p) // 2
    if idx % 2 == 0:
        raise ValueError(f"odd vector {a!r} takes odd doubled indices, got {idx}")
    return (idx + 1) // 2


def vertex_modes(a: LatticeVector, idxs, s, sink=None, scale=1, targets=None):
    """{idx: X_idx(a) s} for every doubled index idx of the window idxs, a in Q.

    Per key e^gamma (x) u and index the z-coefficient is assembled from
    annihilation level d (bounded by deg u) and the single creation level
    c = d - (a, gamma) - h_idx that lands on the requested power.  No
    level depends on the index but the creation level, so one pass over
    s serves the whole window: one exp T_+ lookup per key, the shift
    (a, gamma), the sign F(a, gamma) and the target a + gamma once per
    gamma (from _shifted, which caches them across calls), and the
    annihilated monomials of all keys summed per (gamma, level d) once,
    each distinct one then multiplied by the creation level of each
    index.  The lookup takes only the key's contracted
    factors, those of basis indices in _paired(a); the carried factors
    go in front of each kept monomial, a canonical key because the split
    of a monomial is unique, and the product with the created factors
    sorts the whole.

    The product with the creation levels runs in stages, one group of a's
    support bases each, from _grouping; the annihilated sums are bucketed by
    the creation degree r they still need.  A stage multiplies bucket r by
    the levels j <= r of a restricted to its group and puts the products in
    bucket r - j; the last stage reads only level r, which empties the
    bucket.  A basis that some annihilated monomial of a (gamma, tag) uses
    (a met basis) can form one key from two pairs, so each takes a stage of
    its own whose products are merged.  The free bases cannot: the factors
    of a key in free bases are exactly the created ones, so the key splits
    back into its pair, and their one last stage writes each product
    straight to the image.

    The sums run on ints: the annihilation levels are integral, and a
    created monomial of degree c has coefficient prod w^m / prod(n^m m!),
    with c! / prod(n^m m!) an int.  With cmax the largest creation degree
    an index needs and D the denominator its image is written over, a
    multiple of den_in * cmax!, bucket r is kept over D / r!, and every
    stage's factor r! / ((r - j)! D_j) is an int.  Output keys are grouped
    by gamma, so the inner loops hash only monomials.  An index whose image
    is 0 maps to the zero state.  a = 0 takes the same path: its creation
    levels above 0 are empty, so X_0(0) is the identity and its other modes 0.

    With a sink, the package's integer form, nothing is returned: s is a
    Sink whose keys are (lattice key, tag) pairs, the tag (a boson key)
    riding along, and scale * X_idx(a) s is added into sink[idx] as
    numerators over its den, which is widened once per index before any is
    written.  An image key keeps its tag; with targets, {tag: {idx:
    ((target tag, int weight), ...)}}, it is written once per target that
    its tag lists at idx, times the weight, and not at all where the tag
    lists no idx.  Keys are grouped by (gamma, tag), so a lattice key under
    several tags meets its creation levels once per tag.  Without a sink,
    s is a lattice state, and its images are built through a sink each.
    """
    if sink is None:
        images = {idx: Sink() for idx in idxs}
        vertex_modes(a, images, _tagged(s), images)
        return {idx: _untagged(image) for idx, image in images.items()}
    if not a.in_q():
        raise ValueError(f"vertex operators require a in Q, got {a!r}")
    if not idxs or not s.terms or not scale:
        return
    norm = bilinear(a, a)
    depths = {idx: _mode_depth(a, idx, norm) for idx in idxs}
    h_lo = min(depths.values())
    paired = _paired(a)
    # (gamma, tag) -> ({level d: {annihilated monomial: numerator over s.den}}, a + gamma,
    # (a, gamma), F(a, gamma)); a level below (a, gamma) + h_lo needs a negative creation
    # level at every index
    groups = {}
    for ((gamma, mono), tag), num in s.terms.items():
        hoisted = groups.get((gamma, tag))
        if hoisted is None:
            hoisted = groups[gamma, tag] = ({}, *_shifted(a, gamma))
        levels, _, shift, _ = hoisted
        # only the contracted factors are looked up; the carried ones pass exp T_+ unchanged
        carried = ()
        for b, _ in mono:
            if b not in paired:
                carried = tuple([f for f in mono if f[0] not in paired])
                mono = tuple([f for f in mono if f[0] in paired])
                break
        for d, monos in _exp_annihilation(a, mono).items():
            if d < shift + h_lo:
                continue
            annihilated = levels.get(d)
            if annihilated is None:
                annihilated = levels[d] = {}
            get = annihilated.get
            for mo, n_ann in monos:
                mo = carried + mo
                annihilated[mo] = get(mo, 0) + num * n_ann
    # the largest creation degree of index idx is top - h_idx; each image's sink is widened
    # to den_in * scale's denominator * that degree's factorial before any is written, since
    # indices may share a sink, and lift[idx] puts a numerator over that den over the sink's
    top = max((max(levels) - shift for levels, _, shift, _ in groups.values() if levels),
              default=None)
    if top is None:
        return
    dens = {idx: s.den * scale.denominator * factorial(top - h)
            for idx, h in depths.items() if top >= h}
    for idx, den in dens.items():
        sink[idx].widen(den)
    lift = {idx: sink[idx].den // den * scale.numerator for idx, den in dens.items()}
    support = {b for b, _ in basis_support(a)}
    for (_, tag), (levels, new_gamma, shift, sign) in groups.items():
        if targets is not None:
            by_idx = targets[tag]
        # the met bases of the group, over the annihilated monomials of all its levels
        stages = _grouping(a, frozenset(support.intersection(
            [b for annihilated in levels.values() for mo in annihilated for b, _ in mo])))
        last = len(stages) - 1
        for idx, h in depths.items():
            if targets is not None and idx not in by_idx:
                continue
            base = shift + h
            # creation degree r still needed -> {monomial: numerator}
            buckets = {d - base: annihilated for d, annihilated in levels.items() if d >= base}
            if not buckets:
                continue
            # the stage-0 lift: sign * cmax! with cmax = top - h, times lift[idx] and the
            # weight of a single target; several targets share one image, copied to each
            first = sign * factorial(top - h) * lift[idx]
            spread = None
            if targets is None:
                terms, out_tag = sink[idx].terms, tag
            elif len(by_idx[idx]) == 1:
                (out_tag, w), = by_idx[idx]
                terms = sink[idx].terms
                first *= w
            else:
                terms, out_tag, spread = {}, None, by_idx[idx]
            get_out = terms.get
            # bucket r holds numerators over D / r!; the first stage lifts the raw
            # numerators, over den_in, by first.  A stage pops each bucket as it reads it,
            # so its input drains while its output fills; it reads them by rising r, since
            # every bucket feeds the ones below it and the low ones grow largest
            for i, (g, merges) in enumerate(stages):
                nxt = {}
                for r in sorted(buckets):
                    entries = buckets.pop(r)
                    lift_r = factorial(r) if i else first
                    for j in range(r if i == last else 0, r + 1):
                        d_cre, created = _creation_level(g, j)
                        q = lift_r // (factorial(r - j) * d_cre)
                        if not merges:  # distinct pairs give distinct keys
                            for mo, n in entries.items():
                                if n:
                                    n *= q
                                    for extra, n_cre in created:
                                        key = ((new_gamma, tuple(sorted(mo + extra))), out_tag)
                                        v = get_out(key, 0) + n * n_cre
                                        if v:
                                            terms[key] = v
                                        else:
                                            del terms[key]
                            continue
                        target = nxt.setdefault(r - j, {})
                        get = target.get
                        for mo, n in entries.items():
                            if n:
                                n *= q
                                if i and not j:  # level 0 keeps a key, sorted after stage 0
                                    target[mo] = get(mo, 0) + n
                                    continue
                                for extra, n_cre in created:
                                    key = tuple(sorted(mo + extra))
                                    target[key] = get(key, 0) + n * n_cre
                buckets = nxt
            for mo, n in buckets.get(0, {}).items():
                if n:
                    key = ((new_gamma, mo), out_tag)
                    v = get_out(key, 0) + n
                    if v:
                        terms[key] = v
                    else:
                        del terms[key]
            if spread:
                out = sink[idx]
                out.add((((lk, t), n * w) for (lk, _), n in terms.items() for t, w in spread),
                        out.den)


# keyed by (vector, met bases): 175 in a thm46 pass and 436 in an act pass
@lru_cache(maxsize=512)
def _grouping(a: LatticeVector, met: frozenset) -> tuple:
    """The stages vertex_modes multiplies by, ((vector, merges), ...): each basis of
    met, a set of a's support bases, alone and merged after it, then the free bases
    of the support in one stage, not merged, each vector being a restricted to its
    bases.  a = 0 has no support and takes the one free stage ((a, False),), which
    still carries the lift of stage 0.

    Products of a sum by created factors in free bases only split back uniquely into
    the two, so distinct pairs give distinct keys there.
    """
    def restrict(bases):
        flat = tuple(c if b in bases else 0 for b, c in enumerate(a.flat))
        return LatticeVector.from_flat(flat, a.shape[0])

    free = {b for b, _ in basis_support(a)} - met
    stages = tuple((restrict((b,)), True) for b in sorted(met))
    return stages + ((restrict(free), False),) if free or not met else stages


def vertex_mode_apply(a: LatticeVector, idx: int, s, sink=None, scale=1):
    """Apply the Fourier mode with doubled index idx of X(a, .), a in Q: the
    window of vertex_modes with the one index idx.  With a sink, scale *
    X_idx(a) s is added into it, both in the integer form of vertex_modes, and
    the sink is returned."""
    if sink is None:
        return vertex_modes(a, (idx,), s)[idx]
    vertex_modes(a, (idx,), s, {idx: sink}, scale)
    return sink


# a gamma rarely repeats across calls: a thm46 pass meets 975 of them and hits 438 times
@lru_cache(maxsize=512)
def _shifted(a: LatticeVector, gamma: LatticeVector) -> tuple:
    """(a + gamma, (a, gamma), F(a, gamma)): what vertex_modes needs of each gamma."""
    return a + gamma, bilinear(a, gamma), cocycle(a, gamma)


# one entry per vector: 70 in a thm46 pass and 199 in an act pass
@lru_cache(maxsize=512)
def _paired(a: LatticeVector) -> frozenset:
    """The basis indices b with (a, b) != 0: the factors b(-n) that a(n) can contract."""
    return frozenset(b for b in range(a.rank) if pair_with_basis(a, b))


def _mode_bound(a: LatticeVector, keys, paired):
    """max over the lattice keys of 2 (deg u - (a, gamma)) minus the norm for even a and
    minus 1 for odd a, deg u counting only the factors of basis indices in
    paired (all when paired is None); -inf without keys.  (a, gamma)
    is computed once per gamma, for its largest degree."""
    p = bilinear(a, a)
    drop = p if p % 2 == 0 else 1
    degrees = {}  # gamma -> largest counted degree of its monomials
    for g, u in keys:
        d = monomial_degree(u) if paired is None else sum(n for b, n in u if b in paired)
        if d > degrees.get(g, -1):
            degrees[g] = d
    return max((2 * (d - bilinear(a, g)) - drop for g, d in degrees.items()), default=NEG_INF)


def _effective_bound(a: LatticeVector, keys):
    """effective_mode_bound on the lattice keys keys, -inf without keys."""
    return _mode_bound(a, keys, _paired(a))


def vanishing_bound(a: LatticeVector, s: LatticeFockState):
    """Least doubled index bound B with X_k(a) s = 0 for all k > B.

    Per key the bound is 2 (deg u - (a, gamma)) minus the norm for even a
    and minus 1 for odd a; the zero state yields -inf.
    """
    return _mode_bound(a, s.terms, None)


def effective_mode_bound(a: LatticeVector, s: LatticeFockState):
    """Sharper doubled-index bound counting only factors a can contract.

    Factors b(-n) with (a, b) = 0 cannot be consumed by the annihilation
    half of the vertex operator, so they do not extend the support of the
    mode family.  Used to clip the infinite mode sums of the toroidal
    operators, where states carry factors orthogonal to a.
    """
    return _effective_bound(a, s.terms)


def current_upper_bound(a: LatticeVector, s: LatticeFockState):
    """Largest m > 0 with a(m) s possibly nonzero (0 if none; -inf on 0)."""
    return NEG_INF if s.is_zero() else _current_bound(a, s.terms)


def _current_bound(a: LatticeVector, keys) -> int:
    """current_upper_bound on the lattice keys keys, 0 without keys."""
    paired = _paired(a)
    return max((n for _, u in keys for b, n in u if b in paired), default=0)


def window_sum(vec: LatticeVector, idxs, src: Sink, outer):
    """Call outer(idx, image) for each idx of the window idxs whose image X_idx(vec) src
    is nonzero, in order, each image a Sink in the integer form of vertex_modes that is
    dropped once read; the images come from one window of vertex_modes.  Every mode sum
    but the S modes' runs on this skeleton."""
    images = {idx: Sink() for idx in idxs}
    vertex_modes(vec, images, src, images)
    for idx in list(images):
        image = images.pop(idx)
        if image.terms:
            outer(idx, image)


def _lattice_keys(src: Sink) -> list:
    """The lattice half of each key of a state in integer form."""
    return [lk for lk, _ in src.terms]


def vertex_product_sum(a: LatticeVector, dm: LatticeVector, idx: int, s, sink=None, scale=1):
    """sum_k X_{idx-k}(a) X_k(dm) s for an isotropic dm orthogonal to a; with a sink,
    that times scale is added into it in integer form, and the sink is returned.

    The k sum (doubled, even) is clipped above by the vanishing bound of
    dm on s and below because X(dm) only creates factors a cannot
    contract, so the effective bound of a on s caps idx - k.
    """
    if bilinear(dm, dm) != 0 or bilinear(a, dm) != 0:
        raise ValueError("product sum requires (dm, dm) = (a, dm) = 0")
    if sink is None:
        return _on_lattice(vertex_product_sum, s, a, dm, idx)
    keys = _lattice_keys(s)
    lo = idx - _effective_bound(a, keys)
    window_sum(dm, range(lo + lo % 2, _mode_bound(dm, keys, None) + 1, 2), s,
               lambda k, image: vertex_mode_apply(a, idx - k, image, sink, scale))
    return sink


def _dressed_current(a: LatticeVector, dm: LatticeVector, n: int, s: Sink, sink: Sink,
                     scale=1) -> Sink:
    """Add scale * sum_k a(k) X_{2(n-k)}(dm) s into sink, in integer form, for a
    without d-components and dm = delta_mu; return the sink.

    X_{2(n-k)}(dm) kills s once 2(n-k) passes the effective bound of dm,
    which fixes the lowest k, and a(k) kills every state for k beyond the
    current bound of a on s.  That bound, read on s, still holds on
    X(dm) s: X(dm) creates only delta factors, which a cannot contract.
    """
    if dm.is_zero():
        return heisenberg_apply(a, n, s, sink, scale)
    keys = _lattice_keys(s)
    window_sum(dm, range(2 * (n - _current_bound(a, keys)), _effective_bound(dm, keys) + 1, 2),
               s, lambda j, image: heisenberg_apply(a, n - j // 2, image, sink, scale))
    return sink


def normal_ordered_pair_sum(a: LatticeVector, b: LatticeVector, n: int, s, sink=None, scale=1):
    """sum_k :X_{k+1/2}(a) X_{n-k-1/2}(b): s for odd vectors a, b; with a sink, that
    times scale is added into it in integer form, and the sink is returned.

    Normal ordering keeps the written order when k + 1/2 <= n - k - 1/2,
    i.e. k <= (n-1)//2, and otherwise swaps the two odd factors with a
    minus sign.  In each term the factor acting first is the one with the
    larger mode, so the effective bound of its vector on s clips k.  The
    first factors of each range come from one window on s.
    """
    if parity(a) != 1 or parity(b) != 1:
        raise ValueError("normal ordered pair sum is for odd vectors")
    if sink is None:
        return _on_lattice(normal_ordered_pair_sum, s, a, b, n)
    keys = _lattice_keys(s)
    split = (n - 1) // 2
    kept = range(n - (_effective_bound(b, keys) + 1) // 2, split + 1)
    window_sum(b, [2 * (n - k) - 1 for k in kept], s,
               lambda j, image: vertex_mode_apply(a, 2 * n - j, image, sink, scale))
    swapped = range(split + 1, (_effective_bound(a, keys) - 1) // 2 + 1)
    window_sum(a, [2 * k + 1 for k in swapped], s,
               lambda j, image: vertex_mode_apply(b, 2 * n - j, image, sink, -scale))
    return sink
