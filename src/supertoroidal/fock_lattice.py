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

with Fourier modes X_n(a) read off from X(a, z) = z^{(a,a)/2} Y(a, z)
for even a (integer n) and X(a, z) = Y(a, z) for odd a (n in Z - 1/2).
Modes are addressed by a doubled integer index: an even vector's mode n
is stored as 2n and an odd vector's mode n - 1/2 as 2n - 1.

Every mode application is exact and finite: exp T_+ terminates because
each step lowers the monomial degree, and only the single creation level
that can reach the requested z-coefficient is expanded from exp T_-.  No
truncation parameter exists anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .combination import Combination, accumulate
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
        return (gamma.e, gamma.delta, gamma.d, mono)

    @staticmethod
    def _format_term(key, c) -> str:
        g, u = key
        return f"{c} * e^{g!r} (x) {u or 1}"

    def parity(self):
        """Common parity of all keys, or None for a mixed state."""
        seen = {parity(g) for (g, _) in self.terms}
        return seen.pop() if len(seen) == 1 else None


def heisenberg_apply(a: LatticeVector, m: int, s: LatticeFockState) -> LatticeFockState:
    """Action of the Heisenberg mode a(m) on a state.

    m < 0 multiplies by a(m), m = 0 scales each key by (a, gamma), m > 0
    acts as the derivation contracting one matching factor at a time.
    """
    terms = s.terms.items()
    if m < 0:
        supp = basis_support(a)
        items = (((gamma, monomial_insert(mono, (b, -m))), c * w)
                 for (gamma, mono), c in terms for b, w in supp)
    elif m == 0:
        items = ((key, c * bilinear(a, key[0])) for key, c in terms)
    else:
        items = (((gamma, monomial_remove(mono, f)), c * (w * m))
                 for (gamma, mono), c in terms
                 for f, w in _contractions(a, mono) if f[1] == m)
    return LatticeFockState._sum(items)


def _contractions(a: LatticeVector, mono):
    """(f, mult * (a, b)) for each distinct factor f = b(-n) of mono that a pairs with.

    a(n) acts as a derivation: it removes one of the mult copies of f with
    the weight mult * n * (a, b).
    """
    seen = set()
    for f in mono:
        if f not in seen:
            seen.add(f)
            w = pair_with_basis(a, f[0])
            if w:
                yield f, mono.count(f) * w


def group_multiply(a: LatticeVector, s: LatticeFockState) -> LatticeFockState:
    """Twisted group algebra action e^a: (gamma, u) -> F(a, gamma) (a+gamma, u)."""
    return LatticeFockState._from_clean(
        {(a + gamma, mono): c * cocycle(a, gamma) for (gamma, mono), c in s.terms.items()}
    )


@lru_cache(maxsize=None)
def _creation_level(a: LatticeVector, c: int):
    """Coefficient of z^c in exp T_-(a, z) applied to 1.

    Returns (D, ((added-factors monomial, numerator), ...)), each
    coefficient being numerator / D.  Differentiating exp T_- in z gives
    k P_k = sum_{n=1..k} a(-n) P_{k-n} for the level-k part P_k, so
    Q_k = k! P_k has integer coefficients and
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


@lru_cache(maxsize=200_000)
def _exp_annihilation(a: LatticeVector, mono):
    """exp T_+(a, z) applied to a monomial, as {level d: (D_d, ((mono', numerator), ...))}.

    Level d collects the z^{-d} coefficient, each coefficient being
    numerator / D_d.  The series terminates since every T_+ application
    strictly lowers the degree.
    """
    total = {}  # (level d, monomial) -> coefficient
    step = {(0, mono): Fraction(1)}  # T_+^j / j! applied to mono
    j = 0
    while step:
        accumulate(total, step.items())
        j += 1
        # -(1/n) a(n) removes one factor b(-n) with weight -mult (a, b); then / j
        step = accumulate({}, (((d + f[1], monomial_remove(mo, f)), c * -w / j)
                               for (d, mo), c in step.items()
                               for f, w in _contractions(a, mo)))
    levels = {}
    for (d, mo), c in total.items():
        levels.setdefault(d, []).append((mo, c))
    for d, monos in levels.items():
        den = lcm(*(c.denominator for _, c in monos))
        levels[d] = den, tuple((mo, c.numerator * (den // c.denominator)) for mo, c in monos)
    return levels


def _mode_depth(a: LatticeVector, idx: int) -> int:
    """z-power h with X_idx(a) = coefficient of z^{-h} in Y(a, z)."""
    p = bilinear(a, a)
    if p % 2 == 0:
        if idx % 2:
            raise ValueError(f"even vector {a!r} takes even doubled indices, got {idx}")
        return (idx + p) // 2
    if idx % 2 == 0:
        raise ValueError(f"odd vector {a!r} takes odd doubled indices, got {idx}")
    return (idx + 1) // 2


def vertex_mode_apply(a: LatticeVector, idx: int, s: LatticeFockState) -> LatticeFockState:
    """Apply the Fourier mode with doubled index idx of X(a, .), a in Q.

    Per key e^gamma (x) u the z-coefficient is assembled from annihilation
    level d (bounded by deg u) and the single creation level
    c = d - (a, gamma) - h that lands on the requested power.

    The sums run on ints: each (key, level) pair contributes over
    q = (input denominator) * D_ann * D_cre, all are brought over the lcm
    of the q's, and one Fraction is built per output key.  Output keys
    are grouped by gamma, so the inner loop hashes only monomials.
    """
    if not a.in_q():
        raise ValueError(f"vertex operators require a in Q, got {a!r}")
    h = _mode_depth(a, idx)
    groups = {}  # input gamma -> [(signed numerator, q, annihilated, created), ...]
    dens = set()
    for (gamma, mono), coeff in s.terms.items():
        shift = bilinear(a, gamma)
        num = cocycle(a, gamma) * coeff.numerator
        group = groups.setdefault(gamma, [])
        for d, (d_ann, monos) in _exp_annihilation(a, mono).items():
            c_level = d - shift - h
            if c_level < 0:
                continue
            d_cre, created = _creation_level(a, c_level)
            q = coeff.denominator * d_ann * d_cre
            dens.add(q)
            group.append((num, q, monos, created))
    den = lcm(*dens)
    out = {}
    for gamma, group in groups.items():
        sums = {}  # monomial -> numerator over den
        get = sums.get
        for num, q, monos, created in group:
            scale = num * (den // q)
            for mo, n_ann in monos:
                base = scale * n_ann
                for extra, n_cre in created:
                    key = tuple(sorted(mo + extra))
                    sums[key] = get(key, 0) + base * n_cre
        new_gamma = a + gamma
        for mo, n in sums.items():
            if n:
                out[(new_gamma, mo)] = Fraction(n, den)
    return LatticeFockState._from_clean(out)


def vanishing_bound(a: LatticeVector, s: LatticeFockState):
    """Least doubled index bound B with X_k(a) s = 0 for all k > B.

    Per key the bound is 2 (deg u - (a, gamma)) minus the norm for even a
    and minus 1 for odd a; the zero state yields -inf.
    """
    if s.is_zero():
        return NEG_INF
    p = bilinear(a, a)
    drop = p if p % 2 == 0 else 1
    return max(
        2 * (monomial_degree(u) - bilinear(a, g)) - drop for (g, u) in s.terms
    )


def effective_mode_bound(a: LatticeVector, s: LatticeFockState):
    """Sharper doubled-index bound counting only factors a can contract.

    Factors b(-n) with (a, b) = 0 cannot be consumed by the annihilation
    half of the vertex operator, so they do not extend the support of the
    mode family.  Used to clip the infinite mode sums of the toroidal
    operators, where states carry factors orthogonal to a.
    """
    if s.is_zero():
        return NEG_INF
    p = bilinear(a, a)
    drop = p if p % 2 == 0 else 1
    best = NEG_INF
    for (g, u) in s.terms:
        eff = sum(n for (b, n) in u if pair_with_basis(a, b))
        best = max(best, 2 * (eff - bilinear(a, g)) - drop)
    return best


def current_upper_bound(a: LatticeVector, s: LatticeFockState):
    """Largest m > 0 with a(m) s possibly nonzero (0 if none; -inf on 0)."""
    if s.is_zero():
        return NEG_INF
    best = 0
    for (_, u) in s.terms:
        for b, n in u:
            if pair_with_basis(a, b) and n > best:
                best = n
    return best


def vertex_product_sum(a: LatticeVector, dm: LatticeVector, idx: int, s: LatticeFockState) -> LatticeFockState:
    """sum_k X_{idx-k}(a) X_k(dm) s for an isotropic dm orthogonal to a.

    The k sum (doubled, even) is clipped above by the vanishing bound of
    dm on s and below because X(dm) only creates factors a cannot
    contract, so the effective bound of a on s caps idx - k.
    """
    if bilinear(dm, dm) != 0 or bilinear(a, dm) != 0:
        raise ValueError("product sum requires (dm, dm) = (a, dm) = 0")
    hi = vanishing_bound(dm, s)
    lo = idx - effective_mode_bound(a, s)
    out = {}
    if hi == NEG_INF or lo == float("inf"):
        return LatticeFockState.zero()
    for k in range(lo + lo % 2, hi + 1, 2):
        inner = vertex_mode_apply(dm, k, s)
        if not inner.is_zero():
            accumulate(out, vertex_mode_apply(a, idx - k, inner).terms.items())
    return LatticeFockState._from_clean(out)


def normal_ordered_pair_sum(a: LatticeVector, b: LatticeVector, n: int, s: LatticeFockState) -> LatticeFockState:
    """sum_k :X_{k+1/2}(a) X_{n-k-1/2}(b): s for odd vectors a, b.

    Normal ordering keeps the written order when k + 1/2 <= n - k - 1/2
    and otherwise swaps the two odd factors with a minus sign.  In each
    term the factor acting first is the one with the larger mode, so the
    sum is clipped by the effective bounds of a and b on s.
    """
    if parity(a) != 1 or parity(b) != 1:
        raise ValueError("normal ordered pair sum is for odd vectors")
    ba = effective_mode_bound(a, s)
    bb = effective_mode_bound(b, s)
    out = {}
    if ba == NEG_INF or bb == NEG_INF:
        return LatticeFockState.zero()
    # doubled indices: first factor 2k+1, second 2(n-k)-1; the written
    # order is kept iff 2k+1 <= 2(n-k)-1, i.e. k <= (n-1)//2
    split = (n - 1) // 2
    keep_lo = n - (bb + 1) // 2  # keep order: second factor acts first
    swap_hi = (ba - 1) // 2  # swapped: first factor acts first
    for k in range(min(keep_lo, split + 1), max(split, swap_hi) + 1):
        i1 = 2 * k + 1
        i2 = 2 * (n - k) - 1
        if k <= split:
            if i2 > bb:
                continue
            accumulate(out, vertex_mode_apply(a, i1, vertex_mode_apply(b, i2, s)).terms.items())
        else:
            if i1 > ba:
                continue
            swapped = vertex_mode_apply(b, i2, vertex_mode_apply(a, i1, s))
            accumulate(out, ((key, -c) for key, c in swapped.terms.items()))
    return LatticeFockState._from_clean(out)

