"""gl(M|N) in its sign-twisted basis, the invariant form, and the
toroidal extension.

Basis symbols T_ij, 1 <= i, j <= M+N, are even when both indices land in
the same block (both <= M or both > M) and odd otherwise.  They are the
matrix units twisted by the cocycle F on the rank-M lattice,

    T_ab = s_ab E_ab,   s_ab = F(e_a, e_b) for a, b <= M, 1 otherwise,

the epsilon-twist of Frenkel-Kac (Invent. Math. 62, 1980).  The bracket
is the standard super bracket of the E_ab,

    [E_ab, E_cd] = delta_bc E_ad - (-1)^{|x||y|} delta_da E_cb,

and the form is the supertrace form str(E_ab E_cd), both rewritten in
the T basis.

The toroidal algebra attaches a Laurent exponent in Z^q to every symbol
and adjoins central symbols t^mbar K_i modulo the relation

    sum_i m_i t^mbar K_i = 0,

with bracket

    [X(mbar), Y(nbar)] = [X, Y](mbar+nbar) + (X, Y) d(t^mbar) t^nbar,
    d(t^mbar) t^nbar = sum_i m_i t^(mbar+nbar) K_i,

central symbols bracketing to zero.  Central parts are kept in a
canonical form: for mbar != 0 the K with the largest index carrying a
nonzero exponent is eliminated through the relation, which makes
equality in the quotient decidable by direct comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combination import Combination, accumulate, exact
from .lattice import LatticeConfig, cocycle


class GLElement(Combination):
    """Rational linear combination of basis symbols T_ij."""

    __slots__ = ()

    @classmethod
    def symbol(cls, i: int, j: int, coeff=1) -> "GLElement":
        return cls({(i, j): coeff})

    @staticmethod
    def _format_term(key, c) -> str:
        return f"{c}*T[{key[0]},{key[1]}]"


class ToroidalElement(Combination):
    """Combination of T_ij (x) t^mbar and central t^mbar K_i, reduced.

    Keys are ("T", i, j, mbar) or ("K", direction, mbar) with mbar a
    tuple of q integers.  Construction applies the canonical central
    reduction, so equal elements of the quotient compare equal.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        super().__init__(
            reduced for key, c in items for reduced in _reduce_key(key, exact(c))
        )

    @classmethod
    def _sum(cls, items):
        """The sum of (key, Fraction) items, reduced like any construction."""
        return cls(items)

    @classmethod
    def t(cls, i: int, j: int, mbar, coeff=1) -> "ToroidalElement":
        return cls({("T", i, j, tuple(int(x) for x in mbar)): coeff})

    @classmethod
    def k(cls, direction: int, mbar, coeff=1) -> "ToroidalElement":
        return cls({("K", direction, tuple(int(x) for x in mbar)): coeff})

    @staticmethod
    def _format_term(key, c) -> str:
        if key[0] == "T":
            return f"{c}*T[{key[1]},{key[2]}]t^{list(key[3])}"
        return f"{c}*t^{list(key[2])}K{key[1]}"


def _reduce_key(key, coeff):
    """Rewrite a pivot central key through sum_i m_i t^mbar K_i = 0."""
    if key[0] != "K":
        return ((key, coeff),)
    _, direction, mbar = key
    if not any(mbar):
        return ((key, coeff),)
    pivot = max(i for i, m in enumerate(mbar, start=1) if m)
    if direction != pivot:
        return ((key, coeff),)
    mp = mbar[pivot - 1]
    return tuple(
        (("K", i, mbar), -coeff * Fraction(m, mp))
        for i, m in enumerate(mbar, start=1)
        if m and i != pivot
    )


def d_cocycle(mbar, nbar) -> ToroidalElement:
    """d(t^mbar) t^nbar = sum_i m_i t^(mbar+nbar) K_i, reduced."""
    mbar = tuple(int(x) for x in mbar)
    nbar = tuple(int(x) for x in nbar)
    if len(mbar) != len(nbar):
        raise ValueError("exponent length mismatch")
    total = tuple(a + b for a, b in zip(mbar, nbar))
    return ToroidalElement(
        {("K", i, total): Fraction(m) for i, m in enumerate(mbar, start=1) if m}
    )


@lru_cache(maxsize=None)
def _twist(M: int, a: int, b: int) -> int:
    """s_ab, the sign with T_ab = s_ab E_ab: F(e_a, e_b) for a, b <= M, else 1."""
    if a > M or b > M:
        return 1
    cfg = LatticeConfig(M, 1)
    return cocycle(cfg.e(a), cfg.e(b))


class Superalgebra:
    """gl(M|N) with its bracket table, form, and toroidal bracket."""

    def __init__(self, M: int, N: int):
        if M < 1 or N < 1:
            raise ValueError("need M >= 1 and N >= 1")
        self.M = M
        self.N = N
        self.size = M + N
        self._lattice = LatticeConfig(M, 1)

    def symbols(self):
        for i in range(1, self.size + 1):
            for j in range(1, self.size + 1):
                yield (i, j)

    def parity_symbol(self, x) -> int:
        i, j = x
        return 0 if (i <= self.M) == (j <= self.M) else 1

    def f_roots(self, i, j, k, l) -> int:
        """Cocycle on roots: F(alpha_ij, alpha_kl)."""
        return cocycle(self._lattice.root(i, j), self._lattice.root(k, l))

    def f_basis(self, i, j) -> int:
        """Cocycle on basis vectors: F(e_i, e_j)."""
        return cocycle(self._lattice.e(i), self._lattice.e(j))

    def bracket(self, x, y) -> GLElement:
        """Super bracket of two basis symbols: the standard one, twisted.

        With T_ab = s_ab E_ab and each sign its own inverse,
        [T_ab, T_cd] = s_ab s_cd (delta_bc s_ad T_ad - (-1)^{|x||y|} delta_da s_cb T_cb).
        """
        a, b = x
        c, d = y
        for idx in (a, b, c, d):
            if not 1 <= idx <= self.size:
                raise ValueError(f"index {idx} out of range 1..{self.size}")
        M = self.M
        w = _twist(M, a, b) * _twist(M, c, d)
        items = []
        if b == c:
            items.append(((a, d), Fraction(w * _twist(M, a, d))))
        if d == a:
            odd = self.parity_symbol(x) and self.parity_symbol(y)
            items.append(((c, b), Fraction((w if odd else -w) * _twist(M, c, b))))
        return GLElement._sum(items)

    def bracket_el(self, X: GLElement, Y: GLElement) -> GLElement:
        return GLElement._sum(
            (k, cx * cy * w)
            for kx, cx in X.terms.items()
            for ky, cy in Y.terms.items()
            for k, w in self.bracket(kx, ky).terms.items()
        )

    def form(self, x, y) -> Fraction:
        """Supertrace form on basis symbols: (T_ab, T_cd) = s_ab s_cd str(E_ab E_cd)."""
        a, b = x
        c, d = y
        if b != c or d != a:
            return Fraction(0)
        return Fraction(_twist(self.M, a, b) * _twist(self.M, b, a) * (1 if a <= self.M else -1))

    def form_el(self, X: GLElement, Y: GLElement) -> Fraction:
        total = Fraction(0)
        for kx, cx in X.terms.items():
            for ky, cy in Y.terms.items():
                total += cx * cy * self.form(kx, ky)
        return total

    def supertrace(self, X: GLElement) -> Fraction:
        total = Fraction(0)
        for (i, j), c in X.terms.items():
            if i == j:
                total += c if i <= self.M else -c
        return total

    def in_sl(self, X: GLElement) -> bool:
        return self.supertrace(X) == 0

    def jacobi_sides(self, x, y, z):
        """([[x,y],z], [x,[y,z]] - (-1)^{|x||y|} [y,[x,z]]) on symbols."""
        sign = (-1) ** (self.parity_symbol(x) * self.parity_symbol(y))
        lhs = self.bracket_el(self.bracket(x, y), GLElement.symbol(*z))
        rhs = self.bracket_el(GLElement.symbol(*x), self.bracket(y, z)) - sign * self.bracket_el(
            GLElement.symbol(*y), self.bracket(x, z)
        )
        return lhs, rhs

    def jacobi_check(self, x, y, z) -> bool:
        """The super Jacobi identity on three symbols: both jacobi_sides agree."""
        lhs, rhs = self.jacobi_sides(x, y, z)
        return lhs == rhs

    def parity_toroidal(self, X: ToroidalElement):
        """Common parity of a toroidal element, None if mixed."""
        seen = set()
        for key in X.terms:
            if key[0] == "T":
                seen.add(self.parity_symbol((key[1], key[2])))
            else:
                seen.add(0)
        if not seen:
            return 0
        return seen.pop() if len(seen) == 1 else None

    def bracket_toroidal(self, X: ToroidalElement, Y: ToroidalElement) -> ToroidalElement:
        """Bilinear extension of the generic toroidal bracket."""
        out = {}
        for kx, cx in X.terms.items():
            if kx[0] != "T":
                continue
            for ky, cy in Y.terms.items():
                if ky[0] != "T":
                    continue
                _, a, b, mbar = kx
                _, c, d, nbar = ky
                if len(mbar) != len(nbar):
                    raise ValueError("exponent length mismatch")
                scale = cx * cy
                total = tuple(u + v for u, v in zip(mbar, nbar))
                fin = self.bracket((a, b), (c, d)).terms.items()
                accumulate(out, ((("T", i, j, total), scale * w) for (i, j), w in fin))
                fv = self.form((a, b), (c, d))
                if fv:
                    central = d_cocycle(mbar, nbar).terms.items()
                    accumulate(out, ((k, scale * fv * w) for k, w in central))
        return ToroidalElement._from_clean(out)
