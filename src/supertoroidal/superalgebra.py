"""gl(M|N) in its sign-twisted basis, the invariant form, and the
toroidal extension.

Basis symbols T_ij, 1 <= i, j <= M+N, are even when both indices land in
the same block (both <= M or both > M) and odd otherwise.  The bracket
on basis symbols is the block-by-block table fixed by the cocycle F on
the rank-M lattice; the missing even-even pattern (i != j, k = l) is
filled in by antisymmetry.

The supertrace form (T_ij, T_kl) vanishes unless j = k and l = i, and
carries the cocycle sign on the even-even block and a block-dependent
sign elsewhere.

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

    def _root(self, i: int, j: int):
        return self._lattice.root(i, j)

    def f_roots(self, i, j, k, l) -> int:
        """Cocycle on roots: F(alpha_ij, alpha_kl)."""
        return cocycle(self._root(i, j), self._root(k, l))

    def f_basis(self, i, j) -> int:
        """Cocycle on basis vectors: F(e_i, e_j)."""
        return cocycle(self._lattice.e(i), self._lattice.e(j))

    def bracket(self, x, y) -> GLElement:
        """Super bracket of two basis symbols, per the defining tables."""
        a, b = x
        c, d = y
        M = self.M
        for idx in (a, b, c, d):
            if not 1 <= idx <= self.size:
                raise ValueError(f"index {idx} out of range 1..{self.size}")
        bx = (a > M, b > M)
        by = (c > M, d > M)

        if bx == (False, False) and by == (False, False):
            if a != b and c != d:
                ip = (
                    (1 if a == c else 0) + (1 if b == d else 0)
                    - (1 if a == d else 0) - (1 if b == c else 0)
                )
                if ip >= 0:
                    return GLElement.zero()
                f = self.f_roots(a, b, c, d)
                if b == c and d != a:
                    return GLElement.symbol(a, d, f)
                if d == a and b != c:
                    return GLElement.symbol(c, b, f)
                return GLElement.symbol(a, a, f) - GLElement.symbol(b, b, f)
            if a == b and c != d:
                w = (1 if a == c else 0) - (1 if a == d else 0)
                return GLElement.symbol(c, d, w)
            if a != b and c == d:
                w = (1 if c == a else 0) - (1 if c == b else 0)
                return GLElement.symbol(a, b, -w)
            return GLElement.zero()

        if bx == (True, True) and by == (True, True):
            out = GLElement.zero()
            if b == c:
                out = out + GLElement.symbol(a, d)
            if a == d:
                out = out - GLElement.symbol(c, b)
            return out

        if bx == (False, False) and by == (True, False):
            if a != b:
                return GLElement.symbol(c, b, self.f_basis(b, a)) if a == d else GLElement.zero()
            return GLElement.symbol(c, d, -1) if a == d else GLElement.zero()

        if bx == (True, False) and by == (False, False):
            if c != d:
                return GLElement.symbol(a, d, self.f_basis(c, d)) if c == b else GLElement.zero()
            return GLElement.symbol(a, b) if c == b else GLElement.zero()

        if bx == (False, False) and by == (False, True):
            return GLElement.symbol(a, d, self.f_basis(a, b)) if b == c else GLElement.zero()

        if bx == (False, True) and by == (False, False):
            return GLElement.symbol(c, b, -self.f_basis(c, d)) if d == a else GLElement.zero()

        if bx == (True, True) and by == (True, False):
            return GLElement.symbol(a, d) if b == c else GLElement.zero()

        if bx == (True, False) and by == (True, True):
            return GLElement.symbol(c, b, -1) if d == a else GLElement.zero()

        if bx == (True, True) and by == (False, True):
            return GLElement.symbol(c, b, -1) if d == a else GLElement.zero()

        if bx == (False, True) and by == (True, True):
            return GLElement.symbol(a, d) if b == c else GLElement.zero()

        if bx == (True, False) and by == (False, True):
            out = GLElement.zero()
            if b == c:
                out = out + GLElement.symbol(a, d)
            if d == a:
                out = out + GLElement.symbol(c, b, self.f_basis(c, b))
            return out

        if bx == (False, True) and by == (True, False):
            out = GLElement.zero()
            if d == a:
                out = out + GLElement.symbol(c, b)
            if b == c:
                out = out + GLElement.symbol(a, d, self.f_basis(a, d))
            return out

        # remaining block pairs bracket to zero
        return GLElement.zero()

    def bracket_el(self, X: GLElement, Y: GLElement) -> GLElement:
        return GLElement._sum(
            (k, cx * cy * w)
            for kx, cx in X.terms.items()
            for ky, cy in Y.terms.items()
            for k, w in self.bracket(kx, ky).terms.items()
        )

    def form(self, x, y) -> Fraction:
        """Supertrace form on basis symbols."""
        a, b = x
        c, d = y
        M = self.M
        if b != c or d != a:
            return Fraction(0)
        bx = (a > M, b > M)
        by = (c > M, d > M)
        if bx == (False, False) and by == (False, False):
            return Fraction(self.f_roots(a, b, c, d))
        if bx == (True, False) and by == (False, True):
            return Fraction(-1)
        if bx == (False, True) and by == (True, False):
            return Fraction(1)
        if bx == (True, True) and by == (True, True):
            return Fraction(-1)
        return Fraction(0)

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
