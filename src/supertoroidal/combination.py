"""Finitely supported rational combinations of basis keys.

Lattice Fock states, boson states, tensor states, gl(M|N) elements and
toroidal elements are all maps from hashable basis keys to nonzero
rationals.  Combination keeps that map in ``terms`` and implements the
vector-space structure once; a subclass adds its constructors, the sort
key of its canonical term order and ``_format_term``, the repr of one
term.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def accumulate(out: dict, items) -> dict:
    """Add the (key, coeff) items into out in place and return it.

    A key whose sum cancels is deleted and a zero item is not stored, so
    out stays a map to nonzero coefficients.  Coefficients are Fractions
    or ints, both in lowest terms, so a sum cancels exactly when the two
    denominators are equal and the numerators opposite: that key is
    deleted without building the zero.  Only a dict the caller owns may
    be passed: never the terms of a state another caller can see.
    """
    get = out.get
    for key, c in items:
        prev = get(key)
        if prev is None:
            if c:
                out[key] = c
        elif prev.denominator == c.denominator and prev.numerator == -c.numerator:
            del out[key]
        else:
            out[key] = prev + c
    return out


class Sink:
    """A sum being built: terms maps a key to its int numerator over the one
    denominator den, and no numerator is 0.

    The operators of the package add into a sink their caller owns and read one as
    their integer input, so no Fraction is built between the layers; state builds
    one per surviving key at the end.
    """

    __slots__ = ("den", "terms")

    def __init__(self, den: int = 1, terms=None):
        self.den = den
        self.terms = {} if terms is None else terms

    @classmethod
    def of(cls, s: "Combination") -> "Sink":
        """The terms of s over the lcm of their denominators."""
        den = lcm(*{c.denominator for c in s.terms.values()})
        return cls(den, {k: c.numerator * (den // c.denominator) for k, c in s.terms.items()})

    def widen(self, den: int) -> int:
        """Make den divide self.den, rescaling every numerator in place where self.den
        must grow; return self.den // den, which puts a numerator over den over self.den."""
        if self.den % den:
            grown = lcm(self.den, den)
            f = grown // self.den
            terms = self.terms
            for k in terms:
                terms[k] *= f
            self.den = grown
        return self.den // den

    def add(self, items, den: int, scale=1):
        """Add scale times the (key, int numerator over den) items."""
        if not scale:
            return
        f = self.widen(den * scale.denominator) * scale.numerator
        terms = self.terms
        get = terms.get
        for k, n in items:
            v = get(k, 0) + n * f
            if v:
                terms[k] = v
            else:
                terms.pop(k, None)

    def state(self, cls):
        """The sum as a cls state, its Fractions in lowest terms."""
        den = self.den
        return cls._from_clean({k: Fraction(n, den) for k, n in self.terms.items()})


def exact(c) -> Fraction:
    """c as a Fraction; a float is refused, since its binary value is not the rational meant."""
    if isinstance(c, float):
        raise TypeError(f"coefficient {c!r} is a float; give a Fraction, an int or 'p/q'")
    return Fraction(c)


class Combination:
    """Finitely supported map key -> nonzero Fraction."""

    __slots__ = ("terms",)

    # key function on (key, coeff) items for sorted_terms; None sorts the
    # items by the natural order of their keys
    _sort_key = None

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = accumulate(
            {}, ((key, c if type(c) is Fraction else exact(c)) for key, c in items)
        )

    @classmethod
    def _from_clean(cls, terms: dict):
        """Wrap a dict of nonzero Fractions as it is, without cleaning it."""
        s = cls.__new__(cls)
        s.terms = terms
        return s

    @classmethod
    def _sum(cls, items):
        """The sum of (key, Fraction) items; the coefficients are not converted."""
        return cls._from_clean(accumulate({}, items))

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return self._from_clean(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        negated = ((k, -c) for k, c in other.terms.items())
        return self._from_clean(accumulate(dict(self.terms), negated))

    def __rmul__(self, scalar):
        if type(scalar) is not Fraction:
            scalar = exact(scalar)
        if not scalar:
            return self.zero()
        return self._from_clean({k: scalar * c for k, c in self.terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=self._sort_key)

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}<0>"
        bits = [self._format_term(key, c) for key, c in self.sorted_terms()]
        return f"{name}<" + " + ".join(bits) + ">"
