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


class Combination:
    """Finitely supported map key -> nonzero Fraction."""

    __slots__ = ("terms",)

    # key function on (key, coeff) items for sorted_terms; None sorts the
    # items by the natural order of their keys
    _sort_key = None

    def __init__(self, terms=None):
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, c in items:
                if type(c) is not Fraction:
                    c = Fraction(c)
                if not c:
                    continue
                acc = clean.get(key)
                total = c if acc is None else acc + c
                if total:
                    clean[key] = total
                elif acc is not None:
                    del clean[key]
        self.terms = clean

    @classmethod
    def _from_clean(cls, terms: dict):
        """Wrap a dict of nonzero Fractions as it is, without cleaning it."""
        s = cls.__new__(cls)
        s.terms = terms
        return s

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def _merged(self, items):
        """self plus the (key, coeff) items, nonzero coefficients only."""
        out = dict(self.terms)
        for k, c in items:
            acc = out.get(k)
            t = c if acc is None else acc + c
            if t:
                out[k] = t
            elif acc is not None:
                del out[k]
        return self._from_clean(out)

    def __add__(self, other):
        return self._merged(other.terms.items())

    def __sub__(self, other):
        return self._merged((k, -c) for k, c in other.terms.items())

    def __rmul__(self, scalar):
        if type(scalar) is not Fraction:
            scalar = Fraction(scalar)
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
