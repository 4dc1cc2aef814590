"""Bosonic Fock space on 2N fields phi^j, phi^{j*} over a vacuum.

Modes phi^j_{r-1/2} and phi^{j*}_{s-1/2} commute among themselves and
with each other except for the central contraction

    phi^i_{r-1/2} phi^{j*}_{s-1/2} - phi^{j*}_{s-1/2} phi^i_{r-1/2}
        = -delta_{r+s-1,0} delta_{ij}.

Rearranged, moving a phi* annihilator past a phi creator produces
+delta_{r+s-1,0} delta_{ij}; that derived sign is used below.

Modes with r <= 0 are creation operators and act freely; modes with
r >= 1 annihilate the vacuum.  A basis state is an unordered pair of
multisets of creation modes (no sign ever arises from reordering), and
a mode index is stored doubled: phi_{r-1/2} <-> 2r - 1, so creators
carry negative odd doubled indices.
"""

from __future__ import annotations

from .combination import Combination
from .fock_lattice import NEG_INF, monomial_insert, monomial_remove


class BosonState(Combination):
    """Finitely supported map (phi multiset, phi* multiset) -> rational."""

    __slots__ = ()

    @classmethod
    def vacuum(cls, coeff=1) -> "BosonState":
        return cls({((), ()): coeff})

    @classmethod
    def basis(cls, phi=(), phi_star=(), coeff=1) -> "BosonState":
        return cls({(creation_modes(phi), creation_modes(phi_star)): coeff})

    @staticmethod
    def _format_term(key, c) -> str:
        p, ps = key
        return f"{c} * phi{list(p)} phi*{list(ps)} |0>"


def creation_modes(modes) -> tuple:
    """One multiset of creators, sorted; a doubled mode must be negative odd, a flavor >= 1."""
    modes = tuple(sorted(modes))
    for flavor, k in modes:
        if k >= 0 or k % 2 == 0:
            raise ValueError(f"creation modes are negative odd doubled ints, got {k}")
        _check_flavor(flavor)
    return modes


def _check_flavor(j: int):
    if j < 1:
        raise ValueError(f"flavors are 1-based, got {j}")


def mode_on_key(j: int, r: int, key, star: bool):
    """phi^j_{r-1/2}, or phi^{j*}_{r-1/2} when star, on one basis key.

    Returns (image key, integer weight), or None when the mode kills the
    key.  r <= 0 inserts the creator into the mode's own multiset with
    weight 1.  r >= 1 removes one matching creator from the other
    multiset, weighted by the number of copies, -1 each for phi and +1
    for phi*.  Distinct keys have distinct images, so nothing merges.
    """
    own, other = key[::-1] if star else key
    if r <= 0:
        own, w = monomial_insert(own, (j, 2 * r - 1)), 1
    else:
        target = (j, 1 - 2 * r)
        mult = other.count(target)
        if not mult:
            return None
        other, w = monomial_remove(other, target), (mult if star else -mult)
    return ((other, own) if star else (own, other)), w


def _mode_apply(j: int, r: int, s: BosonState, star: bool) -> BosonState:
    _check_flavor(j)
    out = {}
    for key, c in s.terms.items():
        image = mode_on_key(j, r, key, star)
        if image is not None:
            out[image[0]] = c if image[1] == 1 else c * image[1]
    return BosonState._from_clean(out)


def phi_apply(j: int, r: int, s: BosonState) -> BosonState:
    """Apply phi^j_{r-1/2}.  r <= 0 creates; r >= 1 contracts against
    matching phi* creators with a -1 each and kills the vacuum."""
    return _mode_apply(j, r, s, star=False)


def phi_star_apply(j: int, r: int, s: BosonState) -> BosonState:
    """Apply phi^{j*}_{r-1/2}; the contraction against phi creators is +1."""
    return _mode_apply(j, r, s, star=True)


def key_depth(key) -> int:
    """Max doubled creation-mode magnitude of one basis key, 0 for the vacuum key."""
    return max((-k for _, k in key[0] + key[1]), default=0)


def depth(s: BosonState):
    """Max doubled creation-mode magnitude; annihilators beyond it act as 0.

    The vacuum has depth 0 and the zero state returns -inf.
    """
    if s.is_zero():
        return NEG_INF
    return max(map(key_depth, s.terms))
