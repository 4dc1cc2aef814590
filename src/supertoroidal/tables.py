"""The affine and toroidal bracket tables, transcribed literally.

These row builders reproduce the printed clause tables character by
character, including two spots where the print is suspected to be wrong;
they serve as an independent oracle against the generic bracket, which
is computed from the finite bracket and the invariant form.  The checker
reports every disagreement and adjudicates the known candidates listed
in ADJUDICATIONS instead of silently preferring either side.

Row naming: clause "R7" splits into rows "R7:1", "R7:2" following the
printed line order; each row carries the Kronecker coincidence patterns
it must be exercised on.  Rows whose first written argument is the
second element (the swapped lines of the print) build (x, y) in that
written order, so the checker always compares against [x, y] as printed.
"""

from __future__ import annotations

from itertools import product

from .lattice import Record
from .superalgebra import ToroidalElement, d_cocycle


class Row(Record):
    clause: str
    row: str
    vars: tuple  # (name, "M" | "N") pairs
    patterns: tuple  # (pattern id, ((kind, a, b), ...)) with kind "eq" | "ne"
    build: object  # (alg, idx, me, ne) -> (x, y, printed rhs)


def _t(i, j, exp, coeff=1):
    return ToroidalElement.t(i, j, exp, coeff)


def _zero():
    return ToroidalElement.zero()


def _affine_k(coeff, me, ne):
    """coeff * delta_{m+n,0} K for q = 1 (K is t^0 K_1)."""
    if coeff and me[0] + ne[0] == 0:
        return ToroidalElement.k(1, (0,), coeff)
    return _zero()


def _central(kind, coeff, me, ne):
    """The printed central term: affine m delta K or d(t^m)t^n."""
    if not coeff:
        return _zero()
    if kind == "R":
        return _affine_k(coeff * me[0], me, ne)
    return coeff * d_cocycle(me, ne)


def _rows(kind: str) -> tuple:
    """All rows of the printed table; kind "R" (q = 1) or "ST"."""
    C = kind
    rows = []

    def add(clause, row, varspec, patterns, build):
        # build(alg, M, me, ne, tot, **idx) -> (x, y, printed rhs), tot = me + ne
        def adapted(alg, idx, me, ne):
            tot = tuple(a + b for a, b in zip(me, ne))
            return build(alg, alg.M, me, ne, tot, **idx)
        rows.append(Row(C + clause, C + row, tuple(varspec), tuple(patterns), adapted))

    mm = lambda *names: tuple((n, "M") for n in names)
    nn = lambda *names: tuple((n, "N") for n in names)

    # --- 1: both arguments in the e-block
    def b1a(alg, M, me, ne, tot, i, j, k, l):
        x = _t(i, j, me)
        y = _t(k, l, ne)
        ip = (i == k) + (j == l) - (i == l) - (j == k)
        if ip >= 0:
            return x, y, _zero()
        f = alg.f_roots(i, j, k, l)
        if j == k and l != i:
            return x, y, _t(i, l, tot, f)
        if l == i and j != k:
            return x, y, _t(k, j, tot, f)
        rhs = _t(i, i, tot, f) + _t(j, j, tot, -f) + _central(C, f, me, ne)
        return x, y, rhs

    add("1", "1:offdiag", mm("i", "j", "k", "l"), (
        ("disjoint", (("ne", "i", "j"), ("ne", "k", "l"), ("ne", "i", "k"),
                      ("ne", "i", "l"), ("ne", "j", "k"), ("ne", "j", "l"))),
        ("i=k", (("ne", "i", "j"), ("ne", "k", "l"), ("eq", "i", "k"),
                 ("ne", "j", "l"), ("ne", "i", "l"), ("ne", "j", "k"))),
        ("j=l", (("ne", "i", "j"), ("ne", "k", "l"), ("eq", "j", "l"),
                 ("ne", "i", "k"), ("ne", "i", "l"), ("ne", "j", "k"))),
        ("i=k,j=l", (("ne", "i", "j"), ("eq", "i", "k"), ("eq", "j", "l"))),
        ("j=k", (("ne", "i", "j"), ("ne", "k", "l"), ("eq", "j", "k"), ("ne", "i", "l"))),
        ("l=i", (("ne", "i", "j"), ("ne", "k", "l"), ("eq", "i", "l"), ("ne", "j", "k"))),
        ("j=k,l=i", (("ne", "i", "j"), ("eq", "j", "k"), ("eq", "i", "l"))),
    ), b1a)

    def b1b(alg, M, me, ne, tot, i, k, l):
        w = (1 if i == k else 0) - (1 if i == l else 0)
        return _t(i, i, me), _t(k, l, ne), _t(k, l, tot, w)

    add("1", "1:diag", mm("i", "k", "l"), (
        ("apart", (("ne", "k", "l"), ("ne", "i", "k"), ("ne", "i", "l"))),
        ("i=k", (("ne", "k", "l"), ("eq", "i", "k"))),
        ("i=l", (("ne", "k", "l"), ("eq", "i", "l"))),
    ), b1b)

    def b1c(alg, M, me, ne, tot, i, k):
        return _t(i, i, me), _t(k, k, ne), _central(C, 1 if i == k else 0, me, ne)

    add("1", "1:cartan", mm("i", "k"), (
        ("i=k", (("eq", "i", "k"),)),
        ("i!=k", (("ne", "i", "k"),)),
    ), b1c)

    # --- 2: both arguments in the second block; the print shows
    # T_{k+M,l+M} in the middle term (suspected typo for T_{k+M,j+M})
    def b2(alg, M, me, ne, tot, i, j, k, l):
        x = _t(i + M, j + M, me)
        y = _t(k + M, l + M, ne)
        rhs = _zero()
        if j == k:
            rhs = rhs + _t(i + M, l + M, tot)
        if l == i:
            # the affine print reads T_{k+M,l+M} here; the toroidal print
            # has T_{k+M,j+M}
            mid = l if C == "R" else j
            rhs = rhs + _t(k + M, mid + M, tot, -1)
        rhs = rhs + _central(C, -(j == k) * (i == l), me, ne)
        return x, y, rhs

    pat_jk_li = (  # rows 2 and 7
        ("none", (("ne", "j", "k"), ("ne", "l", "i"))),
        ("j=k", (("eq", "j", "k"), ("ne", "l", "i"))),
        ("l=i", (("eq", "l", "i"), ("ne", "j", "k"))),
        ("both", (("eq", "j", "k"), ("eq", "l", "i"))),
    )
    add("2", "2", nn("i", "j", "k", "l"), pat_jk_li, b2)

    # --- 3: e-block against T_{k+M,l}; the second printed ST line keeps
    # F(e_j,e_i) where the affine print has F(e_i,e_j) (suspected typo)
    def b3_1(alg, M, me, ne, tot, i, j, k, l):
        w = alg.f_basis(j, i) if i == l else 0
        return _t(i, j, me), _t(k + M, l, ne), _t(k + M, j, tot, w)

    def b3_2(alg, M, me, ne, tot, i, j, k, l):
        if C == "R":
            w = alg.f_basis(i, j) if i == l else 0
        else:
            w = alg.f_basis(j, i) if i == l else 0  # as printed
        return _t(k + M, l, ne), _t(i, j, me), _t(k + M, j, tot, w)

    pat3 = (
        ("i=l", (("ne", "i", "j"), ("eq", "i", "l"))),
        ("i!=l", (("ne", "i", "j"), ("ne", "i", "l"))),
    )
    spec3 = (("i", "M"), ("j", "M"), ("l", "M"), ("k", "N"))
    add("3", "3:1", spec3, pat3, b3_1)
    add("3", "3:2", spec3, pat3, b3_2)

    def b3_3(alg, M, me, ne, tot, i, k, l):
        w = -1 if i == l else 0
        return _t(i, i, me), _t(k + M, l, ne), _t(k + M, l, tot, w)

    def b3_4(alg, M, me, ne, tot, i, k, l):
        w = 1 if i == l else 0
        return _t(k + M, l, ne), _t(i, i, me), _t(k + M, l, tot, w)

    pat3d = (
        ("i=l", (("eq", "i", "l"),)),
        ("i!=l", (("ne", "i", "l"),)),
    )
    spec3d = (("i", "M"), ("l", "M"), ("k", "N"))
    add("3", "3:3", spec3d, pat3d, b3_3)
    add("3", "3:4", spec3d, pat3d, b3_4)

    # --- 4: e-block against T_{k,l+M}
    def b4_1(alg, M, me, ne, tot, i, j, k, l):
        w = alg.f_basis(i, j) if j == k else 0
        return _t(i, j, me), _t(k, l + M, ne), _t(i, l + M, tot, w)

    def b4_2(alg, M, me, ne, tot, i, j, k, l):
        w = -alg.f_basis(i, j) if j == k else 0
        return _t(k, l + M, ne), _t(i, j, me), _t(i, l + M, tot, w)

    pat4 = (
        ("j=k", (("ne", "i", "j"), ("eq", "j", "k"))),
        ("j!=k", (("ne", "i", "j"), ("ne", "j", "k"))),
        ("i=j=k", (("eq", "i", "j"), ("eq", "j", "k"))),
        ("i=j!=k", (("eq", "i", "j"), ("ne", "j", "k"))),
    )
    spec4 = (("i", "M"), ("j", "M"), ("k", "M"), ("l", "N"))
    add("4", "4:1", spec4, pat4, b4_1)
    add("4", "4:2", spec4, pat4, b4_2)

    # --- 5
    def b5_1(alg, M, me, ne, tot, i, j, k, l):
        w = 1 if j == k else 0
        return _t(i + M, j + M, me), _t(k + M, l, ne), _t(i + M, l, tot, w)

    def b5_2(alg, M, me, ne, tot, i, j, k, l):
        w = -1 if j == k else 0
        return _t(k + M, l, ne), _t(i + M, j + M, me), _t(i + M, l, tot, w)

    pat_jk = (
        ("j=k", (("eq", "j", "k"),)),
        ("j!=k", (("ne", "j", "k"),)),
    )
    spec5 = (("i", "N"), ("j", "N"), ("k", "N"), ("l", "M"))
    add("5", "5:1", spec5, pat_jk, b5_1)
    add("5", "5:2", spec5, pat_jk, b5_2)

    # --- 6
    def b6_1(alg, M, me, ne, tot, i, j, k, l):
        w = -1 if l == i else 0
        return _t(i + M, j + M, me), _t(k, l + M, ne), _t(k, j + M, tot, w)

    def b6_2(alg, M, me, ne, tot, i, j, k, l):
        w = 1 if l == i else 0
        return _t(k, l + M, ne), _t(i + M, j + M, me), _t(k, j + M, tot, w)

    pat_li = (
        ("l=i", (("eq", "l", "i"),)),
        ("l!=i", (("ne", "l", "i"),)),
    )
    spec6 = (("i", "N"), ("j", "N"), ("l", "N"), ("k", "M"))
    add("6", "6:1", spec6, pat_li, b6_1)
    add("6", "6:2", spec6, pat_li, b6_2)

    # --- 7: the odd-odd pair with central terms
    def b7_1(alg, M, me, ne, tot, i, j, k, l):
        rhs = _zero()
        if j == k:
            rhs = rhs + _t(i + M, l + M, tot)
        if l == i:
            rhs = rhs + _t(k, j, tot, alg.f_basis(k, j))
        rhs = rhs + _central(C, -(j == k) * (l == i), me, ne)
        return _t(i + M, j, me), _t(k, l + M, ne), rhs

    def b7_2(alg, M, me, ne, tot, i, j, k, l):
        rhs = _zero()
        if j == k:
            rhs = rhs + _t(i + M, l + M, tot)
        if l == i:
            rhs = rhs + _t(k, j, tot, alg.f_basis(k, j))
        if C == "R":
            rhs = rhs + _affine_k((j == k) * (l == i) * ne[0], me, ne)
        elif (j == k) and (l == i):
            rhs = rhs + d_cocycle(ne, me)
        return _t(k, l + M, ne), _t(i + M, j, me), rhs

    spec7 = (("i", "N"), ("l", "N"), ("j", "M"), ("k", "M"))
    add("7", "7:1", spec7, pat_jk_li, b7_1)
    add("7", "7:2", spec7, pat_jk_li, b7_2)

    # --- 8, 9, 10: vanishing pairs
    def b8_1(alg, M, me, ne, tot, i, j, k, l):
        return _t(i, j, me), _t(k + M, l + M, ne), _zero()

    def b8_2(alg, M, me, ne, tot, i, j, k, l):
        return _t(k + M, l + M, ne), _t(i, j, me), _zero()

    pat8 = (
        ("generic", (("ne", "i", "j"), ("ne", "k", "l"))),
        ("diag", (("eq", "i", "j"), ("eq", "k", "l"))),
    )
    spec8 = (("i", "M"), ("j", "M"), ("k", "N"), ("l", "N"))
    add("8", "8:1", spec8, pat8, b8_1)
    add("8", "8:2", spec8, pat8, b8_2)

    def b9_1(alg, M, me, ne, tot, i, j, k, l):
        return _t(i + M, j, me), _t(k + M, l, ne), _zero()

    def b9_2(alg, M, me, ne, tot, i, j, k, l):
        return _t(k + M, l, ne), _t(i + M, j, me), _zero()

    pat_ik_jl = (  # rows 9 and 10
        ("generic", (("ne", "i", "k"), ("ne", "j", "l"))),
        ("i=k", (("eq", "i", "k"),)),
        ("j=l", (("eq", "j", "l"),)),
    )
    spec9 = (("i", "N"), ("k", "N"), ("j", "M"), ("l", "M"))
    add("9", "9:1", spec9, pat_ik_jl, b9_1)
    add("9", "9:2", spec9, pat_ik_jl, b9_2)

    def b10_1(alg, M, me, ne, tot, i, j, k, l):
        return _t(i, j + M, me), _t(k, l + M, ne), _zero()

    def b10_2(alg, M, me, ne, tot, i, j, k, l):
        return _t(k, l + M, ne), _t(i, j + M, me), _zero()

    spec10 = (("i", "M"), ("k", "M"), ("j", "N"), ("l", "N"))
    add("10", "10:1", spec10, pat_ik_jl, b10_1)
    add("10", "10:2", spec10, pat_ik_jl, b10_2)

    return tuple(rows)


R_ROWS = _rows("R")
ST_ROWS = _rows("ST")

R_CLAUSES = tuple(f"R{k}" for k in range(1, 11))
ST_CLAUSES = tuple(f"ST{k}" for k in range(1, 11))


# Rows where the print is suspected wrong; a mismatch there is expected
# exactly when the predicate fires, and is reported as adjudicated.
ADJUDICATIONS = {
    "R2": {
        "predicate": lambda idx: idx["l"] == idx["i"] and idx["j"] != idx["l"],
        "note": (
            "printed middle term reads T_{k+M,l+M}; the generic bracket and the "
            "finite/toroidal tables give T_{k+M,j+M}; print typo, generic side kept"
        ),
    },
    "ST3:2": {
        "predicate": lambda idx: idx["i"] == idx["l"],
        "note": (
            "printed sign reads F(e_j,e_i); the affine line and antisymmetry give "
            "F(e_i,e_j); print typo, generic side kept"
        ),
    },
}

_TRIES = 64  # random draws before solve_pattern enumerates every assignment


def solve_pattern(varspec, constraints, M, N, rng):
    """Random index assignment satisfying eq/ne constraints, else None."""
    parent = {name: name for name, _ in varspec}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for kind, a, b in constraints:
        if kind == "eq":
            parent[find(a)] = find(b)
    bound = {}
    for name, rng_kind in varspec:
        r = find(name)
        b = M if rng_kind == "M" else N
        bound[r] = min(bound.get(r, b), b)
    nes = []
    for kind, a, b in constraints:
        if kind == "ne":
            ra, rb = find(a), find(b)
            if ra == rb:
                return None
            nes.append((ra, rb))

    reps = sorted(bound)
    for _ in range(_TRIES):
        val = {r: rng.randint(1, bound[r]) for r in reps}
        if all(val[a] != val[b] for a, b in nes):
            return {name: val[find(name)] for name, _ in varspec}
    # exhaustive fallback for tight ranges
    for combo in product(*(range(1, bound[r] + 1) for r in reps)):
        val = dict(zip(reps, combo))
        if all(val[a] != val[b] for a, b in nes):
            return {name: val[find(name)] for name, _ in varspec}
    return None
