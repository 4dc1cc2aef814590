import hashlib
import random

from supertoroidal.superalgebra import Superalgebra
from supertoroidal import serialize as ser, tables


def exponent_pairs(kind, rng, box=2):
    if kind == "R":
        m = rng.randint(1, box)
        n = rng.randint(-box, box)
        return [((0,), (0,)), ((m,), (-m,)), ((m,), (n,) if m + n else (n + 1,)), ((m,), (0,))]
    mb = tuple(rng.randint(-box, box) for _ in range(2))
    if not any(mb):
        mb = (1, 0)
    nb = tuple(rng.randint(-box, box) for _ in range(2))
    return [((0, 0), (0, 0)), (mb, tuple(-x for x in mb)), (mb, nb), (mb, (0, 0))]


def sweep(M, N, seed=7):
    rng = random.Random(seed)
    alg = Superalgebra(M, N)
    mismatches = {}
    checked = 0
    for rows, kind in ((tables.R_ROWS, "R"), (tables.ST_ROWS, "ST")):
        for row in rows:
            for pid, cons in row.patterns:
                idx = tables.solve_pattern(row.vars, cons, M, N, rng)
                if idx is None:
                    continue
                for me, ne in exponent_pairs(kind, rng):
                    x, y, printed = row.build(alg, idx, me, ne)
                    generic = alg.bracket_toroidal(x, y)
                    checked += 1
                    if printed != generic:
                        mismatches.setdefault(row.row, []).append(idx)
    return checked, mismatches


def test_tables_agree_except_adjudicated_typos():
    checked, mismatches = sweep(4, 3)
    assert checked > 400
    assert set(mismatches) == set(tables.ADJUDICATIONS)
    for rowid, cases in mismatches.items():
        pred = tables.ADJUDICATIONS[rowid]["predicate"]
        assert all(pred(idx) for idx in cases)


def test_tables_small_algebra_feasible_patterns():
    # at M=3, N=2 the disjoint pattern of R1 is unsatisfiable and skipped;
    # everything else must still be checkable
    checked, mismatches = sweep(3, 2, seed=1)
    assert checked > 300
    assert set(mismatches) <= set(tables.ADJUDICATIONS)


def test_all_patterns_feasible_at_m4_n3():
    rng = random.Random(0)
    for rows in (tables.R_ROWS, tables.ST_ROWS):
        for row in rows:
            for pid, cons in row.patterns:
                assert tables.solve_pattern(row.vars, cons, 4, 3, rng) is not None, (row.row, pid)


def test_adjudicated_rows_match_when_predicate_off():
    # outside the typo-active index patterns the printed rows agree
    rng = random.Random(5)
    alg = Superalgebra(4, 3)
    for rowid in tables.ADJUDICATIONS:
        row = next(r for r in tables.R_ROWS + tables.ST_ROWS if r.row == rowid)
        pred = tables.ADJUDICATIONS[rowid]["predicate"]
        kind = "R" if row.clause.startswith("R") else "ST"
        for pid, cons in row.patterns:
            idx = tables.solve_pattern(row.vars, cons, 4, 3, rng)
            if idx is None or pred(idx):
                continue
            for me, ne in exponent_pairs(kind, rng):
                x, y, printed = row.build(alg, idx, me, ne)
                assert printed == alg.bracket_toroidal(x, y), (rowid, pid, idx)


def test_printed_rows_pinned():
    # a row is otherwise only compared with the generic bracket, so a change to
    # an adjudicated row's printed form that still mismatches it would pass
    grids = {
        "R": [((m,), (n,)) for m in (-1, 0, 1) for n in (-1, 0, 1)],
        "ST": [(m, n) for m in ((0, 0), (1, -2), (-1, 2)) for n in ((0, 0), (1, -2), (-1, 2))],
    }
    rng = random.Random(0)
    alg = Superalgebra(4, 3)
    out = []
    for rows, kind in ((tables.R_ROWS, "R"), (tables.ST_ROWS, "ST")):
        for row in rows:
            for pid, cons in row.patterns:
                idx = tables.solve_pattern(row.vars, cons, 4, 3, rng)
                for me, ne in grids[kind]:
                    x, y, printed = row.build(alg, idx, me, ne)
                    out.append([row.row, pid, idx, me, ne]
                               + [ser.toroidal_to_obj(e) for e in (x, y, printed)])
    assert len(out) == 1152
    assert hashlib.sha256(ser.dumps(out).encode()).hexdigest() == (
        "a0f70227e64fb8e4afcdce569f5210009854c214c079f4f7c2ba32232c1e32dd")
