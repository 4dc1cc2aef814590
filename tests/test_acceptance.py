"""Acceptance suite: one test per criterion, exact comparisons only.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
verdict per criterion.
"""

import hashlib
import json
import random
import subprocess
import sys

from supertoroidal import serialize as ser
from supertoroidal import verifier
from supertoroidal.verifier import CheckConfig, run


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _cells(report, family):
    return report["families"][family]["clauses"]


def test_criterion_1_cocycle_suite():
    cfg = CheckConfig(M=4, N=1, q=1, max_degree=0, exponent_box=2, samples=10_000, seed=20260810)
    rep = run(cfg, families=("cocycle",))
    cells = _cells(rep, "cocycle")
    ident = cells["cocycle-identity"]
    law = cells["sign-law"]
    ok = (
        rep["all_pass"]
        and ident["fail"] == 0
        and ident["hits"] >= 10_000
        and law["fail"] == 0
        and law["hits"] == 625 * 625  # exhaustive pairs, coords in [-2,2]^4
    )
    _verdict(1, ok, f"cocycle identity on {ident['hits']} triples and sign law on "
                    f"{law['hits']} pairs, zero failures")


def test_criterion_2_super_jacobi():
    rep22 = run(CheckConfig(M=2, N=2, q=1, samples=1, seed=1), families=("jacobi",))
    cell22 = _cells(rep22, "jacobi")["super-jacobi"]
    rep33 = run(CheckConfig(M=3, N=3, q=1, samples=10_000, seed=2), families=("jacobi",))
    cell33 = _cells(rep33, "jacobi")["super-jacobi"]
    ok = (
        cell22["fail"] == 0
        and cell22["hits"] == 4096  # all (M+N)^6 ordered triples
        and cell33["fail"] == 0
        and cell33["hits"] >= 10_000
    )
    _verdict(2, ok, f"all {cell22['hits']} ordered basis triples at M=N=2 and "
                    f"{cell33['hits']} random triples at M=N=3")


def test_criterion_3_form_suite():
    cfg = CheckConfig(M=3, N=3, q=1, samples=10_000, seed=3)
    rep = run(cfg, families=("form",))
    cells = _cells(rep, "form")
    ok = (
        rep["all_pass"]
        and cells["supersymmetric"]["hits"] == 36 * 36
        and cells["even"]["fail"] == 0
        and cells["invariant"]["hits"] >= 10_000
        and cells["invariant"]["fail"] == 0
    )
    _verdict(3, ok, f"supersymmetry and evenness on all basis pairs, invariance on "
                    f"{cells['invariant']['hits']} sampled triples")


def test_criterion_4_table_cross_check():
    cfg = CheckConfig(M=4, N=3, q=1, exponent_box=2, samples=40, seed=4)
    rep_r = run(cfg, families=("rtables",))
    cfg2 = CheckConfig(M=4, N=3, q=2, exponent_box=2, samples=40, seed=4)
    rep_st = run(cfg2, families=("sttables",))
    ok = rep_r["all_pass"] and rep_st["all_pass"]
    from supertoroidal import tables
    from supertoroidal.verifier import _EXP_PATTERNS

    rows_by_clause = {}
    for row in tables.R_ROWS + tables.ST_ROWS:
        rows_by_clause.setdefault(row.clause, set()).update(
            f"{row.row}|{pid}|{ep}" for pid, _ in row.patterns for ep in _EXP_PATTERNS
        )
    instantiations_ok = True
    for rep, fam in ((rep_r, "rtables"), (rep_st, "sttables")):
        for clause, cell in _cells(rep, fam).items():
            if cell["hits"] < 5:
                instantiations_ok = False
            # every coincidence pattern of every printed row is feasible
            # at M=4, N=3 and must be crossed with every exponent pattern
            if set(cell["patterns"]) != rows_by_clause[clause]:
                instantiations_ok = False
    adj_rows = {(a["family"], a["clause"]) for a in rep_r["adjudications"]}
    adj_rows |= {(a["family"], a["clause"]) for a in rep_st["adjudications"]}
    adjudicated_ok = ("rtables", "R2") in adj_rows and ("sttables", "ST3") in adj_rows
    ok = ok and instantiations_ok and adjudicated_ok
    _verdict(4, ok, "printed R and ST tables match the generic bracket on every "
                    "clause; the two known print typos are adjudicated in the report")


def test_criterion_5_prop33():
    cfg = CheckConfig(M=3, N=2, q=1, max_degree=6, exponent_box=2, samples=100, seed=5)
    rep = run(cfg, families=("prop33",))
    cells = _cells(rep, "prop33")
    ok = rep["all_pass"] and all(
        cells[f"R{k}"]["fail"] == 0 and cells[f"R{k}"]["hits"] >= 100 for k in range(1, 11)
    )
    total = sum(c["hits"] for c in cells.values())
    _verdict(5, ok, f"q=1 dictionary is a homomorphism on every affine clause "
                    f"({total} exact operator checks)")


def test_criterion_6_thm46():
    cfg = CheckConfig(M=3, N=2, q=2, max_degree=6, exponent_box=2, samples=100, seed=6)
    rep = run(cfg, families=("thm46",))
    cells = _cells(rep, "thm46")
    ok = rep["all_pass"] and all(
        cells[f"ST{k}"]["fail"] == 0 and cells[f"ST{k}"]["hits"] >= 100 for k in range(1, 11)
    )
    ok = ok and cells["Kq-identity"]["hits"] >= 100 and cells["Kq-identity"]["fail"] == 0
    witness = cells["central-witness"]
    ok = ok and witness["fail"] == 0 and all(
        witness["patterns"].get(f"K{i}", 0) > 0 for i in (1, 2)
    )
    ok = ok and cells["central-consistency"]["fail"] == 0
    total = sum(c["hits"] for c in cells.values())
    _verdict(6, ok, f"toroidal dictionary is a homomorphism on every clause including "
                    f"central terms; K_q acts as identity; every central direction "
                    f"witnessed nonzero ({total} checks)")


def test_criterion_6_thm46_at_q3():
    # the several-variable case: at q = 3 two delta/d pairs carry pairings and
    # cocycle signs between them, and two K directions survive the reduction at
    # each m != 0; criterion 6's config and seed, 30 samples, report bytes pinned
    cfg = CheckConfig(M=3, N=2, q=3, max_degree=6, exponent_box=2, samples=30, seed=6)
    rep = run(cfg, families=("thm46",))
    cells = _cells(rep, "thm46")
    total = sum(c["hits"] for c in cells.values())
    digest = hashlib.sha256(ser.dumps(verifier.strip_timings(rep)).encode()).hexdigest()
    ok = rep["all_pass"] and total == 440 and all(
        cells[f"ST{k}"]["fail"] == 0 and cells[f"ST{k}"]["hits"] >= 30 for k in range(1, 11))
    ok = ok and digest == "503f3a80eaf0fef60fe78519c644873730d77550b325425f0ad05b6f5dfb85f7"
    _verdict("6 (q=3)", ok, f"toroidal dictionary is a homomorphism at q = 3 on every clause "
                            f"({total} checks), report bytes pinned")


def test_criterion_7_mode_identities():
    cfg = CheckConfig(M=3, N=2, q=2, max_degree=6, exponent_box=2, samples=100, seed=7)
    rep = run(cfg, families=("corollary19", "identity110", "lemma49"))
    ok = rep["all_pass"]
    for fam in ("corollary19", "identity110", "lemma49"):
        for clause, cell in _cells(rep, fam).items():
            ok = ok and cell["fail"] == 0 and cell["hits"] >= 100
    _verdict(7, ok, "1.9(1)-(3), 1.10(1)-(3) with the normal-ordered current "
                    "identity, the odd/even product lemma and the dressed-current "
                    "lemma hold on 100+ states each")


def test_criterion_8_determinism(tmp_path):
    args = ["--family", "form,sttables,corollary19", "--M", "3", "--N", "2", "--q", "2",
            "--max-degree", "4", "--box", "1", "--samples", "5", "--seed", "88"]
    paths = [tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "r3.json"]
    for path in paths:
        proc = subprocess.run(
            [sys.executable, "-m", "supertoroidal.cli", "check", *args, "--report", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def canon(path):
        return ser.dumps(verifier.strip_timings(json.loads(path.read_text())))

    ok = canon(paths[0]) == canon(paths[1]) == canon(paths[2])
    _verdict(8, ok, "three repeated runs produce byte-identical reports up to timings")


def test_criterion_9_serialization_roundtrip():
    from test_serialize import random_tensor_state, random_toroidal

    rng = random.Random(9)
    ok = True
    for _ in range(1000):
        s = random_tensor_state(rng)
        text = ser.dumps(ser.tensor_state_to_obj(s))
        back = ser.tensor_state_from_obj(json.loads(text))
        ok = ok and back == s and ser.dumps(ser.tensor_state_to_obj(back)) == text
    for _ in range(1000):
        x = random_toroidal(rng)
        text = ser.dumps(ser.toroidal_to_obj(x))
        back = ser.toroidal_from_obj(json.loads(text))
        ok = ok and back == x and ser.dumps(ser.toroidal_to_obj(back)) == text
    _verdict(9, ok, "1000 random states and 1000 random algebra elements "
                    "round-trip bit-exactly")
