import copy
import hashlib
import json
import subprocess
import sys

import pytest

from oracles import doubled_degree
from supertoroidal import serialize as ser
from supertoroidal import verifier
from supertoroidal.cli import main
from supertoroidal.representation import _Operator
from supertoroidal.verifier import CheckConfig, evaluate_check, gen_state, replay_counterexample, run

SMALL = CheckConfig(M=3, N=2, q=2, max_degree=4, exponent_box=1, samples=4, seed=99)


def _digest(rep):
    return hashlib.sha256(ser.dumps(verifier.strip_timings(rep)).encode()).hexdigest()


def test_gen_state_deterministic_and_budgeted():
    s1 = gen_state(SMALL, 7)
    s2 = gen_state(SMALL, 7)
    assert s1 == s2
    assert s1 != gen_state(SMALL, 8)
    assert not s1.is_zero()
    assert s1.parity() in (0, 1)
    for off in range(30):
        s = gen_state(SMALL, off)
        assert doubled_degree(s) <= SMALL.max_degree
        assert s.parity() is not None


def test_gen_state_zero_budget_is_group_algebra_only():
    cfg = CheckConfig(M=2, N=1, q=1, max_degree=0, exponent_box=0, samples=1, seed=5)
    for off in range(5):
        s = gen_state(cfg, off)
        for ((gamma, mono), (phi, phis)) in s.terms:
            assert mono == () and phi == () and phis == ()
            assert not any(gamma.e)


def test_run_all_families_small():
    rep = run(SMALL)
    assert rep["all_pass"], json.dumps(verifier.strip_timings(rep), indent=1)[:2000]
    for fam, fr in rep["families"].items():
        for clause, cell in fr["clauses"].items():
            assert cell["hits"] > 0, (fam, clause)
    assert any(a["clause"] == "R2" for a in rep["adjudications"])
    assert any(a["clause"] == "ST3" for a in rep["adjudications"])
    # the report body is pinned byte for byte
    assert _digest(rep) == "f55ae0386e0c04143efe2d3c34c6347a619888a996c17430321b0c17411c1464"


def test_report_digests_beyond_small():
    # SMALL never samples cocycle-identity, never walks all jacobi triples
    # and never runs q = 3; these two reports pin those branches
    cfg = CheckConfig(M=3, N=1, q=3, max_degree=3, exponent_box=2, samples=3, seed=9)
    assert _digest(run(cfg, families=("cocycle", "jacobi"))) == (
        "c44b1ffd4415d0f984d8ee4531ed5ede4c482a84dbf71ad822bda3aa574cf19c"
    )
    cfg = CheckConfig(M=3, N=1, q=3, max_degree=3, exponent_box=1, samples=3, seed=9)
    assert _digest(run(cfg, families=verifier.FAMILY_ORDER[2:])) == (
        "54a7a39673cdb71c05abe01d65d67a289a444e92a9d89f43a37c2b0400cb30d0"
    )


def test_lemma49_at_box_zero():
    # a box of 0 leaves no nonzero m_q in [-box, box]; lemma 4.9 draws
    # m_q from [-1, 1] then, as the boson relations do
    cfg = CheckConfig(M=2, N=3, q=2, max_degree=4, exponent_box=0, samples=2, seed=11)
    rep = run(cfg, families=("lemma49",))
    assert rep["all_pass"]
    assert rep["families"]["lemma49"]["clauses"]["lemma4.9"]["patterns"] == {"mq!=0": 1, "mq=0": 1}


def test_reports_are_deterministic():
    r1 = run(SMALL, families=("lemma49", "corollary19"))
    r2 = run(SMALL, families=("lemma49", "corollary19"))
    assert ser.dumps(verifier.strip_timings(r1)) == ser.dumps(verifier.strip_timings(r2))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        run(SMALL, families=("nonsense",))


def test_empty_family_list_rejected():
    # a run that checks nothing must not report all_pass
    with pytest.raises(ValueError, match="known: cocycle"):
        run(SMALL, families=[])
    cmd = [sys.executable, "-m", "supertoroidal.cli", "check", "--family", ",",
           "--M", "2", "--N", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode != 0 and "all_pass" not in proc.stdout


def test_sttables_requires_q2():
    cfg = CheckConfig(M=3, N=2, q=1, samples=2, seed=1)
    with pytest.raises(ValueError):
        run(cfg, families=("sttables",))


def test_prop33_is_q1_even_when_config_q2():
    rep = run(SMALL, families=("prop33",))
    assert rep["all_pass"]
    cell = rep["families"]["prop33"]["clauses"]["R7"]
    assert cell["counterexample"] is None
    assert cell["hits"] >= SMALL.samples


def test_counterexample_replay_of_synthetic_failure():
    # evaluate a legitimate check, then tamper with the recorded sides:
    # replay must expose that the recorded failure does not reproduce
    gen = verifier.FAMILIES["corollary19"]["generate"]
    pattern, payload = next(iter(gen(SMALL, "1.9(2)")))
    payload = verifier._serialize(payload)  # as a record holds it
    ok, adj, note, lhs, rhs = evaluate_check(SMALL, "corollary19", "1.9(2)", payload)
    assert ok
    record = {
        "family": "corollary19",
        "clause": "1.9(2)",
        "pattern": pattern,
        "config": SMALL.to_obj(),
        "payload": payload,
        "lhs": lhs,
        "rhs": [{"coeff": "1/1", "gamma": {"e": [9, 9, 9], "delta": [0], "d": [0]},
                 "monomial": [], "phi": [], "phi_star": []}],
    }
    result = replay_counterexample(record)
    assert result["ok"]
    assert not result["reproduced"]


def test_counterexample_replay_reproduces_recorded_failure():
    # build a record whose payload genuinely fails by breaking the state
    # against a scale factor: compare 2*lhs against rhs via a doctored
    # payload is not possible without touching the library, so instead
    # replay a record for a clause evaluated with mismatched indices
    gen = verifier.FAMILIES["identity110"]["generate"]
    items = list(gen(CheckConfig(M=3, N=2, q=1, max_degree=2, exponent_box=1,
                                 samples=2, seed=3), "1.10(3)"))
    payload = verifier._serialize(items[0][1])  # as a record holds it
    cfg = CheckConfig(M=3, N=2, q=1, max_degree=2, exponent_box=1, samples=2, seed=3)
    ok, _, _, lhs, rhs = evaluate_check(cfg, "identity110", "1.10(3)", payload)
    assert ok
    # a state scaled differently on the two recorded sides cannot have
    # come from a sound run; replay flags it as not reproduced
    record = {
        "family": "identity110",
        "clause": "1.10(3)",
        "pattern": "n=0",
        "config": cfg.to_obj(),
        "payload": payload,
        "lhs": lhs,
        "rhs": rhs,
    }
    result = replay_counterexample(record)
    assert result["ok"] and not result["reproduced"]


def _force_failures(monkeypatch):
    # the one judge of every check's sides says they disagree
    monkeypatch.setattr(verifier, "_holds", lambda lhs, rhs, payload: False)


def test_forced_failures_pin_each_record_and_its_replay(monkeypatch):
    # every clause reports not-ok, so each records its first sample that
    # no print typo adjudicates; the report and the replay of each record,
    # read back from the report's text, are pinned byte for byte, which
    # holds the payload encoding and the replay reader
    _force_failures(monkeypatch)
    q1_families = tuple(f for f in verifier.FAMILY_ORDER if f not in ("sttables", "thm46"))
    configs = (
        (CheckConfig(M=3, N=2, q=2, max_degree=4, exponent_box=1, samples=3, seed=99),
         verifier.FAMILY_ORDER),
        (CheckConfig(M=2, N=2, q=1, max_degree=3, exponent_box=1, samples=2, seed=4),
         q1_families),
    )
    digest = hashlib.sha256()
    replays = 0
    for cfg, families in configs:
        text = ser.dumps(verifier.strip_timings(run(cfg, families=families)))
        digest.update(text.encode())
        for fam in json.loads(text)["families"].values():
            for cell in fam["clauses"].values():
                record = cell["counterexample"]
                if record is not None:
                    result = replay_counterexample(record)
                    assert result["reproduced"] and not result["ok"], result
                    digest.update(ser.dumps(result).encode())
                    replays += 1
    assert replays == 106
    assert digest.hexdigest() == (
        "e986975ca4cf0d216a5fadebbd73446e52ab9454e058e5a3d3535716ec3e70c3"
    )


# the families whose clauses check identities of operators on a tensor state, all but
# the boson relations 3.1(*) (on a boson state) and central-witness (a nonzero test)
_IDENTITY_FAMILIES = ("prop33", "thm46", "lemma49", "corollary19", "identity110")


def _is_state_identity(family, clause):
    return (family in _IDENTITY_FAMILIES and not clause.startswith("3.1")
            and clause != "central-witness")


def test_state_identities_return_operator_sides():
    # every clause's evaluator returns its two sides and nothing else, two operators
    # exactly for a state identity, and the one judge accepts the sides of each first
    # SMALL payload
    identities = clauses = 0
    for family, table in verifier._CLAUSES.items():
        for clause, (generate, evaluate) in table.items():
            _, payload = next(iter(generate(SMALL)))
            sides = evaluate(SMALL, payload)
            assert type(sides) is tuple and len(sides) == 2, (family, clause)
            identity = _is_state_identity(family, clause)
            assert [isinstance(side, _Operator) for side in sides] == [identity] * 2, (
                family, clause)
            assert verifier._holds(*sides, payload), (family, clause)
            identities += identity
            clauses += 1
    assert identities == 10 + 13 + 2 + 3 + 3 and clauses == 65


def test_a_side_is_built_only_for_a_record_or_a_replay(monkeypatch):
    # a passing check applies lhs - rhs once and builds neither side; a
    # failing one builds each operator side once for its record, and a
    # replay builds each once more
    built = []
    side = verifier._side

    def counting(value, payload):
        built.append(isinstance(value, _Operator))
        return side(value, payload)

    monkeypatch.setattr(verifier, "_side", counting)
    assert run(SMALL, families=_IDENTITY_FAMILIES)["all_pass"]
    assert built == []
    _force_failures(monkeypatch)
    cfg = CheckConfig(M=2, N=1, q=2, max_degree=2, exponent_box=1, samples=1, seed=1)
    records = [cell["counterexample"]
               for fam in run(cfg, families=_IDENTITY_FAMILIES)["families"].values()
               for cell in fam["clauses"].values()]
    identities = sum(_is_state_identity(r["family"], r["clause"]) for r in records)
    assert identities == 31 and len(records) == 35
    assert len(built) == 2 * len(records) and sum(built) == 2 * identities
    for record in records:
        assert replay_counterexample(record)["reproduced"]
    assert len(built) == 4 * len(records) and sum(built) == 4 * identities


@pytest.mark.parametrize("family, clause", [
    ("thm46", "ST1"), ("prop33", "R1"), ("lemma49", "lemma4.9"), ("corollary19", "1.9(2)"),
])
def test_replay_of_an_empty_state_passes(tmp_path, capsys, family, clause):
    # a recorded "state": [] shows no lattice shape: every operator is built
    # at the config's lattice (q = 1 for prop33's R rows), and the zero state
    # passes; its replay is not a reproduced failure (exit 2), never a crash
    pattern, payload = next(iter(verifier.FAMILIES[family]["generate"](SMALL, clause)))
    payload = verifier._serialize(payload)
    payload["state"] = []
    assert evaluate_check(SMALL, family, clause, payload) == (True, False, None, [], [])
    if clause == "lemma4.9":
        record = {"family": family, "clause": clause, "pattern": pattern,
                  "config": SMALL.to_obj(), "payload": payload, "lhs": [], "rhs": []}
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(record))
        assert main(["replay", "--counterexample", str(path)]) == 2
        assert "did NOT reproduce" in capsys.readouterr().err


def test_replay_of_a_reproducing_record_exits_0(tmp_path, capsys):
    # F(e_1, e_2) = 1, so a record expecting -1 fails the same way again
    record = {"family": "cocycle", "clause": "basis-table", "pattern": "ee",
              "config": SMALL.to_obj(), "payload": {"case": "ee", "i": 1, "j": 2, "expected": -1},
              "lhs": 1, "rhs": -1}
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(record))
    assert main(["replay", "--counterexample", str(path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["reproduced"] is True
    assert "counterexample reproduced" in err


def test_coverage_map_counts():
    rep = run(SMALL, families=("rtables",))
    for k in range(1, 11):
        assert rep["coverage"][f"R{k}"] > 0
        assert rep["coverage"][f"T{k}"] > 0



def test_repeated_family_runs_once():
    cfg = CheckConfig(M=2, N=1, q=2, max_degree=3, exponent_box=1, samples=2, seed=3)
    once = verifier.strip_timings(run(cfg, families=("form",)))
    assert verifier.strip_timings(run(cfg, families=("form", "form"))) == once
    assert verifier.strip_timings(run(cfg, families=("jacobi", "form", "jacobi"))) == (
        verifier.strip_timings(run(cfg, families=("jacobi", "form")))
    )
    cmd = [
        sys.executable, "-m", "supertoroidal.cli", "check", "--family", "form",
        "--family", "form,form", "--M", "2", "--N", "1", "--samples", "2",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("form/")]
    assert len(lines) == len(set(lines)) == len(verifier.FAMILIES["form"]["clauses"])

def test_degenerate_ranks_run_clean():
    # gl(1|1) and one-sided floors exercise the feasibility filtering
    cfg = CheckConfig(M=1, N=1, q=2, max_degree=3, exponent_box=1, samples=3, seed=9)
    rep = run(cfg, families=("jacobi", "rtables", "sttables", "prop33", "thm46", "lemma49"))
    assert rep["all_pass"]
    with pytest.raises(ValueError):
        run(cfg, families=("identity110",))
    with pytest.raises(ValueError):
        run(cfg, families=("corollary19",))
    cfg = CheckConfig(M=4, N=1, q=2, max_degree=3, exponent_box=1, samples=3, seed=9)
    assert run(cfg, families=("rtables", "thm46", "identity110"))["all_pass"]


def test_zero_hit_clause_fails_the_run(monkeypatch):
    # a clause whose generator yields nothing must fail, not silently pass
    spec = dict(verifier.FAMILIES["lemma49"])
    spec["generate"] = lambda cfg, clause: iter(())
    monkeypatch.setitem(verifier.FAMILIES, "lemma49", spec)
    rep = run(SMALL, families=("lemma49",))
    assert not rep["all_pass"]
    for cell in rep["families"]["lemma49"]["clauses"].values():
        assert cell["hits"] == 0 and not cell["ok"]


def test_cli_check_and_report(tmp_path):
    report_path = tmp_path / "report.json"
    cmd = [
        sys.executable, "-m", "supertoroidal.cli", "check",
        "--family", "jacobi", "--family", "lemma49",
        "--M", "3", "--N", "2", "--q", "2", "--max-degree", "4",
        "--box", "1", "--samples", "3", "--seed", "4",
        "--report", str(report_path),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all_pass: True" in proc.stdout
    report = json.loads(report_path.read_text())
    assert report["all_pass"]
    assert set(report["families"]) == {"jacobi", "lemma49"}


def test_cli_check_defaults_are_check_configs(tmp_path, capsys):
    # every flag left out takes CheckConfig's own default
    path = tmp_path / "report.json"
    assert main(["check", "--family", "cocycle", "--samples", "1", "--report", str(path)]) == 0
    assert json.loads(path.read_text())["config"] == CheckConfig(samples=1).to_obj()


def test_cli_report_file_is_the_canonical_text_of_run(tmp_path, capsys):
    # the --report file is dumps of the library's report at the same config: canonical
    # text, and equal to run's report once the timings are stripped on both sides
    cfg = CheckConfig(M=2, N=1, q=2, max_degree=3, exponent_box=1, samples=2, seed=3)
    families = ["sttables", "lemma49"]
    path = tmp_path / "report.json"
    flags = ["--M", "2", "--N", "1", "--q", "2", "--max-degree", "3", "--box", "1",
             "--samples", "2", "--seed", "3"]
    assert main(["check", "--family", ",".join(families), *flags, "--report", str(path)]) == 0
    text = path.read_text()
    assert ser.dumps(json.loads(text)) == text
    assert json.loads(text)["adjudications"]
    expected = ser.dumps(verifier.strip_timings(run(cfg, families)))
    assert ser.dumps(verifier.strip_timings(json.loads(text))) == expected


def test_cli_act_bracket_roundtrip(tmp_path):
    from supertoroidal.lattice import LatticeConfig
    from supertoroidal.representation import TensorState

    lat = LatticeConfig(3, 2)
    state_path = tmp_path / "state.json"
    state_path.write_text(ser.dumps(ser.tensor_state_to_obj(TensorState.vacuum(lat))))
    op = json.dumps({"kind": "central", "mbar": [0, 0], "direction": 2})
    proc = subprocess.run(
        [sys.executable, "-m", "supertoroidal.cli", "act", "--op", op,
         "--state", str(state_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert ser.tensor_state_from_obj(json.loads(proc.stdout)) == TensorState.vacuum(lat)

    x = json.dumps([{"coeff": "1/1", "kind": "T", "i": 1, "j": 1, "exponent": [1, 0]}])
    y = json.dumps([{"coeff": "1/1", "kind": "T", "i": 1, "j": 1, "exponent": [-1, 0]}])
    proc = subprocess.run(
        [sys.executable, "-m", "supertoroidal.cli", "bracket", "--x", x, "--y", y,
         "--M", "3", "--N", "2", "--q", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out == [{"coeff": "1/1", "direction": 1, "exponent": [0, 0], "kind": "K"}]


def test_cli_export_constants(tmp_path):
    out = tmp_path / "constants.json"
    proc = subprocess.run(
        [sys.executable, "-m", "supertoroidal.cli", "export-constants",
         "--M", "2", "--N", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    table = json.loads(out.read_text())
    assert len(table["table"]) == 16 * 16
    by_key = {((e["x"]["i"], e["x"]["j"]), (e["y"]["i"], e["y"]["j"])): e["bracket"]
              for e in table["table"]}
    assert by_key[((1, 2), (2, 1))] == [
        {"coeff": "-1/1", "i": 1, "j": 1}, {"coeff": "1/1", "i": 2, "j": 2}]


@pytest.mark.parametrize("M, N, digest", [
    (3, 2, "fa2baad1b7c56aaa992625da69b5537beb045da2181707da53dbfbd7d605328a"),
    (3, 3, "6740c39ef6fd33afec34984164a80b32fa73bc5118cb534169c3d3d4ec4e4b9b"),
])
def test_export_constants_table_is_pinned(M, N, digest, capsys):
    assert main(["export-constants", "--M", str(M), "--N", str(N)]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_replay(tmp_path):
    gen = verifier.FAMILIES["lemma49"]["generate"]
    pattern, payload = next(iter(gen(SMALL, "lemma4.9")))
    payload = verifier._serialize(payload)  # as a record holds it
    ok, _, _, lhs, rhs = evaluate_check(SMALL, "lemma49", "lemma4.9", payload)
    record = {
        "family": "lemma49", "clause": "lemma4.9", "pattern": pattern,
        "config": SMALL.to_obj(), "payload": payload, "lhs": lhs, "rhs": rhs,
    }
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(record))
    proc = subprocess.run(
        [sys.executable, "-m", "supertoroidal.cli", "replay", "--counterexample", str(path)],
        capture_output=True, text=True,
    )
    # the recorded check passes, so the "failure" does not reproduce
    assert proc.returncode == 2
    assert "did NOT reproduce" in proc.stderr


@pytest.mark.parametrize("part, field, value", [
    ("payload", "mq", "1"),
    ("config", "M", 3.7),
    ("config", "extra", 1),
], ids=["payload-string-int", "config-float", "config-extra-key"])
def test_cli_replay_of_a_malformed_record_exits_2(tmp_path, capsys, part, field, value):
    # a record field of the wrong type, or an unknown config key, is an
    # input error: it is neither truncated nor met later as a TypeError
    pattern, payload = next(iter(verifier.FAMILIES["lemma49"]["generate"](SMALL, "lemma4.9")))
    record = {"family": "lemma49", "clause": "lemma4.9", "pattern": pattern,
              "config": SMALL.to_obj(), "payload": verifier._serialize(payload),
              "lhs": [], "rhs": []}
    record[part][field] = value
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(record))
    assert main(["replay", "--counterexample", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == ""


def _replay_exit_and_error(tmp_path, capsys, record):
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(record))
    code = main(["replay", "--counterexample", str(path)])
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, (out, err)
    return code, err


def test_cli_replay_of_an_unknown_clause_exits_2(tmp_path, capsys):
    pattern, payload = next(iter(verifier.FAMILIES["lemma49"]["generate"](SMALL, "lemma4.9")))
    record = {"family": "lemma49", "clause": "nosuch", "pattern": pattern,
              "config": SMALL.to_obj(), "payload": verifier._serialize(payload),
              "lhs": [], "rhs": []}
    code, err = _replay_exit_and_error(tmp_path, capsys, record)
    assert code == 2
    assert err == "error: unknown clause 'nosuch' of family 'lemma49'\n"


@pytest.mark.parametrize("family, clause, shape", [
    ("lemma49", "lemma4.9", (4, 3)),  # the config is (M, q) = (3, 2)
    ("lemma49", "lemma4.9", (3, 1)),
    ("prop33", "R7", (3, 2)),  # prop33's R rows act on q = 1 states
], ids=["lemma49-4x3", "lemma49-3x1", "prop33-R-3x2"])
def test_cli_replay_of_a_state_of_another_shape_exits_2(tmp_path, capsys, family, clause, shape):
    # the recorded state is read at the shape its generator draws, so a
    # state of another lattice shape is refused by the field that holds it
    pattern, payload = next(iter(verifier.FAMILIES[family]["generate"](SMALL, clause)))
    other = CheckConfig(M=shape[0], N=2, q=shape[1], max_degree=4, exponent_box=1, samples=1,
                        seed=5)
    payload["state"] = gen_state(other, 0)
    record = {"family": family, "clause": clause, "pattern": pattern,
              "config": SMALL.to_obj(), "payload": verifier._serialize(payload),
              "lhs": [], "rhs": []}
    code, err = _replay_exit_and_error(tmp_path, capsys, record)
    assert code == 2
    assert err.startswith("error: payload field state: "), err
    assert f"does not fit M=3, q={1 if family == 'prop33' else 2}" in err, err


@pytest.mark.parametrize("family, clause, field", [
    ("thm46", "4.4-product", "alpha"),
    ("cocycle", "cocycle-identity", "a"),
    ("lemma49", "lemma2.8", "x1"),  # the vector inside an operator
])
def test_cli_replay_of_a_vector_of_another_shape_exits_2(tmp_path, capsys, family, clause, field):
    pattern, payload = next(iter(verifier.FAMILIES[family]["generate"](SMALL, clause)))
    payload = verifier._serialize(payload)
    vector = payload[field]["alpha"] if field == "x1" else payload[field]
    vector["e"] = vector["e"] + [1]  # M = 4 under a config of M = 3
    record = {"family": family, "clause": clause, "pattern": pattern,
              "config": SMALL.to_obj(), "payload": payload, "lhs": [], "rhs": []}
    code, err = _replay_exit_and_error(tmp_path, capsys, record)
    assert code == 2
    assert err.startswith(f"error: payload field {field}: "), err
    assert "does not fit M=3, q=2" in err, err


def test_cli_input_and_config_errors_exit_2(tmp_path, capsys):
    state = "[]"
    phi = '{"kind": "phi", "flavor": 1, "r": 0}'
    vector = '{"e": [1, 0], "delta": [0], "d": [0]}'
    even = '{"e": [1, 1], "delta": [0], "d": [0]}'
    gamma = f'"gamma": {vector}'
    one_term = f'[{{"coeff": "1/1", {gamma}}}]'  # at (M, q) = (2, 2)
    basis_beyond_rank = f'[{{"coeff": "1/1", {gamma}, "monomial": [{{"basis": 7, "mode": 1}}]}}]'
    mode_0 = f'[{{"coeff": "1/1", {gamma}, "monomial": [{{"basis": 0, "mode": 0}}]}}]'
    mixed_shapes = f'[{{"coeff": "1/1", {gamma}}}, {{"coeff": "1/1", "gamma": {{"e": [1, 0, 0]}}}}]'
    config = {"M": 2, "N": 1, "q": 2, "max_degree": 2, "exponent_box": 1, "samples": 1, "seed": 0}
    records = []
    for k, record in enumerate(({"family": "nope", "clause": "x", "payload": {}},
                                {"family": "cocycle", "clause": "bimultiplicative",
                                 "payload": {"slot": 1}})):
        path = tmp_path / f"record{k}.json"
        path.write_text(json.dumps({**record, "config": config, "lhs": [], "rhs": []}))
        records.append(["replay", "--counterexample", str(path)])
    for argv in (["check", "--family", "corollary19", "--M", "1"],
                 ["act", "--op", phi, "--state", basis_beyond_rank],
                 ["act", "--op", phi, "--state", mode_0],
                 ["act", "--op", '{"kind": "central", "mbar": [1, 0, 0], "direction": 1}',
                  "--state", one_term],
                 ["act", "--op", f'{{"kind": "diag_current", "alpha": {vector}, "mode": 0, '
                                 '"mu": [0, 0]}', "--state", one_term],
                 ["act", "--op", f'{{"kind": "vertex_product_sum", "a": {vector}, "mu": [0, 0], '
                                 '"index": 0}', "--state", one_term],
                 ["act", "--op", '{"kind": "s_op", "i": 1, "j": 2, "mu": [0], "n": 0}',
                  "--state", one_term],
                 ["act", "--op", f'{{"kind": "normal_pair_sum", "a": {even}, "b": {even}, "n": 0}}',
                  "--state", one_term],
                 ["bracket", "--M", "2", "--N", "1", "--q", "2", "--y", "[]",
                  "--x", '[{"coeff": "1/1", "kind": "Q", "exponent": [0, 0]}]'],
                 *records,
                 ["act", "--op", phi, "--state", mixed_shapes],
                 ["check", "--family", "nosuch"],
                 ["act", "--op", '{"kind": "phi", "flavor": 0, "r": 0}', "--state", state],
                 ["act", "--op", '{"kind": "phi", "r": 0}', "--state", state],
                 ["act", "--op", '{"kind": "phi",', "--state", state],
                 ["bracket", "--x", "[]", "--y",
                  '[{"coeff": "1/1", "kind": "K", "direction": 1, "exponent": [0]}]',
                  "--M", "2", "--N", "1", "--q", "2"],
                 # indices outside the algebra, once bracketed to [] with exit 0
                 ["bracket", "--M", "2", "--N", "1", "--q", "2",
                  "--x", '[{"coeff": "1/1", "kind": "T", "i": 99, "j": -4, "exponent": [1, 0]}]',
                  "--y", '[{"coeff": "1/1", "kind": "K", "direction": 1, "exponent": [0, 1]}]'],
                 ["bracket", "--M", "2", "--N", "1", "--q", "2",
                  "--x", '[{"coeff": "1/1", "kind": "K", "direction": 7, "exponent": [1, 0]}]',
                  "--y", '[{"coeff": "1/1", "kind": "T", "i": 1, "j": 2, "exponent": [0, 0]}]']):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert out == ""
    # a sample count below 1 (once a verified failure, exit 1), a negative box (once a
    # randrange error) and a negative degree (once exit 0) are refused by field name
    for flags, field, value, low in (
            (["--family", "jacobi", "--M", "3", "--N", "3", "--q", "1", "--samples", "-1"],
             "samples", -1, 1),
            (["--family", "cocycle", "--box", "-1"], "exponent_box", -1, 0),
            (["--family", "thm46", "--max-degree", "-3", "--samples", "2"], "max_degree", -3, 0)):
        assert main(["check", *flags]) == 2, flags
        assert capsys.readouterr() == ("", f"error: {field} must be >= {low}, got {field} = {value}\n")
    # q = 0 once passed, M = 0 once met a randrange error, and M = 1 once ran all of
    # lemma49 before corollary19 refused it
    for flags, message in (
            (["--family", "jacobi", "--q", "0"], "q must be >= 1, got q = 0"),
            (["--family", "thm46", "--M", "0"], "M must be >= 1, got M = 0"),
            (["--family", "lemma49,corollary19", "--M", "1"],
             "the corollary19 family needs M >= 2 for its root pairs, got M = 1")):
        assert main(["check", *flags]) == 2, flags
        assert capsys.readouterr() == ("", f"error: {message}\n")
    cfg = CheckConfig(M=2, N=1, q=2, max_degree=2, exponent_box=1, samples=0, seed=0)
    with pytest.raises(ValueError, match=r"^samples must be >= 1, got samples = 0$"):
        evaluate_check(cfg, "cocycle", "sign-law", {})


def test_cli_crashes_exit_2_not_1(tmp_path, capsys):
    # exit 1 is kept for a verified failure: a record that is not an object, a family
    # or clause that is not a string, and a file that cannot be opened exit 2
    missing = tmp_path / "missing"
    records = ([], {"family": ["x"], "clause": "sign-law"}, {"family": "cocycle", "clause": 1})
    argvs = []
    for k, record in enumerate(records):
        path = tmp_path / f"record{k}.json"
        path.write_text(json.dumps(record))
        argvs.append(["replay", "--counterexample", str(path)])
    argvs += [["check", "--family", "cocycle", "--samples", "1", "--report", str(missing / "r.json")],
              ["replay", "--counterexample", str(missing / "ce.json")],
              ["bracket", "--x", "[]", "--y", "[]", "--M", "2", "--N", "1", "--q", "2",
               "--out", str(missing / "o.json")]]
    for argv in argvs:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        # a report path that cannot be opened is refused before any family runs
        assert out == "", argv
    for record in records:
        with pytest.raises(ValueError):
            replay_counterexample(record)


def test_run_refuses_before_any_clause_is_generated(monkeypatch):
    # lemma49 runs at M = 1 and corollary19 does not; all of lemma49 once ran first
    generated = []

    def recording(generate):
        def recorded(cfg, clause):
            generated.append(clause)
            return generate(cfg, clause)
        return recorded

    for spec in verifier.FAMILIES.values():
        monkeypatch.setitem(spec, "generate", recording(spec["generate"]))
    cfg = CheckConfig(M=1, N=1, q=2, max_degree=2, exponent_box=1, samples=1, seed=0)
    with pytest.raises(ValueError, match=r"^the corollary19 family needs M >= 2"):
        run(cfg, ("lemma49", "corollary19"))
    assert generated == []


def test_cli_check_keeps_a_report_that_a_refused_config_never_replaces(tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text("kept\n")
    assert main(["check", "--family", "jacobi", "--q", "0", "--report", str(report)]) == 2
    assert report.read_text() == "kept\n"
    argv = ["check", "--family", "cocycle", "--M", "2", "--N", "1", "--samples", "1", "--box", "1"]
    assert main([*argv, "--report", str(report)]) == 0
    capsys.readouterr()
    text = report.read_text()
    assert json.loads(text)["all_pass"] is True and text.endswith("}\n")


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_check_refuses_a_negative_n_for_every_family(seed, capsys):
    # cocycle, the one family that runs at N = 0, once passed at N = -3 and wrote
    # N = -3 into its report; every family now refuses it in one message
    for family in verifier.FAMILY_ORDER:
        code = main(["check", "--family", family, "--M", "2", "--N", "-3", "--q", "2",
                     "--seed", str(seed), "--samples", "2"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: N must be >= 0, got N = -3\n"), family
    # replay refuses it before reading the payload
    cfg = CheckConfig(M=2, N=-1, q=2, max_degree=2, exponent_box=1, samples=1, seed=seed)
    with pytest.raises(ValueError, match=r"^N must be >= 0, got N = -1$"):
        evaluate_check(cfg, "cocycle", "sign-law", {})


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_check_refuses_n_0_before_drawing(seed, capsys):
    # every family but cocycle needs N >= 1 and says so in one message, whatever
    # the seed; thm46 once said "need M >= 1 and N >= 1" at seed 0 and
    # "empty range for randrange() (1, 1, 0)" at seed 1
    for family in verifier.FAMILY_ORDER:
        code = main(["check", "--family", family, "--M", "2", "--N", "0", "--q", "2",
                     "--seed", str(seed), "--samples", "2"])
        out, err = capsys.readouterr()
        if family == "cocycle":
            assert (code, err) == (0, "") and "all_pass: True" in out
        else:
            assert (code, out) == (2, ""), family
            assert err == f"error: the {family} family needs N >= 1, got N = 0\n"
    # the default list is refused before cocycle runs
    assert main(["check", "--M", "2", "--N", "0", "--seed", str(seed)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the jacobi family needs N >= 1, got N = 0\n"


@pytest.mark.parametrize("argv", [
    ["act", "--op", "[]", "--state", "[]"],
    ["act", "--op", "null", "--state", "[]"],
    ["act", "--op", '{"kind": "phi", "flavor": 1, "r": 0}', "--state", '{"a": 1}'],
    ["act", "--op", '{"kind": "phi", "flavor": 1.7, "r": 0}', "--state", "[]"],
    ["act", "--op", '{"kind": "phi", "flavor": 1, "r": 0}',
     "--state", '[{"coeff": "1/2", "gamma": {"e": [0, 0]}, "phi": {}}]'],
    ["act", "--op", '{"kind": "sum", "terms": {}}', "--state", "[]"],
], ids=["op-list", "op-null", "state-object", "op-float-field", "state-phi-object",
        "op-terms-object"])
def test_cli_wrong_json_shapes_exit_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == ""


def test_cli_verified_failure_exits_1(monkeypatch, capsys):
    spec = dict(verifier.FAMILIES["lemma49"])
    spec["generate"] = lambda cfg, clause: iter(())
    monkeypatch.setitem(verifier.FAMILIES, "lemma49", spec)
    assert main(["check", "--family", "lemma49", "--M", "2", "--N", "1", "--samples", "2"]) == 1
    out, err = capsys.readouterr()
    assert "all_pass: False" in out and err == ""
