import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supertoroidal import serialize as ser
from supertoroidal.lattice import LatticeConfig, LatticeVector
from supertoroidal.fock_lattice import LatticeFockState
from supertoroidal.fock_boson import BosonState
from supertoroidal.superalgebra import ToroidalElement
from supertoroidal.representation import (
    CentralImage,
    Current,
    DiagCurrent,
    NormalPairSum,
    OpProduct,
    OpSum,
    PhiMode,
    PhiStarMode,
    SOp,
    TensorState,
    VertexMode,
    VertexProductSum,
)

CFG = LatticeConfig(3, 2)


def random_vector(rng, cfg=CFG, box=3):
    return LatticeVector(
        tuple(rng.randint(-box, box) for _ in range(cfg.M)),
        tuple(rng.randint(-box, box) for _ in range(cfg.q - 1)),
        tuple(rng.randint(-box, box) for _ in range(cfg.q - 1)),
    )


def random_fraction(rng):
    return Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.randint(1, 9))


def random_lattice_state(rng, cfg=CFG):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(
            sorted((rng.randrange(cfg.rank), rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
        )
        terms[(random_vector(rng, cfg), mono)] = random_fraction(rng)
    return LatticeFockState(terms)


def random_boson_state(rng, N=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        phi = tuple(sorted((rng.randint(1, N), -(2 * rng.randint(0, 3) + 1))
                           for _ in range(rng.randint(0, 2))))
        phis = tuple(sorted((rng.randint(1, N), -(2 * rng.randint(0, 3) + 1))
                            for _ in range(rng.randint(0, 2))))
        terms[(phi, phis)] = random_fraction(rng)
    return BosonState(terms)


def random_tensor_state(rng, cfg=CFG):
    lat = random_lattice_state(rng, cfg)
    bos = random_boson_state(rng)
    return TensorState.product(lat, bos)


def random_toroidal(rng, size=4, q=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(-3, 3) for _ in range(q))
        if rng.random() < 0.7:
            key = ("T", rng.randint(1, size), rng.randint(1, size), exp)
        else:
            key = ("K", rng.randint(1, q), exp)
        terms[key] = random_fraction(rng)
    return ToroidalElement(terms)


def test_fraction_strings():
    assert ser.frac_to_str(Fraction(-3, 4)) == "-3/4"
    assert ser.frac_to_str(5) == "5/1"
    assert ser.frac_from_str("-3/4") == Fraction(-3, 4)


def test_vector_roundtrip_and_omission():
    v = CFG.e(1) + 2 * CFG.dgen(1)
    obj = ser.vector_to_obj(v)
    assert ser.vector_from_obj(obj) == v
    assert ser.vector_from_obj({"e": [1, 0, 0]}, CFG) == CFG.e(1)
    assert ser.vector_from_obj({"delta": [5]}, CFG) == 5 * CFG.delta(1)
    with pytest.raises(ValueError):
        ser.vector_from_obj({"e": [1, 0]}, CFG)
    with pytest.raises(ValueError):
        ser.vector_from_obj({"delta": [1]})


def test_monomial_power_grouping():
    s = LatticeFockState.basis(CFG.zero(), ((0, 1), (0, 1), (2, 3)))
    obj = ser.lattice_state_to_obj(s)
    assert obj[0]["monomial"] == [
        {"basis": 0, "mode": 1, "power": 2},
        {"basis": 2, "mode": 3, "power": 1},
    ]
    assert ser.lattice_state_from_obj(obj) == s


def test_bulk_roundtrips():
    rng = random.Random(0)
    for _ in range(200):
        s = random_lattice_state(rng)
        assert ser.lattice_state_from_obj(json.loads(json.dumps(ser.lattice_state_to_obj(s)))) == s
        b = random_boson_state(rng)
        assert ser.boson_state_from_obj(json.loads(json.dumps(ser.boson_state_to_obj(b)))) == b
        t = random_tensor_state(rng)
        assert ser.tensor_state_from_obj(json.loads(json.dumps(ser.tensor_state_to_obj(t)))) == t
        x = random_toroidal(rng)
        assert ser.toroidal_from_obj(json.loads(json.dumps(ser.toroidal_to_obj(x)))) == x


def test_operator_roundtrip():
    ops = [
        VertexMode(CFG.root(1, 2), -4),
        Current(CFG.e(1), 2),
        PhiMode(1, -1),
        PhiStarMode(2, 3),
        DiagCurrent(CFG.e(2), 1, (2,)),
        SOp(1, 4, (0,), -1),
        CentralImage((1, 0), 2),
        NormalPairSum(CFG.e(1), -CFG.e(2), 1),
        VertexProductSum(CFG.e(1), (1,), -1),
    ]
    ops.append(OpProduct((ops[0], ops[2])))
    ops.append(OpSum(((Fraction(2, 3), ops[1]), (Fraction(-1), ops[5]))))
    for op in ops:
        obj = json.loads(json.dumps(ser.operator_to_obj(op)))
        assert ser.operator_from_obj(obj) == op


def test_emitted_text_is_canonical():
    rng = random.Random(5)
    t = random_tensor_state(rng)
    text1 = ser.dumps(ser.tensor_state_to_obj(t))
    text2 = ser.dumps(ser.tensor_state_to_obj(ser.tensor_state_from_obj(json.loads(text1))))
    assert text1 == text2
    assert text1.endswith("\n")


@given(st.integers(-10**12, 10**12), st.integers(1, 10**6))
def test_fraction_roundtrip_property(num, den):
    f = Fraction(num, den)
    assert ser.frac_from_str(ser.frac_to_str(f)) == f


def _every_kind():
    """One operator of each of the 11 kinds; the product and the sum nest each other."""
    ops = [
        VertexMode(CFG.root(1, 2) + CFG.delta(1), -4),
        Current(CFG.e(1), 2),
        PhiMode(1, -1),
        PhiStarMode(2, 3),
        DiagCurrent(CFG.e(2), 1, (2,)),
        SOp(1, 4, (0,), -1),
        CentralImage((1, -2), 2),
        NormalPairSum(CFG.e(1), -CFG.e(2), 1),
        VertexProductSum(CFG.e(1) + CFG.dgen(1), (1,), -1),
    ]
    inner_sum = OpSum(((Fraction(1, 2), ops[2]), (Fraction(-5, 3), ops[3])))
    ops.append(OpProduct((ops[0], inner_sum, ops[8])))
    ops.append(OpSum(((Fraction(2, 3), ops[1]), (Fraction(-1), OpProduct((ops[5], ops[6]))))))
    return ops


def test_operator_encoding_is_pinned():
    # the canonical text of one operator of each kind is pinned byte for byte
    ops = _every_kind()
    objs = [ser.operator_to_obj(op) for op in ops]
    assert len({obj["kind"] for obj in objs}) == 11
    text = "".join(ser.dumps(obj) for obj in objs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f0bd39294461ebf55f57547321958716e38c3d36d4702f8462a5fabf33af0c03")
    for op, obj in zip(ops, objs):
        assert ser.operator_from_obj(json.loads(ser.dumps(obj))) == op


def test_omitted_mu_reads_as_empty():
    alpha = {"e": [1, 0], "delta": [], "d": []}
    objs = {
        "diag_current": ({"kind": "diag_current", "alpha": alpha, "mode": 2},
                         DiagCurrent(LatticeVector((1, 0), (), ()), 2, ())),
        "s_op": ({"kind": "s_op", "i": 1, "j": 3, "n": -1}, SOp(1, 3, (), -1)),
        "vertex_product_sum": ({"kind": "vertex_product_sum", "a": alpha, "index": 1},
                               VertexProductSum(LatticeVector((1, 0), (), ()), (), 1)),
    }
    for kind, (obj, op) in objs.items():
        assert ser.operator_from_obj(obj) == op, kind
        assert ser.operator_to_obj(op)["mu"] == []


def test_operator_codec_errors():
    with pytest.raises(ValueError, match="unknown operator kind"):
        ser.operator_from_obj({"kind": "vertex_mode", "alpha": {"e": [1]}, "index": 0})
    # bad fields are refused when read, not when applied
    for bad in ({"kind": "phi", "flavor": 0, "r": 0},
                {"kind": "phi_star", "flavor": -1, "r": 1},
                {"kind": "s_op", "i": 0, "j": 3, "mu": [0], "n": 0},
                {"kind": "s_op", "i": 3, "j": 0, "mu": [0], "n": 0},
                {"kind": "product", "factors": [{"kind": "phi", "flavor": 0, "r": 0}]}):
        with pytest.raises(ValueError, match="1-based"):
            ser.operator_from_obj(bad)
    for not_an_op in (CFG.e(1), "vertex", None):
        with pytest.raises(TypeError):
            ser.operator_to_obj(not_an_op)


def test_coefficients_stay_exact():
    with pytest.raises(ValueError, match="zero denominator"):
        ser.frac_from_str("1/0")
    for bad in (0.1, 1.0, True, None, [1, 2]):
        with pytest.raises(ValueError):
            ser.frac_from_str(bad)
    assert ser.frac_from_str(3) == Fraction(3)
    with pytest.raises(ValueError):
        ser.gl_element_from_obj([{"coeff": 0.1, "i": 1, "j": 2}])
    with pytest.raises(ValueError):
        ser.toroidal_from_obj([{"coeff": "1/0", "kind": "T", "i": 1, "j": 2, "exponent": [0]}])
    assert ser.gl_element_from_obj([{"coeff": "1/10", "i": 1, "j": 2}]).terms == {
        (1, 2): Fraction(1, 10)}


def test_boson_readers_reject_invalid_modes():
    good = {"coeff": "1/1", "phi": [{"flavor": 1, "doubled_mode": -3}]}
    assert ser.boson_state_from_obj([good]) == BosonState.basis(((1, -3),))
    lattice = {"gamma": {"e": [0, 0, 0], "delta": [0], "d": [0]}}
    for mode in ({"flavor": 0, "doubled_mode": -1}, {"flavor": 1, "doubled_mode": 2},
                 {"flavor": 1, "doubled_mode": 1}, {"flavor": 2, "doubled_mode": -2}):
        for field in ("phi", "phi_star"):
            item = {"coeff": "1/1", field: [mode]}
            with pytest.raises(ValueError):
                ser.boson_state_from_obj([item])
            with pytest.raises(ValueError):
                ser.tensor_state_from_obj([{**item, **lattice}])
