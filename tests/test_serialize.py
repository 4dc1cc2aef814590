import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    reference_boson_state_from_obj,
    reference_dumps,
    reference_lattice_state_from_obj,
    reference_state_to_obj,
    reference_tensor_state_from_obj,
)
from supertoroidal import serialize as ser
from supertoroidal import verifier
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
from supertoroidal.verifier import CheckConfig

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
    # without a config an omitted block is the zero one of the other's length, and
    # blocks of unequal length are refused, not padded
    assert ser.vector_from_obj({"e": [1], "d": [3, 4]}) == LatticeVector((1,), (0, 0), (3, 4))
    assert ser.vector_from_obj({"e": [1], "delta": [5]}) == LatticeVector((1,), (5,), (0,))
    for obj in ({"e": [1], "delta": [1, 2], "d": [3]}, {"e": [1], "delta": [], "d": [0]}):
        with pytest.raises(ValueError, match="equal length"):
            ser.vector_from_obj(obj)


def test_monomial_power_grouping():
    s = LatticeFockState.basis(CFG.zero(), ((0, 1), (0, 1), (2, 3)))
    obj = ser.lattice_state_to_obj(s)
    assert obj[0]["monomial"] == [
        {"basis": 0, "mode": 1, "power": 2},
        {"basis": 2, "mode": 3, "power": 1},
    ]
    assert ser.lattice_state_from_obj(obj) == s


def test_monomial_power_is_capped():
    # a power is read as that many factor copies, so the reader bounds it
    def term(power):
        return {"coeff": "1/1", "gamma": ser.vector_to_obj(CFG.zero()),
                "monomial": [{"basis": 0, "mode": 1, "power": power}], "phi": [], "phi_star": []}

    (_, mono), = ser.lattice_state_from_obj([term(ser.MAX_POWER)]).terms
    assert mono == ((0, 1),) * ser.MAX_POWER
    for power in (ser.MAX_POWER + 1, 10**9):
        for reader in (ser.lattice_state_from_obj, ser.tensor_state_from_obj):
            with pytest.raises(ValueError, match="exceeds the limit"):
                reader([term(power)])


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


def test_toroidal_reader_reduces_a_pivot_central_key():
    # K_2 t^(1,1) is the pivot key of sum_i m_i t^mbar K_i = 0, so it reads as -K_1 t^(1,1)
    x = ser.toroidal_from_obj([{"coeff": "1", "kind": "K", "direction": 2, "exponent": [1, 1]}])
    assert x == ToroidalElement.k(2, (1, 1))
    assert x.terms == {("K", 1, (1, 1)): Fraction(-1)}


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


def test_readers_reject_wrong_json_shapes():
    readers = (ser.lattice_state_from_obj, ser.boson_state_from_obj, ser.tensor_state_from_obj,
               ser.gl_element_from_obj, ser.toroidal_from_obj)
    for reader in readers:
        for bad in (None, "[]", 3, {"a": 1}, ["x"], [None], [[]]):
            with pytest.raises(ValueError):
                reader(bad)
    gamma = {"e": [0, 0, 0], "delta": [0], "d": [0]}
    for item in ({"coeff": "1/1", "gamma": []},
                 {"coeff": "1/1", "gamma": {"e": 3}},
                 {"coeff": "1/1", "gamma": {"e": [None]}},
                 {"coeff": "1/1", "gamma": gamma, "monomial": {"basis": 0}},
                 {"coeff": "1/1", "gamma": gamma, "monomial": [[0, 1]]},
                 {"coeff": "1/1", "gamma": gamma, "monomial": [{"basis": [], "mode": 1}]},
                 {"coeff": "1/1", "gamma": gamma, "phi": {"flavor": 1}},
                 {"coeff": "1/1", "gamma": gamma,
                  "phi_star": [{"flavor": None, "doubled_mode": -1}]}):
        with pytest.raises(ValueError):
            ser.tensor_state_from_obj([item])
    for item in ({"coeff": "1/1", "kind": ["T"], "i": 1, "j": 2, "exponent": [0]},
                 {"coeff": "1/1", "kind": "T", "i": 1, "j": 2, "exponent": 0},
                 {"coeff": "1/1", "kind": "K", "direction": {}, "exponent": [0]}):
        with pytest.raises(ValueError):
            ser.toroidal_from_obj([item])
    # a monomial basis index outside 0..rank-1 of its gamma, and gammas of two lattice shapes
    g22 = {"e": [1, 0], "delta": [0], "d": [0]}
    assert ser.tensor_state_from_obj([{"coeff": "1/1", "gamma": g22,
                                       "monomial": [{"basis": 3, "mode": 1}]}])
    for bad in ([{"coeff": "1/1", "gamma": g22, "monomial": [{"basis": 4, "mode": 1}]}],
                [{"coeff": "1/1", "gamma": g22, "monomial": [{"basis": -1, "mode": 1}]}],
                [{"coeff": "1/1", "gamma": g22}, {"coeff": "1/1", "gamma": {"e": [1, 0, 0]}}]):
        for reader in (ser.lattice_state_from_obj, ser.tensor_state_from_obj):
            with pytest.raises(ValueError, match="out of range|mixes lattice shapes"):
                reader(bad)
    for bad in (None, [], "phi", 1, {"kind": []}, {"kind": {"kind": "phi"}},
                {"kind": "phi", "flavor": None, "r": 0},
                {"kind": "vertex", "alpha": [1, 0, 0], "index": 0},
                {"kind": "central", "mbar": 0, "direction": 1},
                {"kind": "product", "factors": {"kind": "phi"}},
                {"kind": "product", "factors": [[]]},
                {"kind": "sum", "terms": [["1/1", {"kind": "phi", "flavor": 1, "r": 0}]]}):
        with pytest.raises(ValueError):
            ser.operator_from_obj(bad)



def _put(template, v):
    """template with its "<int>" placeholder replaced by v."""
    if template == "<int>":
        return v
    if isinstance(template, dict):
        return {k: _put(x, v) for k, x in template.items()}
    if isinstance(template, list):
        return [_put(x, v) for x in template]
    return template


_GAMMA = {"e": [0, 0, 0], "delta": [0], "d": [0]}
_TERM = {"coeff": "1/1", "gamma": _GAMMA}
# site -> (reader, JSON with one integer field left as "<int>", an int the site accepts)
_INT_FIELD_SITES = {
    "vector.e": (ser.vector_from_obj, {"e": [1, "<int>", 0]}, 1),
    "vector.delta": (ser.vector_from_obj, {"e": [1, 0, 0], "delta": ["<int>"], "d": [0]}, 1),
    "vector.d": (ser.vector_from_obj, {"e": [1, 0, 0], "delta": [0], "d": ["<int>"]}, 1),
    "monomial.basis": (ser.lattice_state_from_obj,
                       [{**_TERM, "monomial": [{"basis": "<int>", "mode": 1}]}], 0),
    "monomial.mode": (ser.lattice_state_from_obj,
                      [{**_TERM, "monomial": [{"basis": 0, "mode": "<int>"}]}], 1),
    "monomial.power": (ser.lattice_state_from_obj,
                       [{**_TERM, "monomial": [{"basis": 0, "mode": 1, "power": "<int>"}]}], 2),
    "boson.flavor": (ser.tensor_state_from_obj,
                     [{**_TERM, "phi": [{"flavor": "<int>", "doubled_mode": -1}]}], 1),
    "boson.doubled_mode": (ser.boson_state_from_obj,
                           [{"coeff": "1/1", "phi_star": [{"flavor": 1, "doubled_mode": "<int>"}]}],
                           -3),
    "toroidal.i": (ser.toroidal_from_obj,
                   [{"coeff": "1/1", "kind": "T", "i": "<int>", "j": 2, "exponent": [0, 0]}], 1),
    "toroidal.j": (ser.toroidal_from_obj,
                   [{"coeff": "1/1", "kind": "T", "i": 1, "j": "<int>", "exponent": [0, 0]}], 2),
    "toroidal.direction": (ser.toroidal_from_obj,
                           [{"coeff": "1/1", "kind": "K", "direction": "<int>", "exponent": [0, 1]}],
                           1),
    "toroidal.exponent": (ser.toroidal_from_obj,
                          [{"coeff": "1/1", "kind": "T", "i": 1, "j": 2, "exponent": [0, "<int>"]}],
                          -1),
    "gl.i": (ser.gl_element_from_obj, [{"coeff": "1/1", "i": "<int>", "j": 2}], 1),
    "gl.j": (ser.gl_element_from_obj, [{"coeff": "1/1", "i": 1, "j": "<int>"}], 2),
    "phi.flavor": (ser.operator_from_obj, {"kind": "phi", "flavor": "<int>", "r": 0}, 1),
    "phi.r": (ser.operator_from_obj, {"kind": "phi_star", "flavor": 1, "r": "<int>"}, 1),
    "vertex.index": (ser.operator_from_obj, {"kind": "vertex", "alpha": _GAMMA, "index": "<int>"}, 0),
    "s_op.i": (ser.operator_from_obj, {"kind": "s_op", "i": "<int>", "j": 4, "mu": [0], "n": 0}, 1),
    "s_op.n": (ser.operator_from_obj, {"kind": "s_op", "i": 1, "j": 4, "mu": [0], "n": "<int>"}, 0),
    "s_op.mu": (ser.operator_from_obj, {"kind": "s_op", "i": 1, "j": 4, "mu": ["<int>"], "n": 0}, 1),
    "central.direction": (ser.operator_from_obj,
                          {"kind": "central", "mbar": [0, 0], "direction": "<int>"}, 2),
    "central.mbar": (ser.operator_from_obj,
                     {"kind": "central", "mbar": [0, "<int>"], "direction": 1}, 3),
}


@pytest.mark.parametrize("bad", (1.7, True, "3"), ids=("float", "bool", "string"))
@pytest.mark.parametrize("site", sorted(_INT_FIELD_SITES))
def test_readers_refuse_non_integers_in_integer_fields(site, bad):
    reader, template, good = _INT_FIELD_SITES[site]
    reader(_put(template, good))
    with pytest.raises(ValueError, match="must be an integer"):
        reader(_put(template, bad))


# -- the direct emitter against json.dumps, and the readers under fuzzing

_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
            | st.floats() | st.text(max_size=6)
            | st.sampled_from(("", "\\", '"', "\n\t\x00\x7f", "é", " ", "\U0001f600")))
_NON_STR_KEYS = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans())
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | _NON_STR_KEYS.flatmap(lambda k: st.dictionaries(st.from_type(type(k)), inner,
                                                                     max_size=3))),
    max_leaves=24,
)


def _same_text_or_error(obj):
    try:
        expected = reference_dumps(obj)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            ser.dumps(obj)
        return
    assert ser.dumps(obj) == expected


# a list and a dict that contain themselves, and a list shared by two
# slots, which is no cycle
_CYCLIC_LIST = []
_CYCLIC_LIST.append(_CYCLIC_LIST)
_CYCLIC_DICT = {"a": [1]}
_CYCLIC_DICT["a"].append(_CYCLIC_DICT)
_SHARED = [1, {"x": []}]
_SHARED_DICT = {"z": [1, {"w": []}], "y": {}}
# one value in several dict values, at two indent levels, and as a list item
_SHARING = st.builds(lambda v: {"a": v, "b": {"c": v, "d": [v]}, "e": v}, _JSON_VALUES)


@settings(max_examples=400)
@given(_JSON_VALUES | _SHARING)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": ()})
@example([[], [{}], {"k": [[]]}])
@example({"é\n": "\"\\ ", "": ""})
@example([True, False, None, -0.0, 1e300, float("inf")])
@example({2: [1], 10: {"x": None}})
@example({1.5: 1, -2.0: 2})
@example({True: 1, False: [2]})
@example({None: 3})
@example([-10**60, 10**60, 0])
@example(("t", (1, 2)))
@example({"timing": {"elapsed_s": 0.123456789, "per_family": [1.5, 2.25]}})
@example({1: 1, "a": 2})
@example({(1, 2): 3})
@example([object()])
@example({"a": {1j: 0}})
@example(_CYCLIC_LIST)
@example(_CYCLIC_DICT)
@example([_SHARED, {"y": _SHARED}])
@example({"a": _SHARED_DICT, "b": {"c": _SHARED_DICT}, "d": _SHARED_DICT})
@example({"a": {"b": _SHARED}, "c": _SHARED, "d": [{"e": _SHARED}]})
def test_dumps_matches_json_dumps(obj):
    _same_text_or_error(obj)


def test_dumps_matches_json_dumps_on_encodings(monkeypatch):
    rng = random.Random(10)
    objs = []
    for _ in range(100):
        objs += [ser.tensor_state_to_obj(random_tensor_state(rng)),
                 ser.toroidal_to_obj(random_toroidal(rng)),
                 ser.lattice_state_to_obj(random_lattice_state(rng)),
                 ser.boson_state_to_obj(random_boson_state(rng))]
    objs += [ser.operator_to_obj(op) for op in _every_kind()]
    # a report's floats, bools and None take the scalar path
    objs.append(verifier.run(CheckConfig(M=2, N=1, q=2, max_degree=2, exponent_box=1,
                                         samples=1, seed=0), ["jacobi"]))
    expected = [reference_dumps(obj) for obj in objs]
    # none of them falls back to json.dumps of the whole value, the only call with indent
    json_dumps = json.dumps

    def without_indent(*args, **kwargs):
        assert "indent" not in kwargs, "dumps fell back to json.dumps"
        return json_dumps(*args, **kwargs)

    monkeypatch.setattr(ser.json, "dumps", without_indent)
    assert [ser.dumps(obj) for obj in objs] == expected


# readers meet objects whose keys are the encoding's own field names, so
# the fuzzing reaches the nested fields and not only the outer shape check
_FIELD_NAMES = ("coeff", "gamma", "e", "delta", "d", "monomial", "basis", "mode", "power", "phi",
                "phi_star", "flavor", "doubled_mode", "kind", "i", "j", "direction", "exponent",
                "alpha", "a", "b", "index", "r", "mu", "mbar", "n", "m", "factors", "terms", "op")
# integers stay small: a monomial "power" is expanded into that many factors
_READER_SCALARS = (st.none() | st.booleans() | st.integers(-4, 4) | st.floats(-2, 2)
                   | st.sampled_from(("1/2", "-3/1", "1/0", "x", "", "T", "K",
                                      *ser._OPERATOR_KINDS)))
_READER_VALUES = st.recursive(
    _READER_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_FIELD_NAMES), inner, max_size=6)),
    max_leaves=30,
)
_READERS = (ser.vector_from_obj, lambda obj: ser.vector_from_obj(obj, CFG),
            ser.lattice_state_from_obj, ser.boson_state_from_obj, ser.tensor_state_from_obj,
            ser.gl_element_from_obj, ser.toroidal_from_obj, ser.operator_from_obj,
            lambda obj: ser.operator_from_obj(obj, CFG))


@settings(max_examples=300)
@given(_READER_VALUES, st.sampled_from(range(len(_READERS))))
def test_readers_raise_only_value_error(obj, reader):
    for value in (obj, [obj]):
        try:
            _READERS[reader](value)
        except ValueError:
            pass


def _in_coefficient_grammar(s: str) -> bool:
    """s is "p" or "p/q" in ASCII digits with an optional leading "-", as frac_to_str writes."""
    parts = (s[1:] if s.startswith("-") else s).split("/")
    return len(parts) <= 2 and all(p and set(p) <= set("0123456789") for p in parts)


@settings(max_examples=300)
@given(st.text(max_size=8) | st.from_regex(r"\A *[-+]?[0-9_]{0,4}(/[-+0-9_]{0,4})? *\Z")
       | st.from_regex(r"\A-?[0-9]{1,6}(/[0-9]{1,6})?\Z"))
@example("1e2000000")
@example("1.5")
@example(" 3 ")
@example("1_000")
@example("+3")
@example("3\n")
@example("\u0663")  # an Arabic-Indic digit, which int() and Fraction() read
@example("-0/7")
def test_frac_from_str_follows_fraction(s):
    # Fraction is the oracle on the grammar frac_to_str writes; the reader refuses the rest
    if not _in_coefficient_grammar(s):
        with pytest.raises(ValueError):
            ser.frac_from_str(s)
        return
    try:
        expected = Fraction(s)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="zero denominator"):
            ser.frac_from_str(s)
        return
    got = ser.frac_from_str(s)
    assert type(got) is Fraction and got == expected


@given(st.lists(st.integers(), max_size=4), st.integers(0, 4),
       st.one_of(st.floats(), st.booleans(), st.text(max_size=2), st.none(),
                 st.just([]), st.just({})))
def test_integer_arrays_refuse_any_non_integer(ints, at, bad):
    e = ints[:at] + [bad] + ints[at:]
    with pytest.raises(ValueError, match="must be an integer"):
        ser.vector_from_obj({"e": e})
    with pytest.raises(ValueError, match="must be an integer"):
        ser.toroidal_from_obj([{"coeff": "1/1", "kind": "K", "direction": 1, "exponent": e}])
    assert ser.vector_from_obj({"e": ints}).e == tuple(ints)


_GAMMA2 = {"e": [0, 0], "delta": [], "d": []}


@pytest.mark.parametrize("reader, obj", [
    (ser.tensor_state_from_obj, [{"coeff": "1/2", "gamma": _GAMMA2, "phi": {}}]),
    (ser.tensor_state_from_obj, [{"coeff": "1/2", "gamma": _GAMMA2, "phi": ""}]),
    (ser.boson_state_from_obj, [{"coeff": "1/2", "phi_star": {}}]),
    (ser.lattice_state_from_obj, [{"coeff": "1/2", "gamma": _GAMMA2, "monomial": {}}]),
    (ser.tensor_state_from_obj, [{"coeff": "1/2", "gamma": _GAMMA2, "monomial": ""}]),
    (ser.operator_from_obj, {"kind": "product", "factors": ""}),
    (ser.operator_from_obj, {"kind": "sum", "terms": {}}),
], ids=["phi-object", "phi-string", "phi_star-object", "monomial-object", "monomial-string",
        "factors-string", "terms-object"])
def test_readers_refuse_a_non_array_for_an_array(reader, obj):
    with pytest.raises(ValueError, match="must be a JSON array"):
        reader(obj)


def test_readers_refuse_a_missing_field_as_value_error():
    for reader, obj in ((ser.tensor_state_from_obj, [{"gamma": _GAMMA2}]),
                        (ser.toroidal_from_obj, [{"coeff": "1/1", "i": 1, "j": 2}]),
                        (ser.operator_from_obj, {"kind": "phi", "r": 0}),
                        (ser.operator_from_obj, {"flavor": 1, "r": 0})):
        with pytest.raises(ValueError):
            reader(obj)


# -- the memoized key readers against the per-term readers they replaced

# a state is drawn as a few gammas, monomials and boson mode lists that its
# terms share; each term writes its own copy, and in three states of four
# one term, most often a late one, changes one value in its gamma, monomial,
# mode list or coefficient to a twin of an int (1.0 and True equal 1 and
# hash alike, "1" and [1] do not), to its negative or to a JSON value of
# another kind, or leaves a field out
_KEY_SHAPES = ((3, 2), (3, 1), (2, 2), (2, 1))
_KEY_MODES = st.fixed_dictionaries({"flavor": st.integers(1, 2),
                                    "doubled_mode": st.sampled_from((-1, -3, -5))})
_KEY_MONOMIALS = st.lists(st.fixed_dictionaries({"basis": st.integers(0, 2),
                                                 "mode": st.integers(1, 2)},
                                                optional={"power": st.integers(1, 2)}),
                          max_size=2)
_KEY_COEFFS = st.sampled_from(("1/1", "-1/1", "0", "1/2", 3))


def _slots(obj, out: list) -> list:
    """(container, key) of every value nested in obj."""
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            out.append((obj, k))
            _slots(v, out)
    return out


@st.composite
def _key_states(draw):
    small = st.integers(-1, 1)

    def gamma(M, q):
        g = {"e": draw(st.lists(small, min_size=M, max_size=M))}
        if q > 1 or draw(st.booleans()):
            g["delta"] = draw(st.lists(small, min_size=q - 1, max_size=q - 1))
            g["d"] = draw(st.lists(small, min_size=q - 1, max_size=q - 1))
        return g

    shape = draw(st.sampled_from(_KEY_SHAPES))
    gammas = [gamma(*shape) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gammas.append(gamma(*draw(st.sampled_from(_KEY_SHAPES))))
    monomials = draw(st.lists(_KEY_MONOMIALS, min_size=1, max_size=3))
    mode_lists = draw(st.lists(st.lists(_KEY_MODES, max_size=3), min_size=1, max_size=3))
    terms = [json.loads(json.dumps({"coeff": draw(_KEY_COEFFS),
                                    "gamma": draw(st.sampled_from(gammas)),
                                    "monomial": draw(st.sampled_from(monomials)),
                                    "phi": draw(st.sampled_from(mode_lists)),
                                    "phi_star": draw(st.sampled_from(mode_lists))}))
             for _ in range(draw(st.sampled_from((2, 3, 4, 5, 6))))]
    term = terms[draw(st.sampled_from(range(len(terms))[::-1]))]
    field = draw(st.sampled_from(("gamma", "monomial", "phi", "phi_star", "coeff")))
    slots = [(term, field)] if field == "coeff" else _slots(term[field], [])
    if slots and draw(st.sampled_from((True, True, True, False))):
        where, k = draw(st.sampled_from(slots))
        v = where[k]
        if isinstance(where, dict) and draw(st.booleans()):
            del where[k]
        elif type(v) is int:
            where[k] = draw(st.sampled_from([float(v), *[bool(v)][:v in (0, 1)], str(v), [v], -v]))
        else:
            where[k] = draw(st.sampled_from((None, {}, "x", 0.5)))
    return terms


_KEY_READERS = {
    "lattice": (ser.lattice_state_from_obj, reference_lattice_state_from_obj),
    "boson": (lambda obj, config: ser.boson_state_from_obj(obj),
              lambda obj, config: reference_boson_state_from_obj(obj)),
    "tensor": (ser.tensor_state_from_obj, reference_tensor_state_from_obj),
}
_G3 = {"e": [1, 0, 0], "delta": [0], "d": [0]}
_PHI = [{"flavor": 1, "doubled_mode": -1}]
_MONO = [{"basis": 0, "mode": 1, "power": 1}]


def _term(gamma=_G3, **fields):
    return {"coeff": "1/1", "gamma": gamma, **fields}


# the (3, 1) gamma sits only on terms that leave the state when it is cleaned
_ZERO_TERM_OF_ANOTHER_SHAPE = [_term(), {**_term({"e": [1, 0, 0]}), "coeff": "0"}]
_CANCELLING_TERMS_OF_ANOTHER_SHAPE = [_term(), {**_term({"e": [0, 1, 0]}), "coeff": "1/2"},
                                      {**_term({"e": [0, 1, 0]}), "coeff": "-1/2"}]


@pytest.mark.parametrize("obj", [_ZERO_TERM_OF_ANOTHER_SHAPE, _CANCELLING_TERMS_OF_ANOTHER_SHAPE],
                         ids=["zero-coeff", "cancelling-pair"])
@pytest.mark.parametrize("reader", ["lattice", "tensor"])
def test_state_readers_refuse_a_shape_only_on_terms_that_clean_away(obj, reader):
    # the shape is checked on every gamma read, before the terms are cleaned
    for read in _KEY_READERS[reader]:
        with pytest.raises(ValueError, match=re.escape("mixes lattice shapes (M, q): [(3, 1), (3, 2)]")):
            read(obj, None)


def _with(value):
    """_G3 with value in place of its first e component."""
    return {**_G3, "e": [value, *_G3["e"][1:]]}


@settings(max_examples=400)
@given(_key_states() | st.lists(_READER_VALUES, max_size=3),
       st.sampled_from((None, CFG, LatticeConfig(3, 1), LatticeConfig(2, 2))),
       st.sampled_from(sorted(_KEY_READERS)))
# a later term repeats an earlier gamma with a value that equals or hashes like its int
@example([_term(), _term(_with(1.0))], None, "tensor")
@example([_term(), _term(_with(True))], None, "lattice")
@example([_term(), _term(_with("1"))], CFG, "tensor")
@example([_term(), _term(_with([1]))], None, "tensor")
@example([_term(), _term({**_G3, "d": [0.0]})], CFG, "lattice")
# ... or an earlier phi/phi_star list
@example([_term(phi=_PHI), _term(phi=[{"flavor": 1.0, "doubled_mode": -1}])], None, "tensor")
@example([_term(phi_star=_PHI), _term(phi_star=[{"flavor": True, "doubled_mode": -1}])], None,
         "boson")
@example([_term(phi=_PHI), _term(phi=[{"flavor": 1, "doubled_mode": "-1"}])], None, "tensor")
@example([_term(phi=_PHI), _term(phi=[{"flavor": [1], "doubled_mode": -1}])], None, "boson")
# ... or an earlier monomial, its power an int twin or omitted next to the same
# factor written out
@example([_term(monomial=_MONO), _term(monomial=[{**_MONO[0], "power": True}])], None, "lattice")
@example([_term(monomial=_MONO), _term(monomial=[{**_MONO[0], "power": 1.0}])], None, "tensor")
@example([_term(monomial=_MONO), _term(monomial=[{**_MONO[0], "power": "1"}])], CFG, "tensor")
@example([_term(monomial=[{"basis": 0, "mode": 1}]), _term(monomial=_MONO)], None, "lattice")
@example([_term(monomial=_MONO), _term(monomial=[{"basis": 0, "mode": 1}])], None, "tensor")
# basis 3 fits the rank-4 gamma but not the rank-3 one, so the monomial is read again
@example([_term({"e": [1, 0], "delta": [0], "d": [0]}, monomial=[{**_MONO[0], "basis": 3}]),
          _term({"e": [1, 0, 0]}, monomial=[{**_MONO[0], "basis": 3}])], None, "lattice")
# ... or an earlier coefficient string
@example([_term(coeff="1/2"), _term(coeff="1/2"), _term(coeff=0.5)], None, "tensor")
@example([_term(coeff="1/2"), _term(coeff="1/2"), _term(coeff=True)], None, "lattice")
@example([_term(coeff=1), _term(coeff="1"), _term(coeff=True)], None, "tensor")
# one flavor with two modes in two terms
@example([_term(phi=_PHI), _term(phi=[{"flavor": 1, "doubled_mode": -3}])], None, "tensor")
@example([_term(phi_star=[{"flavor": 2, "doubled_mode": -1}]),
          _term(phi_star=[{"flavor": 2, "doubled_mode": -3}])], None, "boson")
# an omitted delta or d, with and without a config, next to the same vector written out
@example([_term(), _term({"e": [1, 0, 0]})], CFG, "tensor")
@example([_term(), _term({"e": [1, 0, 0], "d": [0]})], CFG, "lattice")
@example([_term({"e": [1, 0, 0], "delta": [2]}), _term({"e": [1, 0, 0], "delta": [2], "d": [0]})],
         None, "tensor")
@example([_term({"e": [1, 0, 0]}), _term({"e": [1, 0, 0], "delta": [], "d": []})], None, "tensor")
# mixed shapes: the odd gamma repeated, read past the memo, or only on a term of
# coefficient 0 or on two terms that cancel (both refused, see below)
@example([_term(), _term({"e": [1, 0]}), _term({"e": [1, 0]})], None, "tensor")
@example([_term(), _term({"e": [1, 0], "delta": [], "d": []}),
          _term({"e": [1, 0], "delta": [], "d": []})], None, "lattice")
@example([_term(), _term({"e": [1, 0, 0]})], None, "tensor")
@example(_ZERO_TERM_OF_ANOTHER_SHAPE, None, "tensor")
@example(_CANCELLING_TERMS_OF_ANOTHER_SHAPE, None, "lattice")
def test_key_readers_match_per_term_readers(obj, config, reader):
    read, reference = _KEY_READERS[reader]
    try:
        expected = reference(obj, config)
    except ValueError as exc:
        with pytest.raises(ValueError, match=rf"\A{re.escape(str(exc))}\Z"):
            read(obj, config)
        return
    got = read(obj, config)
    assert type(got) is type(expected) and got == expected


def test_state_readers_read_each_distinct_monomial_and_coefficient_once(monkeypatch):
    monomials = [[{"basis": b, "mode": n, "power": p}] for b in range(3) for n in (1, 2)
                 for p in (1, 2)]
    coeffs = ["1/1", "-1/2", "3/4", "0", "5"]
    obj = [_term({"e": [i % 3 - 1, 0, 0], "delta": [0], "d": [0]},
                 monomial=monomials[i % len(monomials)], coeff=coeffs[i % len(coeffs)])
           for i in range(300)]
    readers = ((ser.lattice_state_from_obj, reference_lattice_state_from_obj(obj)),
               (ser.tensor_state_from_obj, reference_tensor_state_from_obj(obj)))
    calls = {"_monomial_from_obj": [], "frac_from_str": []}
    for name, seen in calls.items():
        def counted(value, *args, read=getattr(ser, name), seen=seen):
            seen.append(json.dumps(value))
            return read(value, *args)
        monkeypatch.setattr(ser, name, counted)
    # one read per distinct (rank, monomial) and coefficient string, all terms on one rank
    once = {"_monomial_from_obj": sorted(map(json.dumps, monomials)),
            "frac_from_str": sorted(map(json.dumps, coeffs))}
    for read, expected in readers:
        for seen in calls.values():
            seen.clear()
        assert read(obj) == expected
        assert {name: sorted(seen) for name, seen in calls.items()} == once


def test_state_encoders_match_per_term_encoders():
    rng = random.Random(12)
    for _ in range(100):
        for s, encode in ((random_tensor_state(rng), ser.tensor_state_to_obj),
                          (random_lattice_state(rng), ser.lattice_state_to_obj),
                          (random_boson_state(rng), ser.boson_state_to_obj)):
            obj, expected = encode(s), reference_state_to_obj(s)
            assert obj == expected
            assert ser.dumps(obj) == reference_dumps(expected)
    # terms share the object of their gamma, monomial or mode list, and only
    # theirs: g and h agree in e, the monomials in length, the phi lists in flavor
    g, h = LatticeVector((1, 0, 0), (0,), (0,)), LatticeVector((1, 0, 0), (1,), (0,))
    s = TensorState({((g, ((0, 1),)), (((1, -1),), ())): 1, ((g, ((0, 1),)), ((), ())): 2,
                     ((h, ((0, 2),)), (((1, -3),), ())): 3})
    obj = ser.tensor_state_to_obj(s)
    assert obj == reference_state_to_obj(s)
    a, b, c = obj
    assert a["gamma"] is b["gamma"] and a["monomial"] is b["monomial"]
    assert a["phi"] is a["phi_star"] is b["phi_star"] is c["phi_star"]
