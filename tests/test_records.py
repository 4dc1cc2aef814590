"""The frozen records (lattice.Record and its 15 subclasses) behave as frozen
dataclasses did, every record, vector and state survives copy and pickle, and
importing the package loads neither dataclasses nor inspect."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supertoroidal import representation as rep
from supertoroidal.fock_boson import BosonState
from supertoroidal.fock_lattice import LatticeFockState
from supertoroidal.lattice import LatticeConfig, LatticeVector
from supertoroidal.superalgebra import GLElement, ToroidalElement
from supertoroidal.tables import Row
from supertoroidal.verifier import CheckConfig

ROOT = Path(__file__).resolve().parent.parent
CFG = LatticeConfig(3, 2)
A = CFG.root(1, 2)
B = CFG.e(3)


def _build(alg, idx, me, ne):
    return None


# each record class with its fields in class-body order and a valid value for each
CASES = [
    (LatticeConfig, {"M": 3, "q": 2}),
    (Row, {"clause": "R1", "row": "R1:1", "vars": (("i", "M"),), "patterns": (), "build": _build}),
    (CheckConfig, {"M": 2, "N": 1, "q": 2, "max_degree": 3, "exponent_box": 1, "samples": 4,
                   "seed": 7}),
    (rep.VertexMode, {"alpha": A, "index": -2}),
    (rep.Current, {"alpha": A, "mode": -2}),
    (rep._BosonMode, {"flavor": 1, "r": 2}),
    (rep.PhiMode, {"flavor": 1, "r": 2}),
    (rep.PhiStarMode, {"flavor": 1, "r": 2}),
    (rep.DiagCurrent, {"alpha": CFG.e(1), "mode": 1, "mu": (2,)}),
    (rep.SOp, {"i": 1, "j": 4, "mu": (0,), "n": 1}),
    (rep.CentralImage, {"mbar": (0, 1), "direction": 2}),
    (rep.NormalPairSum, {"a": A, "b": B, "n": 1}),
    (rep.VertexProductSum, {"a": A, "mu": (1,), "index": 0}),
    (rep.OpProduct, {"factors": (rep.VertexMode(A, 2), rep.Current(B, 1))}),
    (rep.OpSum, {"terms": ((Fraction(1), rep.VertexMode(A, -2)),)}),
]
# classes whose records have the same fields as another class's
TWINS = {rep.VertexMode: rep.Current, rep.Current: rep.VertexMode,
         rep.PhiMode: rep.PhiStarMode, rep.PhiStarMode: rep.PhiMode, rep._BosonMode: rep.PhiMode}


@pytest.mark.parametrize("cls, fields", CASES, ids=[c.__name__ for c, _ in CASES])
def test_record_semantics(cls, fields):
    values = tuple(fields.values())
    rec = cls(*values)
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name, value in fields.items():
        assert getattr(rec, name) is value

    same = cls(**fields)
    assert rec == same and hash(rec) == hash(same)
    assert not rec != same
    assert rec != values
    if cls in TWINS:
        twin = TWINS[cls](*values)
        assert rec != twin and twin != rec

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == same

    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, extra=0)
    with pytest.raises(TypeError):
        cls(*values, **{next(iter(fields)): values[0]})
    if cls is not CheckConfig:
        with pytest.raises(TypeError):
            cls()


def test_records_differ_in_a_field():
    assert rep.VertexMode(A, 2) != rep.VertexMode(A, 0)
    assert rep.VertexMode(A, 2) != rep.VertexMode(B, 2)
    assert LatticeConfig(3, 2) != LatticeConfig(3, 1)
    assert CheckConfig(seed=1) != CheckConfig()


def test_record_defaults():
    e1 = LatticeConfig(3).e(1)
    assert rep.DiagCurrent(e1, 1).mu == () and rep.DiagCurrent(alpha=e1, mode=1).mu == ()
    assert LatticeConfig(3).q == 1 and LatticeConfig(3) == LatticeConfig(3, 1)
    assert CheckConfig() == CheckConfig(3, 2, 2, 6, 2, 20, 0)
    assert CheckConfig(seed=5) == CheckConfig(3, 2, 2, 6, 2, 20, 5)


@pytest.mark.parametrize("make", [
    lambda: rep.PhiMode(0, 0),
    lambda: rep.PhiStarMode(flavor=0, r=1),
    lambda: LatticeConfig(0),
    lambda: LatticeConfig(2, q=0),
    lambda: rep.DiagCurrent(CFG.dgen(1), 1, (0,)),
    lambda: rep.DiagCurrent(A, 1),
    lambda: rep.CentralImage((0, 1), 3),
    lambda: rep.CentralImage((0, 1), 0),
    lambda: rep.SOp(0, 4, (0,), 1),
], ids=["phi", "phi_star", "lattice_M", "lattice_q", "diag_d", "diag_mu", "central_high",
        "central_low", "s_op"])
def test_post_init_refusals(make):
    with pytest.raises(ValueError):
        make()


# a vector of each block shape, one state of each Combination kind with vectors in
# its keys where it has any, and the zero state
VALUES = [
    CFG.e(1), A + CFG.dgen(1), LatticeConfig(2).zero(), LatticeVector((1, -2)),
    LatticeFockState({(A, ((0, 1), (2, 3))): Fraction(-3, 4), (B, ()): 2}),
    BosonState.basis(((1, -1),), ((2, -3), (2, -3)), Fraction(5, 7)),
    rep.TensorState.basis(A + B, ((1, 2),), ((1, -1),), (), Fraction(1, 3)),
    rep.TensorState.zero(),
    GLElement.symbol(1, 2, Fraction(2, 3)),
    ToroidalElement.t(1, 2, (1, -1)) + ToroidalElement.k(2, (0, 1)),
]


@pytest.mark.parametrize("value", [cls(**fields) for cls, fields in CASES] + VALUES,
                         ids=[c.__name__ for c, _ in CASES] + [f"v{i}" for i in range(len(VALUES))])
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_check_config_round_trip():
    for cfg in (CheckConfig(), CheckConfig(M=2, N=1, q=3, max_degree=4, exponent_box=1,
                                           samples=3, seed=9)):
        obj = cfg.to_obj()
        assert list(obj) == ["M", "N", "q", "max_degree", "exponent_box", "samples", "seed"]
        assert CheckConfig.from_obj(obj) == cfg


def test_import_loads_neither_dataclasses_nor_inspect():
    # the benchmark's import line, in an interpreter without site hooks
    code = ("import sys\n"
            "import supertoroidal, supertoroidal.verifier, supertoroidal.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
