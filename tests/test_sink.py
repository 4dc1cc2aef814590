"""The operators' integer sinks against the Fraction path they replaced.

tests/oracles.py keeps that path: lattice operators on one Fraction state per
boson half, OpSum scaling every coefficient, and the super-commutator built
from two full orderings.  Every operator kind, OpSum coefficients that are
negative, non-unit or 0, OpProducts, commutators of every parity pair, states
spread over several boson halves, the zero state and the heaviest thm46
sample must agree with it, with every coefficient a nonzero Fraction in
lowest terms.  The zero state stops at apply, at super_commutator, at an
OpProduct's zero image and at the lattice forms, so no operator below them
is handed it.  The last test bounds the memory of that heavy sample.
"""

import gc
import random
import tracemalloc
from fractions import Fraction
from math import gcd

from supertoroidal.fock_lattice import (
    LatticeFockState,
    heisenberg_apply,
    normal_ordered_pair_sum,
    vertex_mode_apply,
    vertex_product_sum,
)
from supertoroidal.lattice import LatticeConfig, LatticeVector
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
    apply,
    rho,
    super_commutator,
)
from supertoroidal.superalgebra import Superalgebra, ToroidalElement

from oracles import reference_apply, reference_super_commutator
from test_representation import M, LAT, _spread_over_boson_keys, random_tensor

E1, E2, E3 = LAT.e(1), LAT.e(2), LAT.e(3)
DM = LAT.delta_sum((1,))

EVEN = [
    VertexMode(LAT.root(1, 2) + DM, 0),
    Current(E1, -1),
    Current(E2, 1),
    Current(DM, 0),
    PhiMode(1, 1),
    PhiMode(2, 0),
    PhiStarMode(2, 0),
    PhiStarMode(1, 1),
    DiagCurrent(E2, 0, (1,)),
    DiagCurrent(LAT.delta(1), 1, (-1,)),
    SOp(M + 1, M + 2, (1,), 0),
    SOp(M + 2, M + 1, (0,), 1),  # boson family at mu = 0: the vector is 0, X_0 the identity
    CentralImage((1, 1), 1),
    CentralImage((1, 0), 2),
    VertexProductSum(LAT.root(1, 3), (1,), 0),
    OpProduct((PhiMode(1, 0), VertexMode(E2, 1), VertexMode(-E1, -1))),
    OpProduct(()),
    OpSum(((Fraction(1, 2), Current(E3, 0)), (Fraction(-3), PhiStarMode(1, 1)),
           (Fraction(2), PhiMode(2, 1)))),
    OpSum(((Fraction(-1), VertexMode(LAT.root(2, 3), -2)),)),
    OpSum(((Fraction(0), Current(E1, 0)), (Fraction(5, 3), DiagCurrent(E1, -1, (0,))),
           (Fraction(-2, 7), OpProduct((Current(E2, 1), VertexMode(DM, 2)))))),
]
ODD = [
    VertexMode(E1, -1),
    VertexMode(-E2 + DM, 1),
    SOp(1, M + 1, (1,), 0),
    SOp(M + 2, 2, (-1,), 1),
    NormalPairSum(E1, -E2, 0),
    OpProduct((PhiStarMode(2, 0), VertexMode(E3, 1))),
    OpSum(((Fraction(-4, 3), VertexMode(E2, -1)), (Fraction(3, 2), SOp(1, M + 2, (0,), 1)))),
]
ZERO = TensorState.zero()


def assert_clean(ts):
    for c in ts.terms.values():
        assert type(c) is Fraction and c and gcd(c.numerator, c.denominator) == 1, c


def _states(rng, count):
    """Random states, every other one spread over several boson halves, then the zero state."""
    for trial in range(count):
        s = random_tensor(rng, max_deg=3, nterms=3)
        yield _spread_over_boson_keys(rng, s) if trial % 2 else s
    yield ZERO


def test_every_operator_kind_against_the_fraction_path():
    rng = random.Random(83)
    nonzero = dict.fromkeys(range(len(EVEN + ODD)), 0)
    for s in _states(rng, 6):
        before = dict(s.terms)
        for i, op in enumerate(EVEN + ODD):
            image = op.apply(s)
            assert image == reference_apply(op, s), (op, s)
            assert_clean(image)
            assert s.terms == before, op
            nonzero[i] += not image.is_zero()
    assert min(nonzero.values()) >= 1, nonzero


def test_super_commutators_against_both_orderings_in_full():
    rng = random.Random(89)
    pairs = dict.fromkeys(((p1, p2) for p1 in (0, 1) for p2 in (0, 1)), 0)
    for trial in range(48):
        op1 = rng.choice(ODD if trial % 2 else EVEN)
        op2 = rng.choice(ODD if trial % 4 >= 2 else EVEN)
        s = random_tensor(rng, max_deg=3, nterms=2)
        if trial % 3 == 0:
            s = _spread_over_boson_keys(rng, s)
        lhs = super_commutator(op1, op2, s)
        assert lhs == reference_super_commutator(op1, op2, s), (op1, op2)
        assert_clean(lhs)
        # the orderings cancel more often than not; count the pairs where one does not
        pairs[(trial % 2, int(trial % 4 >= 2))] += not op1.apply(op2.apply(s)).is_zero()
    assert min(pairs.values()) >= 4, pairs


def test_the_zero_state_stops_at_apply():
    # one operator of each of the 11 kinds at least, and every ordered pair of them in a
    # commutator: the zero state shows no M, so no parity may be read on it
    assert len({type(op) for op in EVEN + ODD}) == 11
    for op in EVEN + ODD:
        assert op.apply(ZERO) == ZERO, op
    for op1 in EVEN + ODD:
        for op2 in EVEN + ODD:
            assert super_commutator(op1, op2, ZERO) == ZERO, (op1, op2)


def test_a_factor_that_kills_the_state_ends_the_product():
    # phi^1_{1/2} kills the vacuum, so no later factor, which would read M and q off
    # the state, is handed a zero state
    vac = TensorState.vacuum(LAT)
    kill = PhiMode(1, 1)
    assert kill.apply(vac) == ZERO
    for op in (SOp(1, M + 1, (1,), 0), SOp(M + 1, M + 2, (1,), 0), DiagCurrent(E2, 0, (1,)),
               CentralImage((1, 1), 1), CentralImage((1, 0), 2),
               VertexProductSum(LAT.root(1, 3), (1,), 0)):
        assert OpProduct((op, kill)).apply(vac) == ZERO, op
        assert OpProduct((op, Current(E1, -1), kill)).apply(vac) == ZERO, op
        assert super_commutator(op, kill, vac) == reference_super_commutator(op, kill, vac)


def test_the_lattice_forms_map_the_zero_state_to_itself():
    zero = LatticeFockState.zero()
    assert heisenberg_apply(E1, -1, zero) == zero
    assert heisenberg_apply(E1, 1, zero) == zero
    assert vertex_mode_apply(E1, -1, zero) == zero
    assert vertex_product_sum(LAT.root(1, 3), DM, 0, zero) == zero
    assert normal_ordered_pair_sum(E1, -E2, 0, zero) == zero


def _probe():
    """Criterion 6's heaviest sample (ST1, index 1): x = T_23 t^(2,-1), y = T_21 t^(2,1)
    on e^(-2 e2 + 2 e3 - 2 d1) at (3|2), q = 2; each ordering of [rho(x), rho(y)] has
    11,016 terms, and they cancel."""
    lat = LatticeConfig(3, 2)
    x, y = ToroidalElement.t(2, 3, (2, -1)), ToroidalElement.t(2, 1, (2, 1))
    z = Superalgebra(3, 2).bracket_toroidal(x, y)
    state = TensorState.basis(LatticeVector((0, -2, 2), (0,), (-2,)))
    return rho(x, lat), rho(y, lat), rho(z, lat), state


def test_probe_sample_against_the_fraction_path():
    # the reference kernel would take seconds on 11,016 terms, so each vertex mode
    # runs on one lattice state per boson half, as the replaced path ran it
    x, y, z, state = _probe()
    lhs = super_commutator(x, y, state)
    assert lhs.is_zero()
    assert reference_super_commutator(x, y, state, vertex_mode_apply) == lhs
    assert apply(z, state) == reference_apply(z, state, vertex_mode_apply) == lhs


def test_probe_sample_peak_memory():
    # warm caches first, so only the transient states count; the two full orderings
    # of the Fraction path peaked at about 7 MB, the folded sinks at about 4.3 MB, and
    # about 3.6 MB once the staged kernel pops each bucket as it reads it.  The cyclic
    # collector is off from the warm-up through the measurement: a full collection in
    # that window empties CPython's free lists, and the blocks they held would then be
    # traced, so the peak would depend on what earlier tests left to collect
    x, y, z, state = _probe()
    enabled = gc.isenabled()
    gc.disable()
    try:
        super_commutator(x, y, state)
        apply(z, state)
        tracemalloc.start()
        lhs = super_commutator(x, y, state)
        rhs = apply(z, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert lhs == rhs == ZERO
    assert peak < 4_000_000, peak
