from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import in_gamma, reference_basis_support, reference_pair_with_basis
from supertoroidal.lattice import (
    LatticeConfig,
    LatticeVector,
    basis_support,
    bilinear,
    cocycle,
    pair_with_basis,
    parity,
)

CFG = LatticeConfig(3, 3)


def vec_strategy(M=3, q=3, bound=4, q_only=False):
    coords = st.integers(min_value=-bound, max_value=bound)
    zeros = st.just(0)
    return st.builds(
        LatticeVector,
        st.tuples(*[coords] * M),
        st.tuples(*[coords] * (q - 1)),
        st.tuples(*[(zeros if q_only else coords)] * (q - 1)),
    )


def test_basis_pairings():
    assert bilinear(CFG.e(1), CFG.e(1)) == 1
    assert bilinear(CFG.e(1), CFG.e(2)) == 0
    assert bilinear(CFG.delta(1), CFG.dgen(1)) == 1
    assert bilinear(CFG.delta(1), CFG.delta(1)) == 0
    assert bilinear(CFG.dgen(1), CFG.dgen(2)) == 0
    assert bilinear(CFG.e(2), CFG.delta(1)) == 0
    assert bilinear(CFG.e(1) - CFG.e(2), CFG.e(2) - CFG.e(1)) == -2


def test_parity_examples():
    assert parity(CFG.e(1)) == 1
    assert parity(CFG.e(1) - CFG.e(2)) == 0
    assert parity(CFG.delta_sum((5, -3))) == 0
    assert parity(CFG.dgen(1) + CFG.delta(2)) == 0


def test_cocycle_table():
    assert cocycle(CFG.e(1), CFG.e(2)) == 1
    assert cocycle(CFG.e(1), CFG.e(1)) == 1
    assert cocycle(CFG.e(2), CFG.e(1)) == -1
    assert cocycle(CFG.zero(), CFG.e(1) + CFG.delta(2)) == 1
    assert cocycle(CFG.e(1) + CFG.delta(2), CFG.zero()) == 1
    assert cocycle(CFG.e(1), CFG.delta(1)) == 1
    assert cocycle(CFG.delta(1), CFG.e(3)) == 1
    assert cocycle(CFG.delta(1), CFG.delta(2)) == 1
    assert cocycle(CFG.delta(1), CFG.dgen(2)) == 1
    assert cocycle(CFG.e(1) - CFG.e(2), CFG.e(2) - CFG.e(1)) == -1


def test_cocycle_negated_argument():
    # forced by bimultiplicativity: F(e_i, -e_j) = F(e_i, e_j)
    for i in range(1, 4):
        for j in range(1, 4):
            assert cocycle(CFG.e(i), -CFG.e(j)) == cocycle(CFG.e(i), CFG.e(j))


def test_cocycle_rejects_d_component():
    with pytest.raises(ValueError):
        cocycle(CFG.dgen(1), CFG.e(1))


def test_shape_mismatch_rejected():
    other = LatticeConfig(2, 3)
    with pytest.raises(ValueError):
        bilinear(CFG.e(1), other.e(1))


def test_shape_mismatch_names_both_shapes():
    # the reprs of e1 in (M, q) = (2, 2) and (3, 1) read the same, the shapes do not
    with pytest.raises(ValueError, match=r"\(M, q\) = \(2, 2\) vs \(3, 1\)"):
        LatticeConfig(2, 2).e(1) + LatticeConfig(3, 1).e(1)


@given(vec_strategy(), vec_strategy())
def test_bilinear_symmetric(a, b):
    assert bilinear(a, b) == bilinear(b, a)


@given(vec_strategy(), vec_strategy(), vec_strategy(),
       st.integers(-3, 3), st.integers(-3, 3))
def test_bilinear_linear(a, b, c, m, n):
    assert bilinear(m * a + n * b, c) == m * bilinear(a, c) + n * bilinear(b, c)


@given(vec_strategy(), vec_strategy())
def test_parity_additive(a, b):
    assert parity(a + b) == (parity(a) + parity(b)) % 2


@given(vec_strategy())
def test_parity_is_norm_mod_two(a):
    assert parity(a) == bilinear(a, a) % 2


@given(vec_strategy(q_only=True), vec_strategy(q_only=True), vec_strategy())
def test_cocycle_bimultiplicative(a, b, c):
    assert cocycle(a + b, c) == cocycle(a, c) * cocycle(b, c)
    assert cocycle(a, b + c) == cocycle(a, b) * cocycle(a, c)


@settings(max_examples=300)
@given(vec_strategy(q_only=True), vec_strategy(q_only=True), vec_strategy(q_only=True))
def test_cocycle_identity_random(a, b, c):
    assert cocycle(a, b) * cocycle(a + b, c) == cocycle(b, c) * cocycle(a, b + c)


def test_sign_law_exhaustive_small_box():
    # M = 2 box [-1, 1]: 81 pairs, fully enumerated
    cfg = LatticeConfig(2, 1)
    space = [LatticeVector(e) for e in product((-1, 0, 1), repeat=2)]
    for a in space:
        for b in space:
            lhs = cocycle(a, b) * cocycle(b, a)
            assert lhs == (-1) ** (bilinear(a, b) + parity(a) * parity(b))


def test_basis_vector_flat_indexing():
    names = [CFG.e(1), CFG.e(2), CFG.e(3), CFG.delta(1), CFG.delta(2), CFG.dgen(1), CFG.dgen(2)]
    for idx, v in enumerate(names):
        assert CFG.basis_vector(idx) == v
    with pytest.raises(ValueError):
        CFG.basis_vector(7)


def test_membership_predicates():
    assert in_gamma(CFG.e(1)) and CFG.e(1).in_q()
    assert not in_gamma(CFG.delta(1)) and CFG.delta(1).in_q()
    assert not CFG.dgen(1).in_q()
    assert in_gamma(CFG.zero())


def test_q1_degenerates_to_gamma():
    cfg = LatticeConfig(4, 1)
    assert cfg.rank == 4
    assert cfg.zero().delta == ()
    assert cfg.delta_sum(()) == cfg.zero()


@given(vec_strategy(), vec_strategy())
def test_cached_hash_follows_equality(a, b):
    # equal vectors built along different routes share one hash and one dict slot
    for x, y in ((a, b), (a + b, b + a), (a - a, CFG.zero()), (2 * a, a + a)):
        assert (x == y) == ((x.e, x.delta, x.d) == (y.e, y.delta, y.d))
        if x == y:
            assert hash(x) == hash(y) and {x: 1}[y] == 1
    rebuilt = LatticeVector(a.e, a.delta, a.d)
    assert rebuilt == a and hash(rebuilt) == hash(a) and repr(rebuilt) == repr(a)


def test_arithmetic_adds_and_scales_and_never_concatenates():
    a = LatticeVector((1, -2, 0), (3, 0), (0, -1))
    b = LatticeVector((0, 1, 4), (-3, 2), (1, 1))
    assert a + b == LatticeVector((1, -1, 4), (0, 2), (1, 0))
    assert a - b == LatticeVector((1, -3, -4), (6, -2), (-1, -2))
    assert -a == LatticeVector((-1, 2, 0), (-3, 0), (0, 1))
    assert 2 * a == a * 2 == LatticeVector((2, -4, 0), (6, 0), (0, -2))
    for v in (a + b, a - b, -a, 2 * a, a * 2, 0 * a):
        assert type(v) is LatticeVector and len(v) == 3 and v.shape == (3, 3)


def test_vector_is_immutable_and_checks_its_blocks():
    v = CFG.e(1)
    with pytest.raises(AttributeError):
        v.e = (0, 0, 0)
    with pytest.raises(AttributeError):
        v.extra = 1  # no instance dict
    with pytest.raises(ValueError, match="delta and d blocks must have equal length"):
        LatticeVector((1,), (0,), ())
    assert LatticeVector((1, 2)) == LatticeVector((1, 2), (), ())


def test_equal_vectors_built_apart_are_equal_and_hash_alike():
    built = [LatticeVector((1, 0, -1), (2, 0), (0, 3)),
             CFG.e(1) - CFG.e(3) + 2 * CFG.delta(1) + 3 * CFG.dgen(2),
             LatticeVector.from_flat((1, 0, -1, 2, 0, 0, 3), 3)]
    first = built[0]
    for v in built:
        assert v == first and hash(v) == hash(first) and {first: 1}[v] == 1
    assert LatticeVector((1,), (), ()) != LatticeVector((1,), (0,), (0,))


@pytest.mark.parametrize("M, q", [(1, 1), (3, 1), (1, 2), (2, 3), (4, 4)])
def test_shape_and_rank(M, q):
    cfg = LatticeConfig(M, q)
    for v in [cfg.zero()] + [cfg.basis_vector(i) for i in range(cfg.rank)]:
        assert v.shape == (M, q) and v.rank == cfg.rank == M + 2 * (q - 1)
        assert len(v.flat) == v.rank and LatticeVector.from_flat(v.flat, M) == v


@settings(max_examples=200)
@given(st.sampled_from([(1, 1), (2, 2), (3, 3), (2, 4)]).flatmap(
    lambda shape: vec_strategy(M=shape[0], q=shape[1])))
def test_pairings_match_block_by_block_reference(a):
    rank = a.rank
    for idx in range(-2, rank + 2):
        if 0 <= idx < rank:
            assert pair_with_basis(a, idx) == reference_pair_with_basis(a, idx)
            assert pair_with_basis(a, idx) == bilinear(a, LatticeConfig(*a.shape).basis_vector(idx))
        else:
            with pytest.raises(ValueError):
                pair_with_basis(a, idx)
    assert basis_support(a) == reference_basis_support(a)
