"""The shared sparse-combination base, once for each of its five subclasses."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supertoroidal import (
    BosonState,
    GLElement,
    LatticeConfig,
    LatticeFockState,
    TensorState,
    ToroidalElement,
)
from supertoroidal.combination import accumulate

LAT = LatticeConfig(2, 2)
G1 = LAT.e(1)
G2 = LAT.delta(1) - LAT.e(2)

# (class, two keys, repr of {key1: 1/2, key2: -3})
CASES = [
    (
        LatticeFockState,
        (G1, ((0, 1),)),
        (G2, ()),
        "LatticeFockState<-3 * e^LatticeVector<-1*e2 +1*delta1> (x) 1"
        " + 1/2 * e^LatticeVector<+1*e1> (x) ((0, 1),)>",
    ),
    (
        BosonState,
        (((1, -1),), ()),
        ((), ((2, -3),)),
        "BosonState<-3 * phi[] phi*[(2, -3)] |0> + 1/2 * phi[(1, -1)] phi*[] |0>>",
    ),
    (
        TensorState,
        ((G1, ((0, 1),)), (((1, -1),), ())),
        ((G2, ()), ((), ((2, -3),))),
        "TensorState<-3 * e^LatticeVector<-1*e2 +1*delta1>(x)1(x)phi[]phi*[(2, -3)]"
        " + 1/2 * e^LatticeVector<+1*e1>(x)((0, 1),)(x)phi[(1, -1)]phi*[]>",
    ),
    (GLElement, (1, 2), (2, 1), "GLElement<1/2*T[1,2] + -3*T[2,1]>"),
    (
        ToroidalElement,
        ("T", 1, 2, (0, 1)),
        ("K", 1, (0, 1)),
        "ToroidalElement<-3*t^[0, 1]K1 + 1/2*T[1,2]t^[0, 1]>",
    ),
]
CLASSES = [case[0] for case in CASES]


@pytest.mark.parametrize("cls, k1, k2, text", CASES, ids=[c.__name__ for c in CLASSES])
def test_combination_base(cls, k1, k2, text):
    # construction merges duplicate keys and drops zeros
    x = cls([(k1, 1), (k2, 2), (k1, Fraction(-1, 2)), (k2, -2)])
    assert x.terms == {k1: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in x.terms.values())
    assert cls({k1: 0}).is_zero() and cls() == cls.zero()

    x = cls({k1: Fraction(1, 2), k2: -3})
    assert (x - x).is_zero() and (0 * x).is_zero() and (x * 0).is_zero()
    assert type(x - x) is cls and type(2 * x) is cls and type(x + x) is cls
    assert 2 * x == x + x == x * 2
    assert hash(x + x) == hash(2 * x)
    assert len({x, cls({k2: -3, k1: Fraction(1, 2)})}) == 1
    assert repr(x) == text
    assert repr(cls()) == f"{cls.__name__}<0>"

    # equal term dicts in different classes are different objects
    for other in CLASSES:
        if other is not cls:
            assert cls() != other()
            assert cls({(1, 2): 1}) != other({(1, 2): 1})
    assert cls({(1, 2): 1}) == cls({(1, 2): 1})



@pytest.mark.parametrize("cls, k1, k2, text", CASES, ids=[c.__name__ for c in CLASSES])
def test_accumulate_in_place(cls, k1, k2, text):
    half, three = Fraction(1, 2), Fraction(3)
    out = {k1: half}
    # a zero item is not stored, a key that cancels is deleted
    assert accumulate(out, [(k2, Fraction(0)), (k1, -half)]) is out
    assert out == {}
    accumulate(out, [(k2, three), (k1, half), (k2, Fraction(0))])
    assert out == {k2: three, k1: half}

    s = cls._sum([(k1, half), (k2, three), (k2, -three), (k1, half), (k2, Fraction(0))])
    assert type(s) is cls and s.terms == {k1: Fraction(1)}
    assert cls._sum(iter(())).is_zero()

    # neither operand of + or - is written into
    x, y = cls({k1: half, k2: -3}), cls({k1: -half})
    xt, yt = dict(x.terms), dict(y.terms)
    assert (x + y).terms == {k2: -three}
    assert (x - y).terms == {k1: Fraction(1), k2: -three}
    assert (y - x).terms == {k1: Fraction(-1), k2: three}
    assert (x - x).is_zero() and (x + y) is not x
    assert x.terms == xt and y.terms == yt

_FRACS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 3), _FRACS), st.lists(st.tuples(st.integers(0, 3), _FRACS)),
       st.booleans())
@example({0: Fraction(1, 3)}, [(0, Fraction(-1, 3))], False)  # a key that cancels
@example({0: Fraction(1, 3)}, [(0, Fraction(1, 3))], True)  # the same, subtracted
@example({0: Fraction(1, 3)}, [(0, Fraction(-2, 3))], False)  # opposite sign, no cancelling
@example({0: Fraction(1, 3)}, [(0, Fraction(-1, 3))], True)
@example({0: Fraction(1, 2)}, [(0, Fraction(-1, 3)), (0, Fraction(-1, 6))], False)  # 1/2 - 1/3 - 1/6
@example({0: Fraction(1, 2)}, [(0, Fraction(1, 3)), (1, Fraction(0)), (0, Fraction(1, 6))], True)
@example({0: Fraction(2)}, [(0, -2)], False)  # an int item against a Fraction
def test_accumulate_against_fraction_sums(start, items, negate):
    # the sum of each key as Fractions, with the keys whose sum is 0 left out
    start = {k: c for k, c in start.items() if c}
    expect = dict(start)
    if negate:  # a difference is the sum of the negated items
        items = [(k, -c) for k, c in items]
    for k, c in items:
        expect[k] = expect.get(k, 0) + c
    expect = {k: c for k, c in expect.items() if c}
    out = dict(start)
    assert accumulate(out, items) is out
    assert out == expect
    assert all(c != 0 for c in out.values())


@pytest.mark.parametrize("cls, k1, k2, text", CASES, ids=[c.__name__ for c in CLASSES])
def test_float_coefficients_rejected(cls, k1, k2, text):
    # a float has no exact rational meaning; 0.1 would be 3602879701896397/2**55
    with pytest.raises(TypeError):
        cls([(k1, 0.1)])
    with pytest.raises(TypeError):
        0.5 * cls({k1: 1})
    assert cls([(k1, "1/10")]).terms == {k1: Fraction(1, 10)}


def test_float_coefficients_rejected_by_basis_constructors():
    for build in (lambda: GLElement.symbol(1, 2, 0.1), lambda: ToroidalElement.t(1, 2, (0, 1), 0.1),
                  lambda: ToroidalElement.k(2, (1, 1), 0.1), lambda: BosonState.vacuum(0.1),
                  lambda: LatticeFockState.basis(G1, coeff=0.1),
                  lambda: TensorState.basis(G1, coeff=0.1)):
        with pytest.raises(TypeError):
            build()
    assert GLElement.symbol(1, 2, Fraction(1, 10)).terms == {(1, 2): Fraction(1, 10)}


def test_sorted_terms_order():
    d1 = LAT.dgen(1)
    lat_keys = [(G1, ((0, 1),)), (d1, ()), (G1, ()), (G2, ((0, 2),))]
    s = LatticeFockState({k: 1 for k in lat_keys})
    # gamma.e, then gamma.delta, then gamma.d, then the monomial
    assert [k for k, _ in s.sorted_terms()] == [
        (G2, ((0, 2),)),
        (d1, ()),
        (G1, ()),
        (G1, ((0, 1),)),
    ]

    bos_keys = [(((1, -1),), ()), ((), ((2, -1),)), ((), ())]
    ts = TensorState({(lk, bk): 1 for lk in lat_keys[:2] for bk in bos_keys})
    # the lattice key first, then the phi and phi* multisets
    assert [k for k, _ in ts.sorted_terms()] == [
        ((d1, ()), ((), ())),
        ((d1, ()), ((), ((2, -1),))),
        ((d1, ()), (((1, -1),), ())),
        ((G1, ((0, 1),)), ((), ())),
        ((G1, ((0, 1),)), ((), ((2, -1),))),
        ((G1, ((0, 1),)), (((1, -1),), ())),
    ]
