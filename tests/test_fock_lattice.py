import gc
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supertoroidal.lattice import (LatticeConfig, LatticeVector, basis_support, bilinear,
                                   cocycle, pair_with_basis)
from supertoroidal.verifier import FAMILIES, CheckConfig, gen_state, run
from supertoroidal import serialize as ser
from supertoroidal import fock_lattice
from supertoroidal.combination import Sink, accumulate
from supertoroidal.representation import SOp
from supertoroidal.fock_lattice import (
    LatticeFockState,
    _creation_level,
    _exp_annihilation,
    _grouping,
    _mode_depth,
    _paired,
    current_upper_bound,
    effective_mode_bound,
    group_multiply,
    heisenberg_apply,
    normal_ordered_pair_sum,
    vanishing_bound,
    vertex_mode_apply,
    vertex_modes,
    vertex_product_sum,
)

from oracles import (
    _ann_level,
    _creation_series,
    in_gamma,
    naive_heisenberg,
    oracle_vertex_modes,
    reference_creation_level,
    reference_vertex_mode_apply,
)

CFG = LatticeConfig(3, 2)
VAC = LatticeFockState.vacuum(CFG)


def random_state(rng, cfg=CFG, nterms=2, max_deg=3, box=2):
    terms = {}
    for _ in range(nterms):
        gamma = LatticeVector(
            tuple(rng.randint(-box, box) for _ in range(cfg.M)),
            tuple(rng.randint(-box, box) for _ in range(cfg.q - 1)),
            tuple(rng.randint(-box, box) for _ in range(cfg.q - 1)),
        )
        mono = []
        budget = max_deg
        while budget and rng.random() < 0.7:
            n = rng.randint(1, budget)
            mono.append((rng.randrange(cfg.rank), n))
            budget -= n
        key = (gamma, tuple(sorted(mono)))
        terms[key] = terms.get(key, 0) + Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    s = LatticeFockState(terms)
    return s if not s.is_zero() else LatticeFockState.basis(cfg.zero())


def small_q_vectors(cfg):
    out = [cfg.zero(), cfg.delta_sum((1,)), cfg.delta_sum((-2,))]
    for i in range(1, cfg.M + 1):
        out.append(cfg.e(i))
        out.append(-cfg.e(i))
    for i in range(1, cfg.M + 1):
        for j in range(1, cfg.M + 1):
            if i != j:
                out.append(cfg.root(i, j))
    out.append(cfg.e(1) + cfg.delta_sum((1,)))
    out.append(cfg.root(1, 2) + cfg.delta_sum((-1,)))
    return out


# --- Heisenberg action


def test_heisenberg_examples():
    s = LatticeFockState.basis(CFG.e(1))
    assert heisenberg_apply(CFG.e(1), 0, s) == s
    assert heisenberg_apply(CFG.e(1), 2, VAC).is_zero()
    two = LatticeFockState.basis(CFG.zero(), ((0, 1), (0, 1)))
    assert heisenberg_apply(CFG.e(1), 1, two) == 2 * LatticeFockState.basis(CFG.zero(), ((0, 1),))


def test_heisenberg_against_leibniz_oracle():
    rng = random.Random(5)
    vectors = small_q_vectors(CFG) + [CFG.dgen(1), CFG.e(2) - CFG.dgen(1)]
    for _ in range(150):
        s = random_state(rng)
        a = rng.choice(vectors)
        m = rng.randint(-3, 3)
        assert heisenberg_apply(a, m, s) == naive_heisenberg(a, m, s)


def test_heisenberg_commutation_relation():
    # [a(m), b(n)] = m (a, b) delta_{m+n,0} on states
    rng = random.Random(9)
    vectors = small_q_vectors(CFG) + [CFG.dgen(1)]
    for _ in range(80):
        s = random_state(rng)
        a, b = rng.choice(vectors), rng.choice(vectors)
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = heisenberg_apply(a, m, heisenberg_apply(b, n, s)) - heisenberg_apply(
            b, n, heisenberg_apply(a, m, s)
        )
        rhs = (m * bilinear(a, b) if m + n == 0 else 0) * s
        assert lhs == rhs, (a, b, m, n)


# --- group algebra action


def test_group_multiply_examples():
    assert group_multiply(CFG.e(2), VAC) == LatticeFockState.basis(CFG.e(2))
    assert group_multiply(CFG.e(2), LatticeFockState.basis(CFG.e(1))) == -1 * LatticeFockState.basis(
        CFG.e(1) + CFG.e(2)
    )
    assert group_multiply(CFG.delta(1), LatticeFockState.basis(CFG.e(1))) == LatticeFockState.basis(
        CFG.e(1) + CFG.delta(1)
    )


def test_group_multiply_twisted_associativity():
    # e^a (e^b s) = F(a,b) e^{a+b} s
    rng = random.Random(3)
    vecs = small_q_vectors(CFG)
    from supertoroidal.lattice import cocycle

    for _ in range(40):
        s = random_state(rng)
        a, b = rng.choice(vecs), rng.choice(vecs)
        lhs = group_multiply(a, group_multiply(b, s))
        rhs = cocycle(a, b) * group_multiply(a + b, s)
        assert lhs == rhs


# --- vertex modes


def test_vertex_mode_frozen_examples():
    a = CFG.root(1, 2)
    assert vertex_mode_apply(a, -2, VAC) == LatticeFockState.basis(a)
    assert vertex_mode_apply(a, 0, VAC).is_zero()
    dm = CFG.delta_sum((3,))
    assert vertex_mode_apply(dm, 0, VAC) == LatticeFockState.basis(dm)
    # X_{-2}(a) vac = e^a (x) (e1(-1) - e2(-1))
    expect = LatticeFockState({(a, ((0, 1),)): Fraction(1), (a, ((1, 1),)): Fraction(-1)})
    assert vertex_mode_apply(a, -4, VAC) == expect
    # annihilating case: X_0(a) kills e1(-1) into -e^a
    s = LatticeFockState.basis(CFG.zero(), ((0, 1),))
    assert vertex_mode_apply(a, 0, s) == -1 * LatticeFockState.basis(a)


def test_vertex_mode_parity_mismatch_rejected():
    with pytest.raises(ValueError):
        vertex_mode_apply(CFG.e(1), 0, VAC)
    with pytest.raises(ValueError):
        vertex_mode_apply(CFG.root(1, 2), 1, VAC)
    with pytest.raises(ValueError):
        vertex_mode_apply(CFG.dgen(1), 0, VAC)


def test_vertex_modes_against_series_oracle():
    rng = random.Random(11)
    for trial in range(60):
        s = random_state(rng, nterms=rng.randint(1, 2), max_deg=3)
        a = rng.choice(small_q_vectors(CFG))
        par = bilinear(a, a) % 2
        klo = -6 + par
        khi = int(max(vanishing_bound(a, s), klo)) + 2
        dense = oracle_vertex_modes(a, s, klo, khi)
        for k in range(klo, khi + 1):
            if (k - par) % 2:
                continue
            assert vertex_mode_apply(a, k, s) == dense[k], (a, k, s)


def test_vertex_modes_per_gamma_against_series_oracle():
    # several terms share each of two or three gammas, each gamma with its own input
    # denominator, so the shift and the sign computed once per gamma serve many terms
    rng = random.Random(13)
    vectors = [v for v in small_q_vectors(CFG) if not v.is_zero()]
    mixed_signs = mixed_shifts = multi_gamma = 0
    for trial in range(36):
        gammas = {next(iter(random_state(rng, nterms=1).terms))[0]
                  for _ in range(rng.randint(2, 3))}
        terms = {}
        for gamma, den in zip(gammas, rng.sample((2, 3, 5, 7), len(gammas))):
            for _ in range(3):
                (_, mono), = random_state(rng, nterms=1, max_deg=2).terms
                terms[(gamma, mono)] = Fraction(rng.choice((-3, -1, 1, 2)), den)
        s = LatticeFockState(terms)
        a = vectors[trial % len(vectors)]
        mixed_signs += len({cocycle(a, g) for g in gammas}) > 1
        mixed_shifts += len({bilinear(a, g) for g in gammas}) > 1
        par = bilinear(a, a) % 2
        klo = -4 + par
        khi = int(max(vanishing_bound(a, s), klo))
        dense = oracle_vertex_modes(a, s, klo, khi)
        for k in range(klo, khi + 1, 2):
            img = vertex_mode_apply(a, k, s)
            assert img == dense[k], (a, k, s)
            multi_gamma += len({g for g, _ in img.terms}) > 1
    assert min(mixed_signs, mixed_shifts) >= 10 and multi_gamma >= 30, \
        (mixed_signs, mixed_shifts, multi_gamma)


def test_vanishing_bound_examples_and_soundness():
    a = CFG.root(1, 2)
    assert vanishing_bound(a, VAC) == -2
    assert vanishing_bound(CFG.delta_sum((1,)), VAC) == 0
    assert vanishing_bound(CFG.e(1), VAC) == -1
    assert vanishing_bound(a, LatticeFockState.zero()) == float("-inf")
    rng = random.Random(21)
    for _ in range(40):
        s = random_state(rng)
        a = rng.choice(small_q_vectors(CFG))
        bound = vanishing_bound(a, s)
        par = bilinear(a, a) % 2
        for k in range(int(bound) + 1, int(bound) + 7):
            if (k - par) % 2 == 0:
                assert vertex_mode_apply(a, k, s).is_zero(), (a, k)


def test_effective_bound_is_sound_and_tighter():
    rng = random.Random(33)
    for _ in range(40):
        s = random_state(rng)
        a = rng.choice(small_q_vectors(CFG))
        eff = effective_mode_bound(a, s)
        assert eff <= vanishing_bound(a, s)
        par = bilinear(a, a) % 2
        for k in range(int(eff) + 1, int(eff) + 7):
            if (k - par) % 2 == 0:
                assert vertex_mode_apply(a, k, s).is_zero(), (a, k)


def test_vertex_mode_parity_shift():
    rng = random.Random(2)
    for _ in range(20):
        s = random_state(rng, nterms=1)
        par_s = s.parity()
        a = rng.choice(small_q_vectors(CFG))
        k = int(vanishing_bound(a, s)) - rng.randint(0, 4)
        if (k - bilinear(a, a)) % 2:
            k -= 1
        img = vertex_mode_apply(a, k, s)
        if not img.is_zero():
            from supertoroidal.lattice import parity

            assert img.parity() == (par_s + parity(a)) % 2


def test_vertex_mode_linearity():
    rng = random.Random(17)
    for _ in range(20):
        s1, s2 = random_state(rng), random_state(rng)
        a = rng.choice(small_q_vectors(CFG))
        par = bilinear(a, a) % 2
        k = -2 + par
        c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        lhs = vertex_mode_apply(a, k, s1 + c * s2)
        rhs = vertex_mode_apply(a, k, s1) + c * vertex_mode_apply(a, k, s2)
        assert lhs == rhs


# --- the integer kernel against the Fraction-per-term reference


def assert_lowest_terms(s):
    for c in s.terms.values():
        assert type(c) is Fraction and c != 0 and gcd(c.numerator, c.denominator) == 1, c


def test_cached_levels_against_series_oracles():
    rng = random.Random(23)
    zero = CFG.zero()
    for a in small_q_vectors(CFG):
        series = _creation_series(a, LatticeFockState.basis(zero), 6)
        for c in range(7):
            den, created = _creation_level(a, c)
            assert gcd(den, *(n for _, n in created)) == 1  # D is the lcm of the denominators
            expect = series[c].terms if c in series else {}
            assert {(zero, mo): Fraction(n, den) for mo, n in created} == expect, (a, c)
        # the fixed monomial repeats factors, so the binomial expansion runs past k = 1
        for mono in (next(iter(random_state(rng, nterms=1, max_deg=4).terms))[1],
                     ((0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (4, 1))):
            levels = _exp_annihilation(a, mono)
            for d in range(sum(n for _, n in mono) + 1):
                expect = _ann_level(a, d, LatticeFockState.basis(zero, mono)).terms
                monos = levels.get(d, ())
                assert all(type(n) is int and n != 0 for _, n in monos)
                assert {(zero, mo): Fraction(n) for mo, n in monos} == expect, (a, mono, d)


_COORD = st.integers(-2, 2)
_Q_VECTORS = st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda shape: st.builds(LatticeVector, st.tuples(*[_COORD] * shape[0]),
                            st.tuples(*[_COORD] * (shape[1] - 1)), st.just((0,) * (shape[1] - 1))))


@settings(max_examples=60, deadline=None)
@given(_Q_VECTORS, st.integers(0, 8))
@example(LatticeConfig(4, 3).zero(), 0)
@example(LatticeConfig(4, 3).zero(), 5)
@example(LatticeVector((2, -2, 1, -1), (2, -1), (0, 0)), 6)
def test_creation_level_closed_form_against_recurrence_and_series(a, c):
    den, created = _creation_level(a, c)
    assert (den, created) == reference_creation_level(a, c)
    # lowest terms over D, and the monomials sorted inside and strictly increasing
    monos = [mo for mo, _ in created]
    assert den >= 1 and gcd(den, *(n for _, n in created)) == 1
    assert all(type(n) is int and n != 0 for _, n in created)
    assert all(list(mo) == sorted(mo) for mo in monos)
    assert all(x < y for x, y in zip(monos, monos[1:]))
    zero = a * 0
    series = _creation_series(a, LatticeFockState.basis(zero), c)
    expect = series[c].terms if c in series else {}
    assert {(zero, mo): Fraction(n, den) for mo, n in created} == expect, (a, c)


def test_cold_levels_a_check_and_a_request_leave_no_cyclic_garbage():
    # everything they build is freed by reference counting, so with the cyclic
    # collector off, a collection afterwards finds nothing
    cfg = CheckConfig(M=3, N=2, q=2, max_degree=6, exponent_box=2, samples=20, seed=6)
    lat = LatticeConfig(3, 2)
    text = json.dumps({"op": ser.operator_to_obj(SOp(1, 4, (1,), -1)),
                       "state": ser.tensor_state_to_obj(gen_state(cfg, 0))})
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for a, c in ((lat.root(1, 2), 6), (lat.delta(1) + lat.dgen(1), 4), (lat.e(1), 7)):
            _creation_level.__wrapped__(a, c)
        thm46 = FAMILIES["thm46"]
        _, payload = next(iter(thm46["generate"](cfg, "ST1")))
        ok, *_ = thm46["evaluate"](cfg, "ST1", payload)
        request = json.loads(text)
        op = ser.operator_from_obj(request["op"])
        response = ser.dumps(ser.tensor_state_to_obj(op.apply(
            ser.tensor_state_from_obj(request["state"]))))
        assert ok and response
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_integer_kernel_matches_fraction_reference():
    # coprime input denominators make the common denominator a real lcm
    rng = random.Random(29)
    vectors = small_q_vectors(CFG)
    parities = set()
    for trial in range(60):
        keys = random_state(rng, nterms=rng.randint(1, 4)).terms
        s = LatticeFockState({key: Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.choice((7, 9, 11, 13)))
                              for key in keys})
        a = vectors[trial % len(vectors)]
        par = bilinear(a, a) % 2
        for k in range(-6 + par, int(max(vanishing_bound(a, s), -6)) + 1, 2):
            img = vertex_mode_apply(a, k, s)
            assert img == reference_vertex_mode_apply(a, k, s), (a, k, s)
            assert_lowest_terms(img)
            if not img.is_zero():
                parities.add(par)
    assert parities == {0, 1}


def test_integer_kernel_cancels_exactly():
    # images meet only on one gamma and one degree, so t1 and t2 share both;
    # c in t1 + c t2 cancels the two images on their first shared key
    rng = random.Random(41)
    vectors = [v for v in small_q_vectors(CFG) if not v.is_zero()]

    def monomial(supp, deg):
        out = []
        while deg:
            n = rng.randint(1, deg)
            deg -= n
            out.append((rng.choice(supp)[0], n))
        return tuple(sorted(out))

    cancelled = 0
    for _ in range(60):
        a = rng.choice(vectors)
        (gamma, _), = random_state(rng, nterms=1).terms
        deg = rng.randint(2, 3)
        t1 = LatticeFockState.basis(gamma, monomial(basis_support(a), deg), Fraction(rng.choice((-2, 1, 3)), 7))
        t2 = LatticeFockState.basis(gamma, monomial(basis_support(a), deg), Fraction(1, 11))
        k = int(vanishing_bound(a, t1)) - 2 * rng.randint(0, 2)
        i1 = reference_vertex_mode_apply(a, k, t1).terms
        i2 = reference_vertex_mode_apply(a, k, t2).terms
        shared = sorted(set(i1) & set(i2), key=lambda key: LatticeFockState._sort_key((key, 0)))
        if t1.terms.keys() == t2.terms.keys() or not shared:
            continue
        key = shared[0]
        s = t1 + (-i1[key] / i2[key]) * t2
        img = vertex_mode_apply(a, k, s)
        assert img == reference_vertex_mode_apply(a, k, s), (a, k, s)
        assert key not in img.terms
        assert_lowest_terms(img)
        cancelled += not img.is_zero()
    assert cancelled >= 5


def test_kernel_sums_colliding_annihilations_per_level():
    # every key is one shared base times a monomial of degree n in factors a
    # contracts, all on one gamma: at level n each annihilates to the base,
    # so one (gamma, creation level) sum collects a row per key
    rng = random.Random(47)
    vectors = [v for v in small_q_vectors(CFG) if not v.is_zero()]
    collided = 0
    for trial in range(48):
        a = vectors[trial % len(vectors)]
        paired = [b for b in range(CFG.rank) if pair_with_basis(a, b)]
        (gamma, _), = random_state(rng, nterms=1).terms
        base = tuple((rng.randrange(CFG.rank), rng.randint(1, 2)) for _ in range(rng.randint(0, 2)))
        n = rng.randint(1, 3)
        terms = {}
        for den in (7, 9, 11, 13):
            mono, deg = list(base), n
            while deg:
                m = rng.randint(1, deg)
                deg -= m
                mono.append((rng.choice(paired), m))
            key = (gamma, tuple(sorted(mono)))
            terms[key] = terms.get(key, 0) + Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), den)
        s = LatticeFockState(terms)
        seen = [(d, mo) for (_, mono) in s.terms
                for d, monos in _exp_annihilation(a, mono).items() for mo, _ in monos]
        collided += len(seen) > len(set(seen))
        par = bilinear(a, a) % 2
        for k in range(-6 + par, int(max(vanishing_bound(a, s), -6)) + 1, 2):
            img = vertex_mode_apply(a, k, s)
            assert img == reference_vertex_mode_apply(a, k, s), (a, k, s)
            assert_lowest_terms(img)
    assert collided >= 24


def test_kernel_skips_a_level_that_cancels():
    # c0 e0(-1) + c1 e1(-1) + c2 delta(-1) on one gamma: at level 1 each key
    # annihilates to the empty monomial, and c2 makes that sum exactly 0
    a = CFG.root(1, 2) + CFG.delta_sum((-1,))
    gamma = CFG.e(3)
    monos = [((b, 1),) for b in range(CFG.rank) if pair_with_basis(a, b)]
    assert len(monos) == 3
    weights = []
    for mono in monos:
        level = _exp_annihilation(a, mono)[1]
        assert [mo for mo, _ in level] == [()]
        weights.append(Fraction(level[0][1]))
    coeffs = [Fraction(1, 7), Fraction(1, 9)]
    coeffs.append(-(coeffs[0] * weights[0] + coeffs[1] * weights[1]) / weights[2])
    assert coeffs[2].denominator == 63
    assert sum(c * w for c, w in zip(coeffs, weights)) == 0
    s = LatticeFockState({(gamma, mono): c for mono, c in zip(monos, coeffs)})
    live = 0
    for k in range(-8, int(vanishing_bound(a, s)) + 1, 2):
        img = vertex_mode_apply(a, k, s)
        assert img == reference_vertex_mode_apply(a, k, s), k
        assert_lowest_terms(img)
        live += 1 - bilinear(a, gamma) - _mode_depth(a, k) >= 0 and not img.is_zero()
    assert live >= 3


_GAMMAS = st.builds(LatticeVector, st.tuples(*[_COORD] * CFG.M), st.tuples(_COORD),
                    st.tuples(_COORD))
_MONOMIALS = st.lists(st.tuples(st.integers(0, CFG.rank - 1), st.integers(1, 3)),
                      max_size=3).map(lambda fs: tuple(sorted(fs)))
_COEFFS = st.builds(Fraction, st.sampled_from((-5, -2, -1, 1, 3, 4)),
                    st.sampled_from((1, 2, 3, 7, 9)))


@st.composite
def _window_cases(draw):
    """(a, a window of doubled indices, a state of several gammas and mixed denominators)."""
    a = draw(st.sampled_from(small_q_vectors(CFG)))
    gammas = draw(st.lists(_GAMMAS, min_size=1, max_size=3, unique=True))
    terms = draw(st.lists(st.tuples(st.sampled_from(gammas), _MONOMIALS, _COEFFS),
                          min_size=1, max_size=6))
    s = LatticeFockState([((g, mo), c) for g, mo, c in terms])
    par = bilinear(a, a) % 2
    idxs = draw(st.lists(st.sampled_from(range(-8 + par, 9, 2)), max_size=6, unique=True))
    if not s.is_zero() and draw(st.booleans()):
        idxs.append(int(vanishing_bound(a, s)) + 2)  # beyond the bound: a zero image
    return a, idxs, s


@settings(max_examples=80, deadline=None)
@given(_window_cases())
@example((CFG.e(1), [], LatticeFockState.basis(CFG.e(2), ((0, 1),))))
@example((CFG.root(1, 2), [-4, -2, 0, 2, 40], LatticeFockState(
    {(CFG.e(1), ((0, 1),)): Fraction(1, 2), (CFG.e(3), ((1, 2),)): Fraction(-3, 7),
     (CFG.e(3), ()): Fraction(4, 9)})))
@example((CFG.zero(), [-2, 0, 2], LatticeFockState(  # X_0(0) is the identity
    {(CFG.e(1), ((0, 1), (3, 2))): Fraction(1, 2), (CFG.e(3), ()): Fraction(-3, 7)})))
def test_vertex_modes_window_matches_reference_index_by_index(case):
    # one pass over s serves the window; each index must still equal the
    # one-Fraction-at-a-time kernel, zero images and the empty window included
    a, idxs, s = case
    images = vertex_modes(a, idxs, s)
    assert list(images) == list(dict.fromkeys(idxs))
    for idx, img in images.items():
        assert img == reference_vertex_mode_apply(a, idx, s), (a, idx, s)
        assert_lowest_terms(img)
        if idx > vanishing_bound(a, s):
            assert img.is_zero()


def test_kernel_looks_up_exp_t_plus_once_per_contracted_part():
    # every key's contracted part is e1(-1) e1(-1) e1(-2); the carried factors
    # (none, repeated, or on other gammas) pass through, so one lookup misses
    a = CFG.e(1)
    assert _paired(a) == {0}
    core = ((0, 1), (0, 1), (0, 2))
    carried = [(), ((1, 1),), ((1, 1), (1, 1)), ((2, 3), (4, 1)), ((1, 2), (3, 1), (4, 1))]
    terms = {}
    for k, extra in enumerate(carried):
        for gamma in (CFG.zero(), CFG.e(2) - CFG.e(3)):
            terms[(gamma, tuple(sorted(core + extra)))] = Fraction(k + 1, 1 + k % 3)
    s = LatticeFockState(terms)
    _exp_annihilation.cache_clear()
    images = vertex_modes(a, range(-7, 9, 2), s)
    info = _exp_annihilation.cache_info()
    assert (info.misses, info.hits) == (1, len(terms) - 1)
    assert any(not img.is_zero() for img in images.values())
    for idx, img in images.items():
        assert img == reference_vertex_mode_apply(a, idx, s), idx


def test_kernel_skips_a_tag_that_lists_no_index():
    # tag "b" lists no index, so its monomial, which no other tag holds, is never
    # looked up in exp T_+, and the images are those of the sink without that tag
    a, gamma, idxs = CFG.e(1), CFG.e(2), (-3, 1, 3)
    u, v = ((0, 1),), ((0, 2), (0, 2))
    listed = {"a": {1: (("x", 1),), -3: (("x", 2), ("y", -1))}}
    src = Sink(2, {(gamma, "a"): {u: 3}, (gamma, "b"): {v: 1}})
    _exp_annihilation.cache_clear()
    images = {idx: Sink() for idx in idxs}
    vertex_modes(a, idxs, src, images, 1, {**listed, "b": {}})
    info = _exp_annihilation.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    _exp_annihilation(a, v)
    assert _exp_annihilation.cache_info().misses == 2
    alone = {idx: Sink() for idx in idxs}
    vertex_modes(a, idxs, Sink(2, {(gamma, "a"): {u: 3}}), alone, 1, listed)
    assert images[-3].terms and images[1].terms
    assert {i: (s.den, s.terms) for i, s in images.items()} == {
        i: (s.den, s.terms) for i, s in alone.items()}


@st.composite
def _split_cases(draw):
    """(a, a window, a state whose monomials mix factors a contracts with factors it carries)."""
    a = draw(st.sampled_from(small_q_vectors(CFG)))
    paired = sorted(_paired(a))
    carried = [b for b in range(CFG.rank) if b not in paired]

    def factors(pool):
        # few kinds, so a factor repeats often
        if not pool:
            return st.just([])
        return st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)), max_size=3)

    gammas = draw(st.lists(_GAMMAS, min_size=1, max_size=2, unique=True))
    terms = draw(st.lists(st.tuples(st.sampled_from(gammas), factors(paired), factors(carried),
                                    _COEFFS), min_size=1, max_size=6))
    s = LatticeFockState([((g, tuple(sorted(mine + other))), c) for g, mine, other, c in terms])
    par = bilinear(a, a) % 2
    idxs = draw(st.lists(st.sampled_from(range(-8 + par, 9, 2)), min_size=1, max_size=5,
                         unique=True))
    return a, idxs, s


_MIXED = LatticeFockState({
    (CFG.e(2), ()): Fraction(1, 3),                                 # empty
    (CFG.e(2), ((1, 1), (1, 1), (3, 2))): Fraction(-2),             # all carried, repeated
    (CFG.e(2), ((0, 1), (0, 1), (0, 2))): Fraction(5, 7),           # all contracted, repeated
    (CFG.e(2), ((0, 1), (0, 1), (1, 1), (1, 1))): Fraction(3, 2),   # repeated on both sides
    (CFG.zero(), ((0, 2), (4, 1))): Fraction(-1, 9),
})


@settings(max_examples=80, deadline=None)
@given(_split_cases())
@example((CFG.e(1), [-5, -3, -1, 1, 3], _MIXED))
@example((CFG.root(1, 2) + CFG.delta_sum((-1,)), [-4, -2, 0, 2, 4], _MIXED))
@example((CFG.zero(), [-2, 0, 2], _MIXED))
def test_kernel_with_carried_factors_matches_whole_monomial_reference(case):
    # the kernel expands exp T_+ on each key's contracted part and prefixes the
    # carried factors; the reference expands it on the whole monomial
    a, idxs, s = case
    for idx, img in vertex_modes(a, idxs, s).items():
        assert img == reference_vertex_mode_apply(a, idx, s), (a, idx, s)
        assert_lowest_terms(img)


def test_grouping_takes_met_bases_alone_and_free_bases_last():
    a = CFG.e(2) - CFG.e(3) + CFG.delta_sum((2,))  # support: e2, e3, delta1 (indices 1, 2, 3)
    e2, e3, d1 = (LatticeVector(*v) for v in (((0, 1, 0), (0,), (0,)), ((0, 0, -1), (0,), (0,)),
                                               ((0, 0, 0), (2,), (0,))))
    assert _grouping(a, frozenset({2})) == ((e3, True), (e2 + d1, False))
    assert _grouping(a, frozenset()) == ((a, False),)
    assert _grouping(a, frozenset({1, 2, 3})) == ((e2, True), (e3, True), (d1, True))
    # a = 0 has no support bases, but its one stage still applies the stage-0 lift:
    # X_0(0) is the identity and X_2(0) is 0
    zero = CFG.zero()
    assert _grouping(zero, frozenset()) == ((zero, False),)
    s = LatticeFockState({(CFG.e(1), ((0, 1), (0, 1))): Fraction(-3, 4),
                          (CFG.zero(), ((4, 2),)): Fraction(2)})
    assert vertex_modes(zero, (0, 2), s) == {0: s, 2: LatticeFockState.zero()}


@st.composite
def _staged_cases(draw):
    """(a of 2-4 support bases, a window reaching creation levels 2 and more, a state
    whose factors lie on none, some or all of a's support bases, repeated often)."""
    # at (M, q) = (3, 3) the flat basis is e1..e3, delta1, delta2, d1, d2
    support = draw(st.lists(st.sampled_from(range(5)), min_size=2, max_size=4, unique=True))
    coords = [0] * 7
    for b in support:
        coords[b] = draw(st.sampled_from((-2, -1, 1, 2)))
    a = LatticeVector(tuple(coords[:3]), tuple(coords[3:5]), (0, 0))
    on = draw(st.sampled_from(["none", "some", "all"]))
    met = {"none": [], "some": support[:1], "all": support}[on]
    pool = met + [b for b in range(7) if b not in support]
    kinds = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)), min_size=1,
                          max_size=3, unique=True))
    gammas = draw(st.lists(st.builds(LatticeVector, st.tuples(*[st.integers(-1, 1)] * 3),
                                     st.tuples(*[st.integers(-1, 1)] * 2),
                                     st.tuples(*[st.integers(-1, 1)] * 2)),
                           min_size=1, max_size=2, unique=True))
    terms = draw(st.lists(st.tuples(st.sampled_from(gammas),
                                    st.lists(st.sampled_from(kinds), max_size=4), _COEFFS),
                          min_size=1, max_size=5))
    s = LatticeFockState([((g, tuple(sorted(mono))), c) for g, mono, c in terms])
    par = bilinear(a, a) % 2
    hi = int(vanishing_bound(a, s)) if not s.is_zero() else par
    idxs = list(range(hi - 2 * draw(st.integers(3, 6)), hi + 1, 2))
    assert all(i % 2 == par for i in idxs)
    return a, idxs, s


_ON_SOME = LatticeFockState({  # e1 factors, repeated; e1 is met, e2 and delta1 are free
    (CFG.zero(), ((0, 1), (0, 1), (0, 2))): Fraction(1, 3),
    (CFG.zero(), ((0, 1), (4, 1), (4, 1))): Fraction(-2, 5),
    (CFG.e(3), ((0, 2), (2, 1))): Fraction(3),
})
_ON_ALL = LatticeFockState({  # e1 and e2 factors, each key with repeats
    (CFG.zero(), ((0, 1), (0, 1), (1, 2))): Fraction(1, 2),
    (CFG.zero(), ((0, 2), (1, 1), (1, 1))): Fraction(-1, 7),
    (CFG.zero(), ((1, 1), (1, 1), (1, 1), (1, 1))): Fraction(4),
})


@settings(max_examples=60, deadline=None)
@given(_staged_cases())
@example((CFG.e(1) + CFG.e(2) + CFG.delta_sum((1,)), list(range(-14, 3, 2)), _ON_SOME))
@example((CFG.root(1, 2), list(range(-14, 3, 2)), _ON_ALL))
@example((CFG.root(1, 2) - CFG.delta_sum((2,)), list(range(-12, 5, 2)),
          LatticeFockState({(CFG.e(3), ((2, 1), (2, 1), (4, 3))): Fraction(5, 3)})))
def test_staged_kernel_matches_whole_level_reference(case):
    # every (gamma, index) of a vector of several support bases goes through the
    # met bases one at a time and the free bases last; the reference multiplies
    # each annihilated monomial by whole creation levels of a
    a, idxs, s = case
    for idx, img in vertex_modes(a, idxs, s).items():
        assert img == reference_vertex_mode_apply(a, idx, s), (a, idx, s)
        assert_lowest_terms(img)


def test_staged_examples_reach_deep_levels_with_met_and_free_bases():
    # the fixed examples above take met bases before free ones, met bases alone,
    # and creation levels past 1 of the restricted vectors
    shapes, levels = set(), set()
    real = fock_lattice._creation_level

    def grouping(a, met):
        groups = _grouping(a, met)
        shapes.add(tuple(merged for _, merged in groups))
        return groups

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock_lattice, "_grouping", grouping)
        mp.setattr(fock_lattice, "_creation_level", lambda g, j: levels.add(j) or real(g, j))
        vertex_modes(CFG.e(1) + CFG.e(2) + CFG.delta_sum((1,)), range(-14, 3, 2), _ON_SOME)
        vertex_modes(CFG.root(1, 2), range(-14, 3, 2), _ON_ALL)
    assert {(True, False), (True, True)} <= shapes
    assert max(levels) >= 4


def _memos():
    """Every lru_cache that fock_lattice defines."""
    return [f for f in vars(fock_lattice).values()
            if hasattr(f, "cache_parameters") and f.__module__ == fock_lattice.__name__]


def test_every_memo_is_bounded():
    # the memos live as long as the process, so each one holds a finite number of entries
    memos = _memos()
    assert {f.__name__ for f in memos} >= {"_creation_level", "_exp_annihilation", "_shifted"}
    for f in memos:
        maxsize = f.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0, f.__name__


def test_images_hold_when_every_memo_is_cleared_mid_window():
    # a bounded memo may evict while a window is served; clearing every memo before each
    # creation-level lookup leaves every image equal to the reference
    memos = _memos()
    real = fock_lattice._creation_level
    cleared = []

    def level(g, j):
        for f in memos:
            f.cache_clear()
        cleared.append(j)
        return real(g, j)

    cases = ((CFG.e(1) + CFG.e(2) + CFG.delta_sum((1,)), range(-14, 3, 2), _ON_SOME),
             (CFG.root(1, 2), range(-14, 3, 2), _ON_ALL))
    for a, idxs, s in cases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock_lattice, "_creation_level", level)
            images = vertex_modes(a, idxs, s)
        for idx, img in images.items():
            assert img == reference_vertex_mode_apply(a, idx, s), (a, idx)
    assert len(cleared) > 20


def _images(kernel, a, idxs, s, scale, targets):
    """{idx: {((gamma, monomial), tag): Fraction}}: what one kernel call in integer form
    adds, each index into a Sink of its own, its (gamma, tag) groups read out term by
    term; no group may be left empty."""
    images = {idx: Sink() for idx in idxs}
    kernel(a, idxs, s, images, scale, targets)
    assert all(group for img in images.values() for group in img.terms.values())
    return {idx: {((gamma, mono), tag): Fraction(n, img.den)
                  for (gamma, tag), group in img.terms.items() for mono, n in group.items()}
            for idx, img in images.items()}


def _kernel_calls(cfg, families):
    """Every (a, window, state, scale, targets, images) of vertex_modes in one verifier
    run, the images filled apart from the run's own sinks; every mode sum reads its
    windows through fock_lattice's own name."""
    calls = []
    kernel = fock_lattice.vertex_modes

    def record(a, idxs, s, sink, scale=1, targets=None):
        idxs = list(idxs)
        images = _images(kernel, a, idxs, s, scale, targets)
        groups = {key: dict(group) for key, group in s.terms.items()}
        calls.append((a, idxs, Sink(s.den, groups), scale, targets, images))
        return kernel(a, idxs, s, sink, scale, targets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock_lattice, "vertex_modes", record)
        assert run(cfg, families=families)["all_pass"]
    return calls


def _reference_images(a, idxs, s, scale, targets):
    """{idx: {key: Fraction}}: what one kernel call in integer form adds, each tag's
    lattice state taken through reference_vertex_mode_apply and written as the
    kernel writes it, under its own tag or under each target that its tag lists."""
    states = {}
    for (gamma, tag), group in s.terms.items():
        for mono, n in group.items():
            states.setdefault(tag, {})[gamma, mono] = Fraction(n, s.den)
    images = {idx: {} for idx in idxs}
    for tag, terms in states.items():
        state = LatticeFockState(terms)
        for idx in idxs:
            outs = ((tag, 1),) if targets is None else targets[tag].get(idx, ())
            if outs:
                img = reference_vertex_mode_apply(a, idx, state).terms
                accumulate(images[idx], (((lk, t), c * scale * w)
                                         for lk, c in img.items() for t, w in outs))
    return images


@pytest.mark.parametrize("q, box", [(2, 2), (3, 1)])
def test_every_kernel_call_of_a_thm46_run_matches_the_reference(q, box):
    # each call of a small run at criterion 6's seed gives the images that the reference
    # gives, tag by tag, so a wrong stage of the grouping shows on the states a run
    # meets (at q = 3 a box of 2 spends seconds in ST4)
    cfg = CheckConfig(M=3, N=2, q=q, max_degree=6, exponent_box=box, samples=2, seed=6)
    calls = _kernel_calls(cfg, ("thm46",))
    staged = 0
    for a, idxs, s, scale, targets, images in calls:
        assert _reference_images(a, idxs, s, scale, targets) == images, (a, idxs)
        staged += len(basis_support(a)) > 1
    assert len(calls) > 150 and staged > 50


# --- mode sums


def test_product_sum_against_unclipped_reference():
    rng = random.Random(8)
    for _ in range(25):
        s = random_state(rng, max_deg=2)
        a = rng.choice([v for v in small_q_vectors(CFG) if not v.is_zero() and in_gamma(v)])
        mu = (rng.randint(-2, 2),)
        dm = CFG.delta_sum(mu)
        par = bilinear(a, a) % 2
        idx = 2 * rng.randint(-2, 2) + par
        fast = vertex_product_sum(a, dm, idx, s)
        hi = int(vanishing_bound(dm, s))
        lo = idx - int(effective_mode_bound(a, s))
        wide = LatticeFockState.zero()
        k = lo - 6 if (lo - 6) % 2 == 0 else lo - 5
        while k <= hi + 6:
            wide = wide + vertex_mode_apply(a, idx - k, vertex_mode_apply(dm, k, s))
            k += 2
        assert fast == wide


def test_product_sum_reproduces_shifted_vertex():
    # sum_k X_{idx-k}(a) X_k(dm) = X_idx(a + dm)
    rng = random.Random(4)
    for _ in range(25):
        s = random_state(rng, max_deg=2)
        a = rng.choice([v for v in small_q_vectors(CFG) if in_gamma(v)])
        mu = (rng.randint(-2, 2),)
        dm = CFG.delta_sum(mu)
        par = bilinear(a, a) % 2
        idx = 2 * rng.randint(-2, 2) + par
        assert vertex_product_sum(a, dm, idx, s) == vertex_mode_apply(a + dm, idx, s)


def test_normal_ordered_pair_sum_window_is_wide_enough():
    rng = random.Random(14)
    for _ in range(20):
        s = random_state(rng, max_deg=2)
        i = rng.randint(1, CFG.M)
        j = rng.randint(1, CFG.M)
        n = rng.randint(-2, 2)
        a, b = CFG.e(i), -CFG.e(j)
        fast = normal_ordered_pair_sum(a, b, n, s)
        ba = int(effective_mode_bound(a, s))
        bb = int(effective_mode_bound(b, s))
        wide = LatticeFockState.zero()
        for k in range(n - (bb + 1) // 2 - 5, max((n - 1) // 2, (ba - 1) // 2) + 6):
            i1, i2 = 2 * k + 1, 2 * (n - k) - 1
            if i1 <= i2:
                wide = wide + vertex_mode_apply(a, i1, vertex_mode_apply(b, i2, s))
            else:
                wide = wide - vertex_mode_apply(b, i2, vertex_mode_apply(a, i1, s))
        assert fast == wide
