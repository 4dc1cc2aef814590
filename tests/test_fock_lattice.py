import random
from fractions import Fraction
from math import gcd

import pytest

from supertoroidal.lattice import LatticeConfig, LatticeVector, basis_support, bilinear
from supertoroidal.fock_lattice import (
    LatticeFockState,
    _creation_level,
    _exp_annihilation,
    current_upper_bound,
    effective_mode_bound,
    group_multiply,
    heisenberg_apply,
    normal_ordered_pair_sum,
    vanishing_bound,
    vertex_mode_apply,
    vertex_product_sum,
)

from oracles import (
    _ann_level,
    _creation_series,
    naive_heisenberg,
    oracle_vertex_modes,
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
        mono = next(iter(random_state(rng, nterms=1, max_deg=4).terms))[1]
        levels = _exp_annihilation(a, mono)
        for d in range(sum(n for _, n in mono) + 1):
            expect = _ann_level(a, d, LatticeFockState.basis(zero, mono)).terms
            den, monos = levels.get(d, (1, ()))
            assert gcd(den, *(n for _, n in monos)) == 1
            assert {(zero, mo): Fraction(n, den) for mo, n in monos} == expect, (a, mono, d)


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


# --- mode sums


def test_product_sum_against_unclipped_reference():
    rng = random.Random(8)
    for _ in range(25):
        s = random_state(rng, max_deg=2)
        a = rng.choice([v for v in small_q_vectors(CFG) if not v.is_zero() and v.in_gamma()])
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
        a = rng.choice([v for v in small_q_vectors(CFG) if v.in_gamma()])
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
