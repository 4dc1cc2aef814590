import random
from fractions import Fraction
from itertools import permutations

import pytest

from supertoroidal.fock_boson import BosonState, depth, key_depth, phi_apply, phi_star_apply

VAC = BosonState.vacuum()


def random_boson(rng, N=2, max_modes=3):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        phi, phis = [], []
        for _ in range(rng.randint(0, max_modes)):
            mode = (rng.randint(1, N), -(2 * rng.randint(0, 2) + 1))
            (phi if rng.random() < 0.5 else phis).append(mode)
        key = (tuple(sorted(phi)), tuple(sorted(phis)))
        terms[key] = terms.get(key, 0) + Fraction(rng.choice((-2, -1, 1, 2)))
    s = BosonState(terms)
    return s if not s.is_zero() else VAC


def test_vacuum_laws():
    assert phi_apply(1, 1, VAC).is_zero()
    assert phi_star_apply(1, 1, VAC).is_zero()
    assert phi_apply(1, 3, VAC).is_zero()
    # boundary: r = 0 creates
    assert phi_apply(1, 0, VAC) == BosonState.basis(phi=((1, -1),))
    assert phi_star_apply(2, 0, VAC) == BosonState.basis(phi_star=((2, -1),))


def test_contraction_signs():
    created = phi_star_apply(1, 0, VAC)  # phi*_{-1/2}|0>
    assert phi_apply(1, 1, created) == -1 * VAC
    created = phi_apply(1, 0, VAC)
    assert phi_star_apply(1, 1, created) == VAC
    assert phi_star_apply(2, 1, created).is_zero()


def test_flavor_validation():
    with pytest.raises(ValueError):
        phi_apply(0, 0, VAC)
    with pytest.raises(ValueError):
        phi_star_apply(0, 0, VAC)


def test_relations_31_exhaustive_box():
    # all three relation families for flavors <= 2 and |r|, |s| <= 2
    rng = random.Random(1)
    states = [VAC] + [random_boson(rng) for _ in range(4)]
    for t in states:
        for i in (1, 2):
            for j in (1, 2):
                for r in range(-2, 3):
                    for s_idx in range(-2, 3):
                        c1 = phi_apply(i, r, phi_apply(j, s_idx, t)) - phi_apply(
                            j, s_idx, phi_apply(i, r, t)
                        )
                        assert c1.is_zero()
                        c2 = phi_star_apply(i, r, phi_star_apply(j, s_idx, t)) - phi_star_apply(
                            j, s_idx, phi_star_apply(i, r, t)
                        )
                        assert c2.is_zero()
                        c3 = phi_apply(i, r, phi_star_apply(j, s_idx, t)) - phi_star_apply(
                            j, s_idx, phi_apply(i, r, t)
                        )
                        expected = (-1 if (i == j and r + s_idx == 1) else 0) * t
                        assert c3 == expected, (i, j, r, s_idx)


def test_creation_order_irrelevant():
    modes = [(1, 0), (2, -1), (1, -2), (2, 0)]
    results = set()
    for perm in permutations(modes):
        s = VAC
        for flavor, r in perm:
            s = phi_apply(flavor, r, s)
        results.add(s)
    assert len(results) == 1


def test_depth():
    assert depth(VAC) == 0
    assert depth(BosonState.basis(phi=((1, -3),))) == 3
    assert depth(BosonState.basis(phi=((1, -1),), phi_star=((2, -1),))) == 1
    assert depth(BosonState.zero()) == float("-inf")
    # a key's own depth, which bounds the S modes' boson windows key by key
    assert key_depth(((), ())) == 0
    assert key_depth((((1, -1),), ((2, -5), (2, -1)))) == 5


def test_depth_clips_annihilators():
    rng = random.Random(7)
    for _ in range(30):
        s = random_boson(rng)
        d = depth(s)
        r_beyond = (int(d) + 1) // 2 + 1  # doubled index 2r-1 > d
        assert phi_apply(1, r_beyond, s).is_zero()
        assert phi_star_apply(2, r_beyond, s).is_zero()


def test_linearity_and_degree_shift():
    rng = random.Random(9)
    for _ in range(20):
        s1, s2 = random_boson(rng), random_boson(rng)
        c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        r = rng.randint(-2, 0)
        lhs = phi_apply(1, r, s1 + c * s2)
        assert lhs == phi_apply(1, r, s1) + c * phi_apply(1, r, s2)
        created = phi_apply(1, r, s1)
        assert depth(created) >= -(2 * r - 1) or depth(s1) >= -(2 * r - 1)
