import hashlib
import random
from fractions import Fraction

import pytest

from supertoroidal import serialize as ser
from supertoroidal.lattice import LatticeConfig, bilinear
from supertoroidal.superalgebra import Superalgebra, ToroidalElement, d_cocycle
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
    s_mode_apply,
    super_commutator,
)

from supertoroidal.fock_boson import key_depth, mode_on_key

from oracles import oracle_s_dressed, oracle_s_plain, reference_boson_mode_apply

M, N, Q = 3, 2, 2
LAT = LatticeConfig(M, Q)
ALG = Superalgebra(M, N)
VAC = TensorState.vacuum(LAT)


def random_tensor(rng, q=Q, max_deg=4, box=2, nterms=2):
    lat = LatticeConfig(M, q)
    terms = {}
    par = rng.randint(0, 1)
    for _ in range(nterms):
        while True:
            e = tuple(rng.randint(-box, box) for _ in range(M))
            if sum(e) % 2 == par:
                break
        gamma = lat.zero().__class__(
            e,
            tuple(rng.randint(-box, box) for _ in range(q - 1)),
            tuple(rng.randint(-box, box) for _ in range(q - 1)),
        )
        budget = max_deg
        mono = []
        while budget >= 2 and rng.random() < 0.6:
            n = rng.randint(1, budget // 2)
            mono.append((rng.randrange(lat.rank), n))
            budget -= 2 * n
        phi, phis = [], []
        while budget >= 1 and rng.random() < 0.5:
            mag = 2 * rng.randint(0, (budget - 1) // 2) + 1
            mode = (rng.randint(1, N), -mag)
            (phi if rng.random() < 0.5 else phis).append(mode)
            budget -= mag
        key = ((gamma, tuple(sorted(mono))), (tuple(sorted(phi)), tuple(sorted(phis))))
        terms[key] = terms.get(key, 0) + Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
    s = TensorState(terms)
    return s if not s.is_zero() else TensorState.vacuum(lat)


# --- the operator dictionary


def test_rho_dictionary_shapes():
    op = rho(ToroidalElement.t(1, 2, (0, 3)), LAT)
    assert op.terms[0][1] == VertexMode(LAT.root(1, 2), 6)
    op = rho(ToroidalElement.t(1, 2, (2, 3)), LAT)
    assert op.terms[0][1] == VertexMode(LAT.root(1, 2) + LAT.delta_sum((2,)), 6)
    op = rho(ToroidalElement.t(2, 2, (1, -1)), LAT)
    assert op.terms[0][1] == DiagCurrent(LAT.e(2), -1, (1,))
    op = rho(ToroidalElement.t(1, M + 1, (1, 0)), LAT)
    assert op.terms[0][1] == SOp(1, M + 1, (1,), 0)
    op = rho(ToroidalElement.k(Q, (0, 0)), LAT)
    assert op.terms[0][1] == CentralImage((0, 0), Q)


def test_central_images():
    assert apply(rho(ToroidalElement.k(Q, (0, 0)), LAT), VAC) == VAC
    img = apply(rho(ToroidalElement.k(Q, (2, 0)), LAT), VAC)
    assert img == TensorState.basis(LAT.delta_sum((2,)))
    probe = TensorState.basis(LAT.dgen(1))
    img = apply(rho(ToroidalElement.k(1, (0, 0)), LAT), probe)
    assert img == probe  # delta_1(0) reads the d_1 coordinate


def test_vertex_mode_on_vacuum_vanishes():
    assert apply(VertexMode(LAT.root(1, 2), 0), VAC).is_zero()


def test_s_examples():
    assert s_mode_apply("upper", 1, M + 1, (), 0, TensorState.vacuum(LatticeConfig(M, 1))).is_zero()
    assert s_mode_apply("boson", M + 1, M + 1, (), 0, TensorState.vacuum(LatticeConfig(M, 1))).is_zero()
    lat1 = LatticeConfig(M, 1)
    vac1 = TensorState.vacuum(lat1)
    img = s_mode_apply("upper", 1, M + 1, (), -1, vac1)
    assert img == TensorState.basis(lat1.e(1), (), (), ((1, -1),))
    with pytest.raises(ValueError):
        s_mode_apply("lower", 1, M + 1, (), 0, vac1)


def test_s_dressed_zero_mu_equals_plain():
    rng = random.Random(3)
    fams = (("upper", 1, M + 1), ("lower", M + 2, 1), ("boson", M + 2, M + 1))
    for trial in range(15):
        s = random_tensor(rng)
        n = rng.randint(-2, 2)
        fam, i, j = fams[trial % 3]
        assert SOp(i, j, (0,), n).apply(s) == oracle_s_plain(fam, i, j, M, Q, n, s), (fam, n)


def _splits_boson_halves(fam, i, j, s):
    """Whether the boson halves of s get different windows: for upper and lower, the
    contracting boson factor of S_ij at r = n keeps some halves and kills the others;
    for the boson family, the halves have different creation depths."""
    if fam == "boson":
        return len({key_depth(bk) for _, bk in s.terms}) > 1
    star = fam == "upper"
    flavor = j - M if star else i - M
    return {mode_on_key(flavor, 1, bk, star) is None for _, bk in s.terms} == {True, False}


def test_s_plain_against_wide_window_oracle():
    # from trial 12 on, each lattice key sits under two boson keys and n >= 1
    rng = random.Random(13)
    fams = (("upper", 1, M + 1), ("lower", M + 2, 2), ("boson", M + 1, M + 2))
    split = dict.fromkeys(("upper", "lower", "boson"), 0)
    for trial in range(28):
        s = random_tensor(rng)
        if trial >= 12:
            s = _spread_over_boson_keys(rng, s)
        for fam, i, j in fams:
            n = rng.randint(-2, 2) if trial < 12 else rng.randint(1, 3)
            fast = s_mode_apply(fam, i, j, (0,), n, s)
            wide = oracle_s_plain(fam, i, j, M, Q, n, s)
            assert fast == wide, (fam, n)
            if trial >= 12:
                split[fam] += _splits_boson_halves(fam, i, j, s)
    assert min(split.values()) >= 6, split


def test_s_dressed_against_wide_window_oracle():
    # the literal double sum checks the upper and lower families' identity-4.4 fold
    rng = random.Random(29)
    fams = (("upper", 1, M + 1), ("lower", M + 1, 1), ("boson", M + 2, M + 1))
    nonzero = dict.fromkeys(((fam, q) for fam, _, _ in fams for q in (2, 3)), 0)
    for trial in range(24):
        q = 2 if trial < 12 else 3
        s = random_tensor(rng, q=q, max_deg=3)
        if trial % 4 == 3:
            s = _spread_over_boson_keys(rng, s)
        fam, i, j = fams[trial % 3]
        mu = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(q - 1))
        n = rng.randint(-3, 1)
        fast = SOp(i, j, mu, n).apply(s)
        wide = oracle_s_dressed(fam, i, j, M, q, mu, n, s)
        assert fast == wide, (fam, mu, n)
        nonzero[(fam, q)] += not fast.is_zero()
    assert min(nonzero.values()) >= 3, nonzero


def _spread_over_boson_keys(rng, s):
    """s with each lattice key under two of three boson keys, so the boson groups differ."""
    pool = (((), ()), (((1, -1),), ()), ((), ((2, -3), (2, -1))))
    terms = {}
    for (lk, _), c in s.terms.items():
        for w, bk in zip((1, -2), rng.sample(pool, 2)):
            terms[(lk, bk)] = terms.get((lk, bk), 0) + w * c
    return TensorState(terms)


def test_diag_current_dressed_against_manual_window():
    # alpha = e_i at q = 2, and alpha = delta_i at q = 3 as in the image of K_i (i < q)
    rng = random.Random(31)
    nonzero = {("e", 2): 0, ("delta", 3): 0}
    for trial in range(24):
        kind, q = ("e", 2) if trial % 2 == 0 else ("delta", 3)
        lat = LatticeConfig(M, q)
        s = random_tensor(rng, q=q, max_deg=3, nterms=3)
        if trial % 4 >= 2:
            s = _spread_over_boson_keys(rng, s)
        mu = tuple(rng.randint(-2, 2) for _ in range(q - 1))
        mq = rng.randint(-2, 2)
        alpha = lat.e(rng.randint(1, M)) if kind == "e" else lat.delta(rng.randint(1, q - 1))
        fast = DiagCurrent(alpha, mq, mu).apply(s)
        # crude window: X_{2(mq-k)}(dm) needs mq - k <= deg u - (dm, gamma), and alpha(k)
        # with k > 0 needs a factor of mode k; widened by a margin
        dm = lat.delta_sum(mu)
        deg = max(sum(n for _, n in u) for (_, u), _ in s.terms)
        shift = max(abs(bilinear(dm, g)) for (g, _), _ in s.terms)
        wide = TensorState.zero()
        for k in range(mq - deg - shift - 3, deg + 4):
            wide = wide + Current(alpha, k).apply(VertexMode(dm, 2 * (mq - k)).apply(s))
        assert fast == wide, (kind, q, mu, mq)
        nonzero[(kind, q)] += not fast.is_zero()
    assert min(nonzero.values()) >= 8, nonzero


def test_parities():
    assert VertexMode(LAT.e(1), -1).parity() == 1
    assert VertexMode(LAT.root(1, 2), 0).parity() == 0
    assert SOp(1, M + 1, (0,), 0).parity(M) == 1
    assert SOp(M + 1, M + 2, (0,), 0).parity(M) == 0
    assert Current(LAT.e(1), 1).parity() == 0
    assert OpProduct((VertexMode(LAT.e(1), -1), VertexMode(LAT.e(2), -1))).parity(M) == 0
    mixed = OpSum(((Fraction(1), VertexMode(LAT.e(1), -1)), (Fraction(1), Current(LAT.e(1), 0))))
    assert mixed.parity(M) is None
    with pytest.raises(ValueError):
        super_commutator(mixed, Current(LAT.e(1), 0), VAC)


def test_super_commutator_of_odd_pair_is_anticommutator():
    s = TensorState.basis(LAT.e(1))
    op1 = VertexMode(LAT.e(1), -1)
    op2 = VertexMode(-LAT.e(1), 1)
    direct = op1.apply(op2.apply(s)) + op2.apply(op1.apply(s))
    assert super_commutator(op1, op2, s) == direct


def test_super_commutator_against_both_orderings():
    # [op1, op2] s = op1 op2 s - (-1)^{|op1||op2|} op2 op1 s, for each pair of parities
    rng = random.Random(67)
    odd = [VertexMode(LAT.e(1), -1), VertexMode(-LAT.e(2) + LAT.delta_sum((1,)), 1),
           SOp(1, M + 1, (1,), 0), SOp(M + 2, 2, (0,), 1)]
    even = [Current(LAT.e(1), 1), DiagCurrent(LAT.e(2), 0, (1,)), VertexMode(LAT.root(1, 2), 0),
            SOp(M + 1, M + 2, (1,), 0), PhiMode(1, 1)]
    both = dict.fromkeys(((p1, p2) for p1 in (0, 1) for p2 in (0, 1)), 0)
    for trial in range(80):
        op1 = rng.choice(odd if trial % 2 else even)
        op2 = rng.choice(odd if trial % 4 >= 2 else even)
        s = random_tensor(rng, nterms=3)
        before = dict(s.terms)
        first, second = op1.apply(op2.apply(s)), op2.apply(op1.apply(s))
        sign = -1 if op1.parity(M) and op2.parity(M) else 1
        assert super_commutator(op1, op2, s) == first - sign * second, (op1, op2)
        assert s.terms == before
        both[(op1.parity(M), op2.parity(M))] += not first.is_zero() and not second.is_zero()
    assert min(both.values()) >= 5, both


def test_super_commutator_of_orthogonal_currents_vanishes():
    rng = random.Random(61)
    for _ in range(10):
        s = random_tensor(rng)
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        out = super_commutator(Current(LAT.e(1), m), Current(LAT.e(2), n), s)
        assert out.is_zero()


def test_lemma_2_8_shape():
    rng = random.Random(17)
    for _ in range(10):
        s = random_tensor(rng)
        x1 = VertexMode(LAT.e(rng.randint(1, M)), 2 * rng.randint(-1, 1) - 1)
        x2 = VertexMode(-LAT.e(rng.randint(1, M)), 2 * rng.randint(-1, 1) - 1)
        y1 = PhiMode(rng.randint(1, N), rng.randint(-1, 1))
        y2 = PhiStarMode(rng.randint(1, N), rng.randint(-1, 1))
        lhs = super_commutator(OpProduct((x1, y1)), OpProduct((x2, y2)), s)
        yy = y1.apply(y2.apply(s)) - y2.apply(y1.apply(s))
        t = y1.apply(y2.apply(s))
        rhs = x1.apply(x2.apply(t)) + x2.apply(x1.apply(t)) - x2.apply(x1.apply(yy))
        assert lhs == rhs


def test_lemma_4_9():
    rng = random.Random(23)
    for _ in range(12):
        s = random_tensor(rng)
        mu = (rng.randint(-2, 2),)
        mq = rng.randint(-2, 2)
        dm = LAT.delta_sum(mu)
        out = apply(DiagCurrent(dm, mq, mu), s) + mq * apply(VertexMode(dm, 2 * mq), s)
        assert out.is_zero(), (mu, mq)


def test_central_dictionary_consistency_and_printed_transposition():
    # the image of d(t^m)t^n must follow the per-generator dictionary,
    # equal T^{delta_mu}_s + m_q X_s, and the transposed form
    # X_s + m_q T^{delta_mu}_s fails already on the vacuum
    mbar, nbar = (1, 0), (-1, 0)
    lhs = apply(rho(d_cocycle(mbar, nbar), LAT), VAC)
    dm = LAT.delta_sum((1,))
    tot = LAT.delta_sum((0,))
    remark = apply(DiagCurrent(dm, 0, (0,)), VAC) + 0 * apply(VertexMode(tot, 0), VAC)
    assert lhs == remark
    assert lhs.is_zero()
    transposed = apply(VertexMode(tot, 0), VAC) + 0 * apply(DiagCurrent(dm, 0, (0,)), VAC)
    assert transposed == VAC  # X_0(0) = Id
    assert transposed != lhs

    rng = random.Random(41)
    for _ in range(10):
        s = random_tensor(rng)
        mb = tuple(rng.randint(-2, 2) for _ in range(Q))
        nb = tuple(rng.randint(-2, 2) for _ in range(Q))
        img = apply(rho(d_cocycle(mb, nb), LAT), s)
        total = tuple(a + b for a, b in zip(mb, nb))
        smode = total[-1]
        remark = apply(DiagCurrent(LAT.delta_sum(mb[:-1]), smode, total[:-1]), s) + mb[-1] * apply(
            VertexMode(LAT.delta_sum(total[:-1]), 2 * smode), s
        )
        assert img == remark
        anti = apply(rho(d_cocycle(nb, mb), LAT), s)
        assert (img + anti).is_zero()


def test_homomorphism_spot_checks():
    rng = random.Random(47)
    cases = [
        (ToroidalElement.t(1, 2, (1, 1)), ToroidalElement.t(2, 1, (-1, -1))),
        (ToroidalElement.t(1, M + 1, (0, 1)), ToroidalElement.t(M + 1, 1, (0, -1))),
        (ToroidalElement.t(M + 1, M + 2, (1, 0)), ToroidalElement.t(M + 2, M + 1, (-1, 0))),
        (ToroidalElement.t(2, 2, (1, -1)), ToroidalElement.t(2, 2, (-1, 1))),
        (ToroidalElement.t(1, M + 1, (1, 0)), ToroidalElement.t(2, M + 1, (0, 1))),
    ]
    for x, y in cases:
        s = random_tensor(rng, max_deg=3)
        lhs = super_commutator(rho(x, LAT), rho(y, LAT), s)
        rhs = apply(rho(ALG.bracket_toroidal(x, y), LAT), s)
        assert lhs == rhs, (x, y)


def test_rho_parity_preserved():
    assert rho(ToroidalElement.t(1, M + 1, (0, 0)), LAT).parity(M) == 1
    assert rho(ToroidalElement.t(1, 2, (0, 0)), LAT).parity(M) == 0
    assert rho(ToroidalElement.k(1, (0, 0)), LAT).parity(M) == 0


def test_apply_is_linear():
    rng = random.Random(53)
    op = SOp(1, M + 1, (1,), 0)
    s1, s2 = random_tensor(rng), random_tensor(rng)
    c = Fraction(3, 2)
    assert op.apply(s1 + c * s2) == op.apply(s1) + c * op.apply(s2)


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        DiagCurrent(LAT.dgen(1), 0, (0,))
    with pytest.raises(ValueError):
        CentralImage((0, 0), 3)
    with pytest.raises(ValueError):
        SOp(1, M + 1, (1, 2), 0).apply(VAC)  # mu length vs q


def test_every_operator_kind_leaves_its_input_alone():
    # one operator of each serialized kind on one multi-term state; the
    # images are pinned, and no operator may write into the input's terms
    s = random_tensor(random.Random(61), max_deg=4, nterms=6)
    before = dict(s.terms)
    ops = [
        VertexMode(LAT.root(1, 2) + LAT.delta_sum((1,)), 0),
        Current(LAT.e(1), -1),
        PhiMode(1, 1),
        PhiStarMode(2, 0),
        DiagCurrent(LAT.e(2), 0, (1,)),
        SOp(1, M + 1, (1,), 0),
        CentralImage((1, 1), 1),
        NormalPairSum(LAT.e(1), -LAT.e(2), 0),
        VertexProductSum(LAT.root(1, 3), (1,), 0),
        OpProduct((PhiMode(1, 0), VertexMode(LAT.e(2), 1))),
        OpSum(((Fraction(1, 2), Current(LAT.e(3), 0)), (Fraction(-3), PhiStarMode(1, 1)),
               (Fraction(2), PhiMode(2, 1)))),
    ]
    assert len({ser.operator_to_obj(op)["kind"] for op in ops}) == 11
    images = []
    for op in ops:
        img = op.apply(s)
        assert s.terms == before, op
        assert not img.is_zero(), op
        images.append(ser.tensor_state_to_obj(img))
    digest = hashlib.sha256(ser.dumps(images).encode()).hexdigest()
    assert digest == "f94f1bf8659973fb145ca3090d5e4edf3d7bf0c15f11a4f4ea1ff225ab6686cf"


def test_no_operator_writes_into_its_input_or_its_images():
    # the identity OpProduct(()) and a unit OpSum of it return a new state equal
    # to their input, and [op, identity] = 0 folds op s and s into one sink, where
    # every key cancels; neither s nor an image may be written into
    rng = random.Random(71)
    s = _spread_over_boson_keys(rng, random_tensor(rng, max_deg=4, nterms=4))
    before = dict(s.terms)
    identity = OpProduct(())
    ops = [
        VertexMode(LAT.root(1, 2) + LAT.delta_sum((1,)), 0),
        Current(LAT.e(1), -1),
        PhiMode(1, 1),
        PhiStarMode(2, 0),
        DiagCurrent(LAT.e(2), 0, (1,)),
        SOp(1, M + 1, (1,), 1),
        SOp(M + 2, 2, (-1,), 1),
        SOp(M + 1, M + 2, (1,), 0),
        CentralImage((1, 1), 1),
        NormalPairSum(LAT.e(1), -LAT.e(2), 0),
        VertexProductSum(LAT.root(1, 3), (1,), 0),
        OpSum(((Fraction(1), identity),)),
        identity,
    ]
    unit = OpSum(((Fraction(1), identity),)).apply(s)
    assert unit == s and unit is not s
    for op in ops:
        img = op.apply(s)
        kept = dict(img.terms)
        for comm in (super_commutator(op, identity, s), super_commutator(identity, op, s)):
            assert comm.is_zero(), op
        assert s.terms == before and img.terms == kept, op


def test_boson_modes_match_grouped_reference():
    # several lattice keys share each boson key; doubled creators give
    # contractions of multiplicity 2 and 3
    phi2 = ((1, -1), (1, -1))
    zero = LAT.zero()
    assert (PhiStarMode(1, 1).apply(TensorState.basis(zero, phi=phi2))
            == 2 * TensorState.basis(zero, phi=phi2[:1]))
    assert (PhiMode(1, 1).apply(TensorState.basis(zero, phi_star=phi2))
            == -2 * TensorState.basis(zero, phi_star=phi2[:1]))
    lattice_keys = [(LAT.zero(), ()), (LAT.e(1), ((0, 1),)), (LAT.root(1, 2), ((1, 2), (4, 1))),
                    (LAT.delta_sum((1,)), ((0, 1), (0, 1)))]
    boson_keys = [((), ()), (phi2, ()), ((), phi2 + ((1, -1),)), (((1, -1),), ((1, -1), (2, -3))),
                  (((2, -3), (2, -3)), ((2, -1),)), (((1, -3),), ((1, -3), (1, -3)))]
    rng = random.Random(59)
    for _ in range(6):
        ts = TensorState({(lk, bk): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 5, 7)))
                          for lk in lattice_keys for bk in boson_keys if rng.random() < 0.8})
        for star, cls in ((False, PhiMode), (True, PhiStarMode)):
            for j in (1, 2):
                for r in range(-2, 4):  # creators r <= 0, contractions r >= 1
                    expect = reference_boson_mode_apply(j, r, ts, star)
                    assert cls(j, r).apply(ts) == expect, (cls, j, r)
