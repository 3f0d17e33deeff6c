import itertools
import random

import pytest

from cmrank.cartier import (
    HyperellipticModel,
    cartier_matrix,
    is_superspecial,
    matrix_rank,
    p_rank,
    prank_oracle,
)
from cmrank.covers import (
    char3_genus3_witness,
    component_p_rank,
    family_xn_tn,
    genus2_supersingular_pair,
    kani_rosen_triple,
    primitive_root_of_unity,
    prop44_case2_points,
    prop45_models,
    triple_with_pranks,
)
from cmrank.curves import quartic_hasse_char3, supersingular_lambdas
from cmrank.ff import field
from cmrank.poly import DensePoly, poly_gcd

from helpers import random_squarefree

PRIMES_TO_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def roots_poly(ctx, ints):
    return DensePoly.from_roots(ctx, [ctx.elem(v) for v in ints])


# -- kani_rosen_triple -------------------------------------------------------------


def test_triple_disjoint_quartic():
    ctx = field(7)
    f1 = roots_poly(ctx, [0, 1, 3])
    f2 = roots_poly(ctx, [2, 4, 5, 6])
    t = kani_rosen_triple(f1, f2)
    assert t.f3.degree == 7
    assert t.genera == (1, 1, 3)
    assert t.genus_total == 5


def test_triple_shared_legendre_pair():
    ctx = field(7)
    t = kani_rosen_triple(roots_poly(ctx, [0, 1, 3]), roots_poly(ctx, [0, 1, 5]))
    assert t.f3.degree == 2
    assert t.genera == (1, 1, 0)
    assert t.genus_total == 2


def test_triple_example45_shape():
    ctx = field(11)
    u, v = ctx.elem(3), ctx.elem(4)
    one = ctx.one
    x = DensePoly.from_ints(ctx, [0, 1])
    xu = x + DensePoly.from_elements(ctx, [u])
    ux1 = DensePoly.from_elements(ctx, [one]) + x.scale(u)
    xv = x + DensePoly.from_elements(ctx, [v])
    vx1 = DensePoly.from_elements(ctx, [one]) + x.scale(v)
    a_part = xu * xu + ux1 * ux1
    b_part = xv**4 + xv * xv + DensePoly.one(ctx)
    f1 = a_part * (xu * xu - ux1 * ux1)
    f2 = b_part * (xv * xv - vx1 * vx1)
    assert (f1.degree, f2.degree) == (4, 6)
    shared = poly_gcd(f1, f2)
    assert shared == DensePoly.from_ints(ctx, [-1, 0, 1])  # x^2 - 1
    t = kani_rosen_triple(f1, f2)
    assert t.f3.degree == 6
    assert t.genera == (1, 2, 2)
    assert t.genus_total == 5


def test_triple_rejects_square_product():
    ctx = field(7)
    f = roots_poly(ctx, [0, 1, 3])
    with pytest.raises(ValueError):
        kani_rosen_triple(f, f.scale(ctx.elem(2)))


def test_triple_rejects_singular_input():
    ctx = field(7)
    with pytest.raises(ValueError):
        kani_rosen_triple(
            DensePoly.from_roots(ctx, [ctx.zero, ctx.zero, ctx.one]),
            roots_poly(ctx, [2, 3, 4]),
        )


def test_degree_identity_random():
    rng = random.Random(1234)
    for _ in range(40):
        p = PRIMES_TO_50[rng.randrange(5)]
        ctx = field(p)
        f1 = random_squarefree(rng, ctx, rng.randrange(3, 6))
        f2 = random_squarefree(rng, ctx, rng.randrange(3, 6))
        try:
            t = kani_rosen_triple(f1, f2)
        except ValueError:
            continue
        g = poly_gcd(f1, f2)
        assert t.f3.degree + 2 * g.degree == f1.degree + f2.degree


# -- p-rank additivity --------------------------------------------------------------


def test_prank_cor33_pair_p7():
    t = genus2_supersingular_pair(7)
    assert (t.genus_total, t.prank_total) == (2, 0)


def test_prank_additivity_vs_oracle():
    rng = random.Random(99)
    for p in (5, 7, 11, 13):
        ctx = field(p)
        pool = list(range(2, p))
        for _ in range(6):
            rng.shuffle(pool)
            a, b, c = pool[0], pool[1], pool[2]
            f1 = roots_poly(ctx, [0, 1, a])
            f2 = roots_poly(ctx, [0, 1, b])
            t = triple_with_pranks(f1, f2)
            assert t.genus_total == 2
            expected = prank_oracle(HyperellipticModel(ctx, f1)) + prank_oracle(
                HyperellipticModel(ctx, f2)
            )
            assert t.prank_total == expected
            if c not in (a, b):
                f2b = roots_poly(ctx, [0, 1, b, c])
                t = triple_with_pranks(f1, f2b)
                assert t.genus_total == 3
                expected = (
                    prank_oracle(HyperellipticModel(ctx, f1))
                    + prank_oracle(HyperellipticModel(ctx, f2b))
                    + prank_oracle(HyperellipticModel(ctx, t.f3))
                )
                assert t.prank_total == expected
    # one triple past genus 3, with a genus-4 component and p-rank 6 < 8:
    # over GF(11), (x-2)..(x-10) and (x-1)(x-2)(x-3) leave (x-1)(x-4)..(x-10)
    # as the third quotient
    ctx = field(11)
    f1, f2 = roots_poly(ctx, range(2, 11)), roots_poly(ctx, [1, 2, 3])
    t = triple_with_pranks(f1, f2)
    assert (t.genus_total, t.prank_total) == (4 + 1 + 3, 6)
    assert t.prank_total == sum(prank_oracle(HyperellipticModel(ctx, f)) for f in (f1, f2, t.f3))


# -- the x^n - t^n family ------------------------------------------------------------


def test_family_examples():
    C = family_xn_tn(5, field(19).one)
    assert is_superspecial(C)
    C = family_xn_tn(7, field(3).one)
    data = cartier_matrix(C)
    assert matrix_rank(data.M) == 2
    assert C.genus == 3


def test_family_preconditions():
    with pytest.raises(ValueError):
        family_xn_tn(7, field(7).one)
    with pytest.raises(ValueError):
        family_xn_tn(5, field(7).zero)


def test_family_sweep_not_ordinary():
    for n in range(3, 13):
        for p in PRIMES_TO_50:
            if n % p == 0 or p % n == 1:
                continue
            ctx = field(p)
            for tval in (1, 2):
                C = family_xn_tn(n, ctx.elem(tval))
                assert p_rank(C) < C.genus, (n, p, tval)
                if p % n == n - 1:
                    assert is_superspecial(C), (n, p, tval)


# -- proposition families -------------------------------------------------------------


PROP44_CASE2_CONFIGS = [
    (n, p)
    for n in (3, 5, 7)
    for p in PRIMES_TO_50
    if (n + 3) % p and p % (n + 3) == n + 2
]


def _first_working_prop44(n, p, supersingular_only=False):
    """First lambda with finite branch points, in verify's order:
    supersingular lambdas first, then the rest of GF(p^2) minus {0, 1}."""
    ctx = field(p, 2)
    ss = supersingular_lambdas(p)
    candidates = ss
    if not supersingular_only:
        ss_set = set(ss)
        ordinary = (
            lam
            for lam in ctx.elements()
            if not (lam.is_zero or lam == ctx.one) and lam not in ss_set
        )
        candidates = itertools.chain(ss, ordinary)
    for lam in candidates:
        try:
            return ctx, lam, prop44_case2_points(n, lam)
        except ValueError:
            continue
    raise AssertionError(f"no valid lambda for n={n}, p={p}")


def _rejected_lambdas(n, ctx):
    rejected = []
    for lam in ctx.elements():
        if lam.is_zero or lam == ctx.one:
            continue
        try:
            prop44_case2_points(n, lam)
        except ValueError:
            rejected.append(lam)
    return rejected


def _cross_ratio(a, b, c, d):
    """(a, b; c, d) of four finite points; invariant under Moebius maps."""
    return (c - a) * (d - b) / ((c - b) * (d - a))


def test_prop44_case2_points_n3_p11():
    ctx, lam, xs = _first_working_prop44(3, 11, supersingular_only=True)
    assert len(xs) == len(set(xs)) == 3
    assert all(x not in (ctx.zero, ctx.one, lam) for x in xs)
    # third quotient: branch locus {0, 1, lambda, x1..xn}; superspecial by
    # transport to w^2 = x^(n+3) - 1
    f3 = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam] + xs)
    assert is_superspecial(HyperellipticModel(ctx, f3))
    # with a supersingular base curve the whole cover has small p-rank
    f1 = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam])
    f2 = DensePoly.from_roots(ctx, xs)
    assert triple_with_pranks(f1, f2).prank_total <= (3 - 1) // 2


def test_prop44_case2_points_n5_p7():
    # no supersingular lambda admits finite branch points here (checked in
    # test_prop44_case2_n5_p7_rejects_every_supersingular_lambda); the new-part
    # bound is lambda-independent so any valid configuration exercises it
    ctx, lam, xs = _first_working_prop44(5, 7)
    assert len(xs) == len(set(xs)) == 5
    f3 = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam] + xs)
    assert is_superspecial(HyperellipticModel(ctx, f3))
    f2 = DensePoly.from_roots(ctx, xs)
    f_new = component_p_rank(f2) + component_p_rank(f3)
    assert f_new <= (5 - 1) // 2


def test_prop44_case2_rejects_wrong_residue():
    ctx = field(7, 2)
    with pytest.raises(ValueError):
        prop44_case2_points(3, ctx.elem(3))  # 7 is not -1 mod 6


def test_prop44_case2_matches_cross_ratio_definition():
    # the paper's definition: x_i = L(zeta^(i+2) t) with L carrying
    # (t, zeta t, zeta^2 t) to (0, 1, lambda); a Moebius map preserves cross
    # ratios, and a point is fixed by its cross ratio with three others
    assert len(PROP44_CASE2_CONFIGS) == 13
    rng = random.Random(4404)
    for n, p in PROP44_CASE2_CONFIGS:
        ctx, lam, xs = _first_working_prop44(n, p)
        assert len(xs) == len(set(xs)) == n
        assert all(x not in (ctx.zero, ctx.one, lam) for x in xs)
        zeta = primitive_root_of_unity(ctx, n + 3)
        elements = [e for e in ctx.elements() if not e.is_zero]
        for t in rng.sample(elements, 3):
            src = (t, zeta * t, zeta * zeta * t)
            for i, x in enumerate(xs, start=1):
                assert _cross_ratio(ctx.zero, ctx.one, lam, x) == _cross_ratio(
                    *src, zeta ** (i + 2) * t
                ), (n, p, str(t), i)


def _scan_order(a, bound):
    """The multiplicative order of a by repeated multiplication, 0 past bound."""
    acc = a
    for k in range(1, bound + 1):
        if acc == a.ctx.one:
            return k
        acc = acc * a
    return 0


def test_primitive_root_matches_order_scan():
    for n, p in PROP44_CASE2_CONFIGS:
        ctx = field(p, 2)
        order = n + 3
        first = next(a for a in ctx.elements() if not a.is_zero and _scan_order(a, order) == order)
        assert primitive_root_of_unity(ctx, order) == first, (n, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("ext", [1, 2])
def test_primitive_root_is_first_in_element_order_for_every_order(p, ext):
    ctx = field(p, ext)
    for order in range(1, ctx.order):
        if (ctx.order - 1) % order:
            continue
        first = next(a for a in ctx.elements() if not a.is_zero and _scan_order(a, order) == order)
        assert primitive_root_of_unity(ctx, order) == first, order


@pytest.mark.parametrize("n, p", [(3, 11), (5, 7)])
def test_prop44_case2_rejects_exactly_n_lambdas(n, p):
    rejected = _rejected_lambdas(n, field(p, 2))
    assert len(rejected) == n


def test_prop44_case2_n5_p7_rejects_every_supersingular_lambda():
    ss = supersingular_lambdas(7)
    assert ss
    assert set(ss) <= set(_rejected_lambdas(5, field(7, 2)))


def test_prop45_direct_rank_check_n4_p5():
    ctx = field(5, 2)
    lam = supersingular_lambdas(5)[0]
    d1, d2 = prop45_models(4, lam)
    assert d1.genus == 1
    assert p_rank(d1) < d1.genus  # 5 = 5 mod 6, hypothesis holds
    assert d2 is not None and d2.genus == 1
    # 5 = -1 mod 6: new part has p-rank at most ceil(3/2) - 1 = 1
    f_new = p_rank(d1) + p_rank(d2)
    assert p_rank(d1) == 0
    assert f_new <= 1


def test_prop45_n3_returns_none_second_quotient():
    ctx = field(11)
    d1, d2 = prop45_models(3, ctx.elem(4))
    assert d2 is None
    assert d1.genus == 1
    # d1 is y^2 = x^3 - x, supersingular since 11 = -1 (mod 4)
    assert p_rank(d1) == 0


def test_prop45_preconditions():
    with pytest.raises(ValueError):
        prop45_models(4, field(3).elem(2))  # p divides 2(n-1)
    ctx = field(11)
    with pytest.raises(ValueError):
        prop45_models(4, ctx.one)
    with pytest.raises(ValueError):
        prop45_models(5, ctx.elem(10))  # 10^4 = 1 mod 11: branch loci collide


# -- explicit witnesses ----------------------------------------------------------------


def test_char3_genus3_witness():
    t = char3_genus3_witness()
    assert t.genus_total == 3
    assert t.prank_total == 0
    for f in (t.fE, t.f2, t.f3):
        assert quartic_hasse_char3(f).is_zero


def test_genus2_supersingular_pair_small_primes():
    for p in (5, 7, 11, 13):
        t = genus2_supersingular_pair(p)
        assert (t.genus_total, t.prank_total) == (2, 0)
        assert component_p_rank(t.fE) == 0
        assert component_p_rank(t.f2) == 0


def test_genus2_supersingular_pair_rejects_p3():
    with pytest.raises(ValueError):
        genus2_supersingular_pair(3)
