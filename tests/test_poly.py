import random

import numpy as np
import pytest

from cmrank import cli, poly, search
from cmrank.cartier import _recurrence_block
from cmrank.ff import field, is_prime
from cmrank.poly import (
    DensePoly,
    is_squarefree,
    parse_poly,
    poly_gcd,
    poly_pow_naive,
    pow_coeffs,
)

from helpers import random_poly


def P(ctx, *ints):
    return DensePoly.from_ints(ctx, ints)


def test_canonical_form():
    k = field(5)
    f = P(k, 1, 2, 0, 0)
    assert f.degree == 1
    assert DensePoly.zero(k).degree == -1
    assert DensePoly.zero(k).is_zero


def test_mul_examples():
    k3 = field(3)
    assert P(k3, 1, 1) * P(k3, 1, 1) == P(k3, 1, 2, 1)
    k7 = field(7)
    assert P(k7, -1, 0, 1) * P(k7, 1, 0, 1) == P(k7, -1, 0, 0, 0, 1)
    assert (P(k7, 1, 2, 3) * DensePoly.zero(k7)).is_zero


def test_mul_context_mismatch():
    with pytest.raises(ValueError):
        P(field(3), 1) * P(field(5), 1)


def test_pow_examples():
    k3 = field(3)
    f = P(k3, 0, 1, 0, 1, 1)  # x^4 + x^3 + x
    assert poly_pow_naive(f, 0) == DensePoly.one(k3)
    assert poly_pow_naive(f, 1) == f
    assert poly_pow_naive(P(k3, 1, 1), 3) == P(k3, 1, 0, 0, 1)


def test_pow_additivity_random():
    rng = random.Random(424)
    for ctx in (field(7), field(5, 2)):
        for _ in range(30):
            deg = rng.randrange(0, 5)
            f = DensePoly(
                ctx,
                [
                    rng.randrange(ctx.p)
                    if ctx.ext_degree == 1
                    else (rng.randrange(ctx.p), rng.randrange(ctx.p))
                    for _ in range(deg + 1)
                ],
            )
            m1, m2 = rng.randrange(0, 5), rng.randrange(0, 5)
            assert poly_pow_naive(f, m1 + m2) == poly_pow_naive(f, m1) * poly_pow_naive(f, m2)


def test_mul_degree_additive():
    rng = random.Random(77)
    k = field(13)
    for _ in range(50):
        a = P(k, *[rng.randrange(13) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, 13)])
        b = P(k, *[rng.randrange(13) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, 13)])
        assert (a * b).degree == a.degree + b.degree


def test_numpy_and_schoolbook_kernels_agree():
    rng = random.Random(5150)
    k = field(127)
    a = P(k, *[rng.randrange(127) for _ in range(100)] + [1])
    b = P(k, *[rng.randrange(127) for _ in range(90)] + [1])
    long_prod = a * b
    # recompute with the schoolbook path by splitting into short chunks
    acc = DensePoly.zero(k)
    chunk = 8
    for i in range(0, len(a.raw()), chunk):
        piece = DensePoly(k, list(a.raw()[i : i + chunk]))
        acc = acc + (piece * b).shift_x(i)
    assert acc == long_prod
    k2 = field(11, 2)
    a2 = DensePoly(k2, [(rng.randrange(11), rng.randrange(11)) for _ in range(64)] + [(1, 0)])
    sq = a2 * a2
    assert sq.degree == 2 * a2.degree
    assert sq.coeff(0) == a2.coeff(0) * a2.coeff(0)


def test_gcd_examples():
    k5 = field(5)
    assert poly_gcd(P(k5, -1, 0, 1), P(k5, -1, 1)) == P(k5, -1, 1)
    assert poly_gcd(P(k5, 1, 2, 3), DensePoly.one(k5)) == DensePoly.one(k5)
    f = P(k5, 2, 4)
    assert poly_gcd(f, DensePoly.zero(k5)) == f.monic()
    with pytest.raises(ValueError):
        poly_gcd(DensePoly.zero(k5), DensePoly.zero(k5))


def test_divmod():
    k = field(7)
    a = P(k, 3, 0, 1, 5, 2)
    b = P(k, 1, 2, 1)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_squarefree_examples():
    k7 = field(7)
    assert is_squarefree(P(k7, -1, 0, 1))
    assert not is_squarefree(P(k7, 1, -2, 1))  # (x-1)^2
    k3 = field(3)
    assert not is_squarefree(P(k3, 1, 0, 0, 1, 0, 0, 1))  # derivative vanishes
    with pytest.raises(ValueError):
        is_squarefree(DensePoly.one(k7))


def test_squarefree_vs_root_multiplicity_oracle():
    # construct polynomials from explicit root lists over GF(p^2); squarefree
    # iff the chosen roots are distinct, and the exhaustive root count agrees
    rng = random.Random(31337)
    for p in (3, 5, 7, 11, 13):
        ctx = field(p, 2)
        pool = list(ctx.elements())
        for _ in range(12):
            deg = rng.randrange(2, 7)
            roots = [pool[rng.randrange(len(pool))] for _ in range(deg)]
            f = DensePoly.from_roots(ctx, roots)
            assert is_squarefree(f) == (len(set(roots)) == deg)
            found = [a for a in pool if f.evaluate(a).is_zero]
            assert len(found) == len(set(roots))


def test_eval_examples():
    k9 = field(3, 2)
    f = DensePoly.from_ints(k9, [1, 0, 1])
    assert f.evaluate(k9.gen).is_zero
    k5 = field(5)
    g = P(k5, 0, -1, 0, 1)  # x^3 - x
    assert g.evaluate(k5.elem(2)) == k5.elem(1)
    assert g.evaluate(k5.zero) == g.coeff(0)


def test_eval_coerces_into_extension():
    k7 = field(7)
    k49 = field(7, 2)
    f = P(k7, 1, 0, 1)
    w = k49.gen
    assert f.evaluate(w) == w * w + k49.one
    with pytest.raises(ValueError):
        DensePoly.from_ints(k49, [0, 1, 1]).evaluate(k7.one)


def test_compose_linear_and_reverse():
    k = field(11)
    f = P(k, 1, 2, 3, 4)
    s = k.elem(5)
    g = f.compose_linear(s)
    for a in field(11).elements():
        assert g.evaluate(a) == f.evaluate(a + s)
    assert f.reverse().raw() == tuple(reversed(f.raw()))


def test_parse_poly():
    k = field(7)
    assert parse_poly(k, "1,0,2") == P(k, 1, 0, 2)
    k2 = field(3, 2)
    f = parse_poly(k2, "1+2*w,0,1")
    assert f.coeff(0) == k2.from_coords((1, 2))
    assert f.degree == 2


def test_degree_cap():
    k = field(3)
    with pytest.raises(ValueError):
        DensePoly(k, [1] * ((1 << 24) + 2))


def _no_multiplication(*args):
    raise AssertionError("multiplied a power past the degree cap")


def test_pow_degree_cap_fires_before_multiplying(monkeypatch):
    f = P(field(3), 1, 0, 0, 0, 0, 0, 0, 0, 1)  # degree 8
    monkeypatch.setattr(poly, "_raw_mul", _no_multiplication)
    with pytest.raises(ValueError, match="cap"):
        f ** ((1 << 24) // 8)  # degree exactly DEGREE_CAP, one past the largest allowed


def test_pow_degree_cap_boundary(monkeypatch):
    f = P(field(3), 1, 0, 0, 0, 0, 0, 0, 0, 1)
    monkeypatch.setattr(poly, "DEGREE_CAP", 64)
    assert (f ** 7).degree == 56
    monkeypatch.setattr(poly, "_raw_mul", _no_multiplication)
    with pytest.raises(ValueError, match="cap"):
        f ** 8


# -- pow_coeffs: single coefficients of f^m without forming it -----------------------

# the first prime at or above _NUMPY_MAX_P, where pow_coeffs uses object arrays
P_OBJECT = next(q for q in range(poly._NUMPY_MAX_P, 2 * poly._NUMPY_MAX_P) if is_prime(q))


def _assert_matches_full_power(f, m):
    h = f**m
    top = max(h.degree, 0)
    got = pow_coeffs(f, m, range(top + 1))
    assert got == {k: h.coeff(k) for k in range(top + 1)}, (f, m)


def test_pow_coeffs_matches_full_power():
    rng = random.Random(5005)
    for p in (3, 11, 101):
        for ext in (1, 2):
            ctx = field(p, ext)
            # both sides of _NUMPY_MIN_LEN, so the oracle f ** m uses both kernels
            for deg in (0, 1, 4, poly._NUMPY_MIN_LEN - 2, poly._NUMPY_MIN_LEN + 8):
                f = random_poly(rng, ctx, deg)
                for m in (0, 1, 2, 3, 50):
                    _assert_matches_full_power(f, m)


def test_pow_coeffs_zero_polynomial_and_out_of_range():
    ctx = field(11, 2)
    zero = DensePoly.zero(ctx)
    assert pow_coeffs(zero, 0, [0, 1]) == {0: ctx.one, 1: ctx.zero}
    assert pow_coeffs(zero, 3, [0]) == {0: ctx.zero}
    f = DensePoly.from_ints(ctx, [1, 1])
    assert pow_coeffs(f, 3, [-1, 3, 4]) == {-1: ctx.zero, 3: ctx.one, 4: ctx.zero}


def test_pow_coeffs_matches_recurrence_at_every_reachable_index():
    # the recurrence is independent of any expansion; it reaches the indices
    # within p of either end of [0, m deg] when f(0) != 0
    rng = random.Random(3691)
    for p in (13, 101, 1009):
        m = (p - 1) // 2
        for ext in (1, 2):
            ctx = field(p, ext)
            for genus in range(3, 7):
                deg = 2 * genus + 1 + rng.randrange(2)
                f = random_poly(rng, ctx, deg, nonzero_const=True)
                top = m * deg
                low = _recurrence_block(f, m, min(p - 1, top))
                high = _recurrence_block(f.reverse(), m, min(p - 1, top))
                expected = {k: c for k, c in enumerate(low)}
                expected.update({top - k: c for k, c in enumerate(high)})
                got = pow_coeffs(f, m, expected)
                for k, c in expected.items():
                    assert got[k] == ctx.from_coords((c,) if ext == 1 else c), (p, ext, genus, k)


def test_pow_coeffs_object_route_above_numpy_max_p(monkeypatch):
    dtypes = set()
    convolve = np.convolve

    def spy(a, b):
        dtypes.add(a.dtype)
        return convolve(a, b)

    monkeypatch.setattr(np, "convolve", spy)
    rng = random.Random(19)
    for ext in (1, 2):
        ctx = field(P_OBJECT, ext)
        for m in (1, 2, 3):
            _assert_matches_full_power(random_poly(rng, ctx, 6), m)
    assert dtypes == {np.dtype(object)}


def _no_convolution(*args):
    raise AssertionError("convolved past a guard")


@pytest.mark.parametrize("p", [3, P_OBJECT])
def test_pow_coeffs_degree_cap_fires_before_allocating(monkeypatch, p):
    monkeypatch.setattr(np, "convolve", _no_convolution)
    f = P(field(p), 1, 0, 0, 0, 0, 0, 0, 0, 1)  # degree 8
    with pytest.raises(ValueError, match="exceeds the cap"):
        pow_coeffs(f, poly.DEGREE_CAP // 8, [0])


@pytest.mark.parametrize("p", [524287, P_OBJECT])
def test_prank_cost_guard_exits_2_before_convolving(monkeypatch, capsys, p):
    # below DEGREE_CAP, but the genus-3 entries c_(2p-i) are out of the
    # recurrence's reach, and full expansion to degree 7 (p-1)/2 ~ 1.8 10^6
    # would square arrays of ~9 10^5 terms
    monkeypatch.setattr(np, "convolve", _no_convolution)
    assert 7 * (p - 1) // 2 < poly.DEGREE_CAP
    code = cli.main(["prank", "--p", str(p), "--poly", "1,0,0,0,0,0,0,1"])
    assert code == 2
    assert "cost guard" in capsys.readouterr().err


def test_pow_coeffs_cost_guard_boundary(monkeypatch):
    f = P(field(101, 2), 3, 1, 4, 1, 5, 9, 2, 6)  # degree 7
    monkeypatch.setattr(poly, "EXPANSION_CAP", 70)
    assert pow_coeffs(f, 10, [35]) == {35: (f**10).coeff(35)}
    monkeypatch.setattr(np, "convolve", _no_convolution)
    with pytest.raises(ValueError, match="cost guard"):
        pow_coeffs(f, 11, [35])


def test_int64_bounds_of_the_constants():
    p_max = poly._NUMPY_MAX_P - 1
    # a convolution or a dot product of residue arrays sums at most DEGREE_CAP
    # products of residues; Karatsuba adds coordinates mod p first, so its
    # operands are residues too
    largest_sum = poly.DEGREE_CAP * p_max**2
    assert largest_sum < 2**62
    # the cross term takes two reduced convolutions from that sum, and the
    # GF(p^2) real part adds nu < p times a reduced convolution to another
    assert -(2**63) < -2 * p_max and largest_sum < 2**63
    assert p_max + p_max * p_max < 2**63
    assert poly.EXPANSION_CAP < poly.DEGREE_CAP
    # the sweep kernel sums six recurrence terms, each below p^3
    assert 6 * search.SWEEP_MAX_P**3 < 2**63
