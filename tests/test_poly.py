import math
import random

import numpy as np
import pytest

from cmrank import cli, poly, search
from cmrank.cartier import _recurrence_block, power_coeffs
from cmrank.ff import field, inverse_table, is_prime
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


def test_squarefree_memo_answers_each_field_apart():
    # x^3 + 1 is (x + 1)^3 over GF(3) and squarefree over GF(5): the same
    # coefficient list in two fields is two questions.  Over GF(7) and
    # GF(7^2) the answers agree, and are still asked and kept apart
    coeffs = (1, 0, 0, 1)
    is_squarefree.cache_clear()
    for p, expected in ((5, True), (3, False), (5, True), (3, False)):
        assert is_squarefree(P(field(p), *coeffs)) is expected, p
    assert is_squarefree.cache_info()[:2] == (2, 2)  # hits, misses
    for ext in (2, 1, 2, 1):
        assert is_squarefree(P(field(7, ext), *coeffs)), ext
    assert is_squarefree.cache_info()[:2] == (4, 4)
    # a degree-0 input raises on every call and takes no entry
    for _ in range(2):
        with pytest.raises(ValueError, match="degree >= 1"):
            is_squarefree(DensePoly.one(field(7)))
    assert is_squarefree.cache_info().currsize == 4


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
    assert f.evaluate(k9.from_coords((0, 1))).is_zero
    k5 = field(5)
    g = P(k5, 0, -1, 0, 1)  # x^3 - x
    assert g.evaluate(k5.elem(2)) == k5.elem(1)
    assert g.evaluate(k5.zero) == g.coeff(0)


def test_eval_coerces_into_extension():
    k7 = field(7)
    k49 = field(7, 2)
    f = P(k7, 1, 0, 1)
    w = k49.from_coords((0, 1))
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
    # an empty or blank slot is refused, not dropped with its degree
    for text, slot in (("1,,0,0,1", "c1"), ("1,0, ", "c2"), ("", "c0")):
        with pytest.raises(ValueError, match=f"coefficient {slot} of .* is empty"):
            parse_poly(k, text)


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

# a prime past 2^18, where every Cartier-Manin expansion is past EXPANSION_CAP
P_LARGE = 524309


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


def test_pow_coeffs_reads_runs_like_the_naive_power():
    # c_k is read a run of consecutive indices at a time from A = f^(m//2) of
    # length la and B = A or A f of length lb; runs cross the ends of A and
    # B, and indices outside [0, top] read zero.  The last prime is the
    # largest p = 3 (mod 4) whose sums stay exact for m = 13: there nu = p - 1
    # times a sum of GF(p^2) products passes 2^63
    rng = random.Random(7117)
    deg = 5
    near_bound = next(
        q for q in range(math.isqrt((poly._FLOAT_EXACT - 1) // (13 * deg + 1)), 1, -1)
        if q % 4 == 3 and is_prime(q)
    )
    for p in (7, 101, near_bound):
        for ext in (1, 2):
            ctx = field(p, ext)
            for m in (1, 2, 3, 8, 13):
                f = random_poly(rng, ctx, deg)
                h = poly_pow_naive(f, m)
                top = m * deg
                la = m // 2 * deg + 1
                lb = top + 2 - la
                index_sets = [
                    [1, 2, 3, 6, 7, top - 4, top - 3, top - 1],  # runs with gaps
                    list(range(0, la + 2)) + list(range(lb - 3, top + 1)),
                    [0, top],
                    [-3, -2, -1, 0, top, top + 1, top + 2, 2 * top + 9],
                    list(range(-2, top + 3)),
                ]
                for indices in index_sets:
                    expected = {k: h.coeff(k) for k in indices}
                    assert pow_coeffs(f, m, indices) == expected, (p, ext, m, indices)


def test_pow_coeffs_matches_recurrence_at_every_reachable_index():
    # the recurrence is independent of any expansion; it reaches the indices
    # within p of either end of [0, m deg] when f(0) != 0
    rng = random.Random(3691)
    for p in (13, 101, 1009):
        m = (p - 1) // 2
        inv = inverse_table(p, p - 1)
        for ext in (1, 2):
            ctx = field(p, ext)
            for genus in range(3, 7):
                deg = 2 * genus + 1 + rng.randrange(2)
                f = random_poly(rng, ctx, deg, nonzero_const=True)
                top = m * deg
                low = _recurrence_block(f, m, min(p - 1, top), inv)
                high = _recurrence_block(f.reverse(), m, min(p - 1, top), inv)
                expected = {k: c for k, c in enumerate(low)}
                expected.update({top - k: c for k, c in enumerate(high)})
                got = pow_coeffs(f, m, expected)
                for k, c in expected.items():
                    assert got[k] == ctx.from_coords((c,) if ext == 1 else c), (p, ext, genus, k)


def _no_convolution(*args):
    raise AssertionError("convolved past a guard")


def test_pow_coeffs_refuses_past_the_float_bound(monkeypatch):
    # from 2^26 on, 7 (p-1)^2 >= 2^53: no power of degree 6 m + 1 >= 7 has
    # sums that float64 keeps exact, so each is refused before convolving
    p = next(q for q in range(1 << 26, 1 << 27) if is_prime(q))
    assert not poly._float_exact(7, p)
    monkeypatch.setattr(np, "convolve", _no_convolution)
    rng = random.Random(19)
    for ext in (1, 2):
        ctx = field(p, ext)
        for m in (1, 2, 3):
            f = random_poly(rng, ctx, 6)
            with pytest.raises(ValueError, match="2\\^53"):
                pow_coeffs(f, m, [0])
        assert pow_coeffs(f, 0, [0]) == {0: ctx.one}


def test_constant_powers_are_answered_past_the_float_bound(monkeypatch):
    # a single product (p-1)^2 already passes 2^53 here, but f^m of a
    # constant f needs no convolution: it is f(0)^m
    p = next(q for q in range(1 << 27, 1 << 28) if is_prime(q))
    assert not poly._float_exact(1, p)
    monkeypatch.setattr(np, "convolve", _no_convolution)
    rng = random.Random(29)
    for ext in (1, 2):
        ctx = field(p, ext)
        for f in (random_poly(rng, ctx, 0), DensePoly(ctx, [])):
            c = f.coeff(0)
            for m in (0, 1, 2, 3):
                assert pow_coeffs(f, m, [0, 1]) == {0: c**m, 1: ctx.zero}, (ext, m)
                if m == 0 or not f.is_zero:  # else f^m = 0 has no index 0
                    for strategy in ("auto", "naive"):
                        assert power_coeffs(f, m, [0], strategy)[0] == c**m, (ext, m)


def test_products_past_the_float_bound_use_the_schoolbook_loop(monkeypatch):
    p = next(q for q in range(1 << 26, 1 << 27) if is_prime(q))
    n = poly._NUMPY_MIN_LEN + 8
    assert not poly._float_exact(n, p)
    monkeypatch.setattr(np, "convolve", _no_convolution)
    rng = random.Random(23)
    for ext in (1, 2):
        ctx = field(p, ext)
        a, b = random_poly(rng, ctx, n), random_poly(rng, ctx, n)
        # every coefficient of a b, as the sum of its products of elements
        expected = [
            sum((a.coeff(i) * b.coeff(k - i) for i in range(k + 1)), ctx.zero)
            for k in range(2 * n + 1)
        ]
        assert a * b == DensePoly.from_elements(ctx, expected)


def _float_boundary_primes(terms):
    """The largest prime p with terms (p-1)^2 < 2^53, and the next prime."""
    q = 1 + math.isqrt((poly._FLOAT_EXACT - 1) // terms)
    last = next(r for r in range(q, 1, -1) if is_prime(r))
    return last, next(r for r in range(q + 1, 2 * q) if is_prime(r))


# the last case has long operands, n + 1 = 2^16, and its bound near p = 2^18.5;
# m >= 4 squares over GF(p^2), and at (5, 6, 2) nu = p - 1 makes (1 + nu) a0 a1
# as large as it gets
@pytest.mark.parametrize(
    "m, deg, ext", [(3, 6, 1), (3, 6, 2), (3, 21845, 1), (4, 6, 2), (5, 6, 2)]
)
def test_pow_coeffs_float_route_is_exact_at_its_bound(monkeypatch, m, deg, ext):
    # every coefficient p - 1 makes the sums of products of residues as large
    # as residues allow; the middle coefficients of f^m sum the most of them.
    # With f = c (1 + x + ... + x^deg), c_k of f^m is c^m times the number of
    # ways to write k as an ordered sum of m parts in [0, deg]
    n = m * deg
    last, after = _float_boundary_primes(n + 1)
    indices = sorted({0, 1, n // 3, n // 2 - 1, n // 2, n // 2 + 1, n - 1, n})

    def parts(k):  # by inclusion-exclusion over the parts that exceed deg
        return sum(
            (-1) ** j * math.comb(m, j) * math.comb(k - j * (deg + 1) + m - 1, m - 1)
            for j in range(m + 1)
            if k - j * (deg + 1) >= 0
        )

    # f**m is an independent route to the same coefficients: at `after` it
    # still answers, while pow_coeffs refuses before convolving
    for p in (last, after):
        ctx = field(p, ext)
        c = ctx.from_coords((p - 1,) * ext)
        f = DensePoly.from_elements(ctx, [c] * (deg + 1))
        h = f**m
        expected = {k: c**m * ctx.elem(parts(k)) for k in indices}
        assert {k: h.coeff(k) for k in indices} == expected, p
        if p == last:
            assert pow_coeffs(f, m, indices) == expected, p
    monkeypatch.setattr(np, "convolve", _no_convolution)
    with pytest.raises(ValueError, match="2\\^53"):
        pow_coeffs(f, m, indices)


@pytest.mark.parametrize("p", [3, P_LARGE])
def test_pow_coeffs_degree_cap_fires_before_allocating(monkeypatch, p):
    monkeypatch.setattr(np, "convolve", _no_convolution)
    f = P(field(p), 1, 0, 0, 0, 0, 0, 0, 0, 1)  # degree 8
    with pytest.raises(ValueError, match="exceeds the cap"):
        pow_coeffs(f, poly.DEGREE_CAP // 8, [0])


@pytest.mark.parametrize("p", [524287, P_LARGE])
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
    monkeypatch.setattr(np.fft, "rfft", _no_convolution)
    monkeypatch.setattr(np.fft, "irfft", _no_convolution)
    with pytest.raises(ValueError, match="cost guard"):
        pow_coeffs(f, 11, [35])


# -- the FFT route of pow_coeffs' squarings and products ------------------------------


def _percival_bound(la, lb, p):
    """Percival's bound on the rounding error of an FFT product of residue
    arrays of lengths la and lb, to first order, twiddles within 2^-53."""
    k = (la + lb - 2).bit_length()
    return (6 * k + (3 * k + 1) * math.sqrt(5)) * 2.0**-53 * (p - 1) ** 2 * math.sqrt(la * lb)


def _spy(monkeypatch, owner, name):
    """Record the arguments and result of each call to owner.name, which
    keeps working."""
    real = getattr(owner, name)
    seen = []

    def spy(*args):
        out = real(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(owner, name, spy)
    return seen


# squares and products at the crossover and past it; the last two have
# operands of unequal length
@pytest.mark.parametrize(
    "la, lb", [(450, 450), (1000, 1000), (2048, 2048), (450, 700), (3000, 500)]
)
@pytest.mark.parametrize("ext", [1, 2])
def test_fft_route_matches_direct_at_the_admission_edge(monkeypatch, la, lb, ext):
    # all-(p-1) operands make |a|_2 |b|_2 as large as residues allow: the
    # worst case of the norm bound, at the largest prime the bound admits.
    # Random residues tell the coordinates apart
    q = math.isqrt(int(poly._FFT_ADMIT / _percival_bound(la, lb, 2))) + 2
    p = next(r for r in range(q, 2, -1) if is_prime(r) and poly._fft_exact(la, lb, r))
    assert not poly._fft_exact(la, lb, next(r for r in range(p + 1, 2 * p) if is_prime(r)))
    assert poly._float_exact(min(la, lb), p)  # the direct route is exact too
    nu = field(p, ext).nu
    rng = np.random.default_rng(la * lb + ext)
    pairs = []
    for draw in (lambda n: np.full(n, p - 1, dtype=np.int64), lambda n: rng.integers(0, p, n)):
        a = tuple(draw(la) for _ in range(ext))
        b = tuple(draw(lb) for _ in range(ext))
        pairs += [(a, a), (a, b)] if la == lb else [(a, b)]
    for x, y in pairs:
        with monkeypatch.context() as m:
            z = _spy(m, np.fft, "irfft")
            got = poly._fft_mul(x, y, p, nu)
        with monkeypatch.context() as m:
            m.setattr(poly, "_FFT_MIN_LEN", 1 << 62)
            expected = poly._arrays_mul(x, y, p, nu)
        assert got is not None and len(got) == ext
        for g, e in zip(got, expected):
            assert g.dtype == np.int64 and np.array_equal(g, e), (la, lb, ext, x is y)
        ((_, z),) = z
        error = np.abs(z - np.rint(z)).max()
        # measured with numpy 2.4: 2^4.8 to 2^6.4 below the bound for these
        # operands, so the admitted 1/16 leaves errors below 1/128 in practice
        assert error * 2**3 <= _percival_bound(la, lb, p) <= poly._FFT_ADMIT


def _cartier_indices(p, genus):
    return sorted({p * j - i for j in range(1, genus + 1) for i in range(1, genus + 1)})


# genus 6 at p = 1009 and 4001, genus 3 at p = 10 007: every long squaring is
# admitted there
@pytest.mark.parametrize("p, deg", [(1009, 13), (4001, 14), (10007, 7)])
@pytest.mark.parametrize("ext", [1, 2])
def test_pow_coeffs_fft_route_matches_the_naive_power(monkeypatch, p, deg, ext):
    ctx = field(p, ext)
    f = random_poly(random.Random(p * ext + deg), ctx, deg)
    m = (p - 1) // 2
    indices = _cartier_indices(p, (deg - 1) // 2) + [0, m * deg // 2, m * deg]
    h = poly_pow_naive(f, m)
    routed = _spy(monkeypatch, poly, "_fft_mul")
    assert pow_coeffs(f, m, indices) == {k: h.coeff(k) for k in indices}
    assert routed and all(out is not None for _, out in routed)


@pytest.mark.parametrize("p, deg", [(101, 13), (30011, 7)])
@pytest.mark.parametrize("ext", [1, 2])
def test_pow_coeffs_fft_route_not_taken_below_the_crossover_or_past_the_bound(
    monkeypatch, p, deg, ext
):
    # at p = 101 every operand is shorter than the crossover.  At p = 30 011
    # the bound admits squarings of up to about 4 000 terms and refuses the
    # last two, of about 26 000 and 52 000 terms, which are convolved directly
    ctx = field(p, ext)
    f = random_poly(random.Random(p), ctx, deg)
    m = (p - 1) // 2
    indices = _cartier_indices(p, (deg - 1) // 2)
    routed = _spy(monkeypatch, poly, "_fft_mul")
    direct = _spy(monkeypatch, poly, "_convolve")
    got = pow_coeffs(f, m, indices)
    longest_direct = max(len(a) for (a, _), _ in direct)
    if p == 101:
        assert not routed and longest_direct < poly._FFT_MIN_LEN
        h = poly_pow_naive(f, m)
        assert got == {k: h.coeff(k) for k in indices}
        return
    assert longest_direct == m // 2 * deg + 1  # the last squaring, of A
    assert not poly._fft_exact(longest_direct, longest_direct, p)
    assert routed and max(len(a[0]) for (a, *_), _ in routed) < longest_direct // 4
    # the last row of M, c_(3p-i), is within p of the top: the recurrence
    # reads it independently
    top = m * deg
    high = _recurrence_block(f.reverse(), m, p - 1, inverse_table(p, p - 1))
    last_row = [k for k in indices if top - k < p]
    assert len(last_row) == 3
    for k in last_row:
        assert got[k] == ctx.from_coords((high[top - k],) if ext == 1 else high[top - k])


@pytest.mark.parametrize("ext", [1, 2])
def test_fft_tripwire_redoes_the_product_directly(monkeypatch, ext):
    # an inverse transform 0.3 off every integer is caught: the products are
    # redone by the direct route, and the answer stays exact
    p, deg = 1009, 13
    ctx = field(p, ext)
    f = random_poly(random.Random(4242 + ext), ctx, deg)
    m = (p - 1) // 2
    indices = _cartier_indices(p, 6)
    h = poly_pow_naive(f, m)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.3)
    routed = _spy(monkeypatch, poly, "_fft_mul")
    direct = _spy(monkeypatch, poly, "_convolve")
    assert pow_coeffs(f, m, indices) == {k: h.coeff(k) for k in indices}
    assert routed and all(out is None for _, out in routed)
    assert max(len(a) for (a, _), _ in direct) >= poly._FFT_MIN_LEN


def test_oracles_never_reach_the_fft(monkeypatch):
    # poly_pow_naive and DensePoly products stay on the direct convolution,
    # so they check the FFT route rather than share it
    monkeypatch.setattr(np.fft, "rfft", _no_convolution)
    monkeypatch.setattr(np.fft, "irfft", _no_convolution)
    monkeypatch.setattr(poly, "_fft_mul", _no_convolution)
    rng = random.Random(97)
    for ext in (1, 2):
        ctx = field(1009, ext)
        f = random_poly(rng, ctx, 13)
        assert poly_pow_naive(f, 504).degree == 504 * 13
        a, b = random_poly(rng, ctx, 3000), random_poly(rng, ctx, 2000)
        assert poly._fft_exact(3001, 2001, 1009)
        assert (a * b).degree == 5000


def test_int64_bounds_of_the_constants():
    # numpy convolves and takes dot products only where _float_exact holds,
    # so for some terms >= 1 and p at most p_max
    p_max = 1 + math.isqrt(poly._FLOAT_EXACT - 1)
    assert poly._float_exact(1, p_max) and not poly._float_exact(1, p_max + 1)
    # there every sum of products of residues is an integer below 2^53, so
    # the int64 arrays and the dot products over them are exact as well
    assert poly._FLOAT_EXACT < 2**63
    # the cross term takes two reduced convolutions from that sum, and the
    # GF(p^2) real part adds nu < p times a reduced convolution to another;
    # a square's real part takes (1 + nu)(p - 1), 1 + nu <= p, at most from
    # a sum below 2^53
    assert -(2**63) < -2 * p_max and p_max + p_max * p_max < 2**63
    assert -(2**63) < -p_max * (p_max - 1)
    assert poly.EXPANSION_CAP < poly.DEGREE_CAP
    # a cartier expansion sums at most EXPANSION_CAP + 1 products per output,
    # so below p = 2^18 its convolutions take the float64 route
    assert poly._float_exact(poly.EXPANSION_CAP + 1, (1 << 18) - 1)
    # the recheck's recurrence sums six terms, each below p^3
    assert 6 * search.SWEEP_MAX_P**3 < 2**63
    # the sweep kernel's models, ladder and traces reduce after every
    # product of residues, so their values stay below 8 p^2
    assert 8 * search.SWEEP_MAX_P**2 <= 2**43 < 2**63
