import random

import pytest

from cmrank import ff
from cmrank.cartier import power_coeffs
from cmrank.ff import field, inverse_table, is_prime
from cmrank.poly import DensePoly

# the first prime past MAX_PRIME = 2^31
P_PAST_MAX = 2147483659


def test_context_construction():
    k9 = field(3, 2)
    assert k9.nu == 2  # w^2 = 2 = -1
    assert k9.order == 9
    k7 = field(7)
    assert k7.order == 7
    assert k7.nu is None


def test_context_rejects_bad_moduli():
    with pytest.raises(ValueError):
        field(4)
    with pytest.raises(ValueError):
        field(2)
    with pytest.raises(ValueError):
        field(9)
    with pytest.raises(ValueError):
        field(7, 3)


def test_field_memo_keeps_contexts_and_no_exceptions():
    assert field(7, 2) is field(7, 2)
    before = field.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError, match="even"):
            field(4)
    after = field.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 3, before.currsize)


def test_context_refuses_past_max_prime_before_primality(monkeypatch):
    assert P_PAST_MAX == next(q for q in range(ff.MAX_PRIME, ff.MAX_PRIME + 100) if is_prime(q))

    def refuse(n):
        raise AssertionError("tested primality past MAX_PRIME")

    monkeypatch.setattr(ff, "is_prime", refuse)
    for ext in (1, 2):
        with pytest.raises(ValueError, match="2\\^31"):
            field(P_PAST_MAX, ext)


def test_inverse_table():
    for p in (3, 7, 101):
        for upto in (0, 1, p // 2, p - 1):
            inv = inverse_table(p, upto)
            assert len(inv) == upto + 1 and inv[0] == 0
            assert all(k * inv[k] % p == 1 for k in range(1, upto + 1))


def test_modulus_choice_p1mod4():
    # 13 = 1 mod 4: smallest non-residue is 2
    k = field(13, 2)
    assert k.nu == 2
    assert k.from_coords((0, 1)) ** 2 == k.embed(field(13).elem(2))


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 107, 443, 491, 997]
    for n in primes:
        assert is_prime(n)
    for n in [0, 1, 4, 9, 15, 91, 561, 1000]:
        assert not is_prime(n)


def test_basic_arith_gf7():
    k = field(7)
    two = k.elem(2)
    assert (k.one / two) == k.elem(4)
    assert k.elem(3) + k.elem(5) == k.elem(1)
    assert k.elem(3) * k.elem(5) == k.elem(1)
    assert k.elem(3) - k.elem(5) == k.elem(5)


def test_gf9_i_squared():
    k = field(3, 2)
    i = k.from_coords((0, 1))
    assert i * i == k.elem(-1) == k.elem(2)


def test_division_by_zero():
    k = field(7)
    with pytest.raises(ZeroDivisionError):
        k.one / k.zero
    with pytest.raises(ZeroDivisionError):
        k.zero.inverse()


def test_context_mismatch():
    with pytest.raises(ValueError):
        field(7).one + field(11).one
    with pytest.raises(ValueError):
        field(7).one * field(7, 2).one


def test_frobenius_fixed_on_prime_field():
    k = field(7)
    for a in k.elements():
        assert a.frobenius() == a


def test_frobenius_on_gf9():
    k = field(3, 2)
    i = k.from_coords((0, 1))
    assert i.frobenius() == -i
    for a in k.elements():
        assert a.frobenius().frobenius() == a


def test_legendre_of_chosen_nonresidue():
    # nu is a non-residue mod p by Euler's criterion, nu^((p-1)/2) = -1, and
    # every nonzero element of GF(p) becomes a square in GF(p^2)
    for p in [5, 7, 11, 13, 17, 19, 23]:
        k = field(p, 2)
        assert pow(k.nu, (p - 1) // 2, p) == p - 1
        for a in field(p).elements():
            if not a.is_zero:
                assert k.embed(a) ** ((p * p - 1) // 2) == k.one


def test_field_axioms_random():
    rng = random.Random(20260809)
    for ctx in (field(101), field(13, 2), field(3, 2)):
        p = ctx.p
        for _ in range(1000 if ctx.ext_degree == 1 else 400):
            a = ctx.from_coords([rng.randrange(p) for _ in range(ctx.ext_degree)])
            b = ctx.from_coords([rng.randrange(p) for _ in range(ctx.ext_degree)])
            c = ctx.from_coords([rng.randrange(p) for _ in range(ctx.ext_degree)])
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ctx.zero
            if not a.is_zero:
                assert a * a.inverse() == ctx.one
                assert (b / a) * a == b


def test_frobenius_is_multiplicative():
    rng = random.Random(7)
    ctx = field(11, 2)
    for _ in range(300):
        a = ctx.from_coords((rng.randrange(11), rng.randrange(11)))
        b = ctx.from_coords((rng.randrange(11), rng.randrange(11)))
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_pow_matches_repeated_multiplication():
    ctx = field(5, 2)
    for a in ctx.elements():
        acc = ctx.one
        for e in range(8):
            assert a**e == acc
            acc = acc * a


def test_parse_and_format_roundtrip():
    k = field(11, 2)
    for text, coords in [
        ("3", (3, 0)),
        ("3+4*w", (3, 4)),
        ("w", (0, 1)),
        ("4*w", (0, 4)),
        ("-w", (0, 10)),
        ("3-2*w", (3, 9)),
    ]:
        assert k.parse(text) == k.from_coords(coords)
    for a in k.elements():
        assert k.parse(str(a)) == a
    kp = field(11)
    assert kp.parse("7") == kp.elem(7)
    with pytest.raises(ValueError):
        kp.parse("1+2*w")


def test_embed():
    kp = field(7)
    k2 = field(7, 2)
    a = kp.elem(3)
    assert k2.embed(a) == k2.elem(3)
    assert kp.embed(k2.elem(4)) == kp.elem(4)
    with pytest.raises(ValueError):
        kp.embed(k2.from_coords((0, 1)))


def test_elements_order_is_deterministic():
    k = field(3, 2)
    listed = [a.coords for a in k.elements()]
    assert listed == [(a, b) for a in range(3) for b in range(3)]


def _w_mul(x, y, p, nu):
    """(a + b w)(c + d w) for integer pairs, multiplied as polynomials in w
    and reduced by w^2 = nu mod p."""
    prod = [0, 0, 0]
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return ((prod[0] + nu * prod[2]) % p, prod[1] % p)


def test_gf_p2_arithmetic_matches_an_independent_oracle():
    # w^2 = -1 at p = 3 and 7, w^2 = 2, the smallest non-residue, at 5 and 13:
    # every product, inverse, power up to p + 1 and Frobenius image, against
    # integer pairs multiplied in the test, with inverses found by search
    for p, nu in ((3, 2), (5, 2), (7, 6), (13, 2)):
        ctx = field(p, 2)
        assert ctx.nu == nu
        pairs = [(a, b) for a in range(p) for b in range(p)]
        for x in pairs:
            a = ctx.from_coords(x)
            assert [(a * ctx.from_coords(y)).coords for y in pairs] == [
                _w_mul(x, y, p, nu) for y in pairs
            ]
            powers = [(1, 0)]
            for _ in range(p + 1):
                powers.append(_w_mul(powers[-1], x, p, nu))
            assert [(a**e).coords for e in range(p + 2)] == powers
            assert a.frobenius().coords == powers[p]
            if x != (0, 0):
                inv = next(y for y in pairs if _w_mul(x, y, p, nu) == (1, 0))
                assert a.inverse().coords == (a**-1).coords == inv


def test_every_route_to_a_value_gives_one_element():
    # the constructors, DensePoly.coeff and power_coeffs give equal elements
    # with equal hashes, so that a set built by one route answers lookups by
    # another, as verify's ss_set of supersingular lambdas does
    for p in (3, 5, 7, 13):
        for ext in (1, 2):
            ctx = field(p, ext)
            for a in ctx.elements():
                f = DensePoly.from_elements(ctx, [a, ctx.one])
                routes = [ctx.from_coords(a.coords), ctx.parse(str(a)), f.coeff(0)]
                if ext == 1 or a.coords[1] == 0:
                    routes.append(ctx.elem(a.coords[0] - p))
                for strategy in ("naive", "recurrence"):
                    routes.append(power_coeffs(f, 1, [0], strategy)[0])
                    square = power_coeffs(f, 2, [0], strategy)[0]
                    assert square == a * a and hash(square) == hash(a * a)
                assert all(r == a and hash(r) == hash(a) for r in routes), (p, ext, a)
                assert set(routes) == {a}
