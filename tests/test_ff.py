import random

import pytest

from cmrank.ff import field, frobenius, is_prime, legendre


def test_context_construction():
    k9 = field(3, 2)
    assert k9.modulus_poly == (1, 0, 1)  # x^2 + 1
    assert k9.nu == 2
    k7 = field(7)
    assert k7.order == 7
    assert k7.modulus_poly is None


def test_context_rejects_bad_moduli():
    with pytest.raises(ValueError):
        field(4)
    with pytest.raises(ValueError):
        field(2)
    with pytest.raises(ValueError):
        field(9)
    with pytest.raises(ValueError):
        field(7, 3)


def test_modulus_choice_p1mod4():
    # 13 = 1 mod 4: smallest non-residue is 2
    k = field(13, 2)
    assert k.nu == 2
    assert k.modulus_poly == (11, 0, 1)


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
    i = k.gen
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
        assert frobenius(a) == a


def test_frobenius_on_gf9():
    k = field(3, 2)
    i = k.gen
    assert frobenius(i) == -i
    for a in k.elements():
        assert frobenius(frobenius(a)) == a


def test_legendre_values():
    k11 = field(11)
    assert legendre(k11.elem(3)) == 1  # 5^2 = 25 = 3
    assert legendre(k11.zero) == 0
    k13 = field(13, 2)
    nonres = field(13).elem(field(13, 2).nu)
    assert legendre(nonres) == -1


def test_legendre_of_chosen_nonresidue():
    for p in [5, 7, 11, 13, 17, 19, 23]:
        k = field(p, 2)
        assert legendre(field(p).elem(k.nu)) == -1
        # every element of GF(p) becomes a square in GF(p^2)
        for a in field(p).elements():
            if not a.is_zero:
                assert legendre(k.embed(a)) == 1


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
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        assert frobenius(a + b) == frobenius(a) + frobenius(b)


def test_legendre_is_multiplicative():
    rng = random.Random(99)
    for ctx in (field(23), field(7, 2)):
        for _ in range(200):
            a = ctx.from_coords([rng.randrange(ctx.p) for _ in range(ctx.ext_degree)])
            b = ctx.from_coords([rng.randrange(ctx.p) for _ in range(ctx.ext_degree)])
            if a.is_zero or b.is_zero:
                continue
            assert legendre(a) * legendre(b) == legendre(a * b)


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
        kp.embed(k2.gen)


def test_elements_order_is_deterministic():
    k = field(3, 2)
    listed = [a.coords for a in k.elements()]
    assert listed == [(a, b) for a in range(3) for b in range(3)]
