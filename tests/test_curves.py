import itertools

import pytest

from cmrank import curves
from cmrank.cartier import HyperellipticModel, p_rank, power_coeffs
from cmrank.curves import (
    LegendreCurve,
    hasse_invariant,
    quartic_hasse_char3,
    supersingular_lambdas,
)
from cmrank.ff import field, is_prime
from cmrank.poly import DensePoly, is_squarefree, poly_pow_naive


def test_legendre_rejects_degenerate_lambda():
    k = field(7)
    with pytest.raises(ValueError):
        LegendreCurve(k.zero)
    with pytest.raises(ValueError):
        LegendreCurve(k.one)


def test_hasse_invariant_matches_one_by_one_matrix():
    k = field(7)
    for a in range(2, 7):
        E = LegendreCurve(k.elem(a))
        from cmrank.cartier import cartier_matrix

        assert hasse_invariant(E) == cartier_matrix(E.model()).M[0][0]


def test_hasse_zero_iff_prank_zero():
    k = field(13)
    for a in range(2, 13):
        E = LegendreCurve(k.elem(a))
        assert hasse_invariant(E).is_zero == (p_rank(E.model()) == 0)


def test_deuring_form_p5():
    # brute force over GF(25): supersingular lambdas are exactly the roots of
    # 1 + 4*lam + lam^2
    ctx = field(5, 2)
    deuring = DensePoly.from_ints(ctx, [1, 4, 1])
    brute = []
    for lam in ctx.elements():
        if lam.is_zero or lam == ctx.one:
            continue
        if hasse_invariant(LegendreCurve(lam)).is_zero:
            brute.append(lam)
    assert brute == [x for x in supersingular_lambdas(5)]
    for lam in brute:
        assert deuring.evaluate(lam).is_zero
    assert len(brute) == 2
    assert all(lam.coords[1] != 0 for lam in brute)  # both outside GF(5)


def test_lambda_symmetry_one_minus_lambda():
    ctx = field(7, 2)
    for lam in ctx.elements():
        if lam.is_zero or lam == ctx.one:
            continue
        mirrored = ctx.one - lam
        if mirrored.is_zero or mirrored == ctx.one:
            continue
        a = p_rank(LegendreCurve(lam).model())
        b = p_rank(LegendreCurve(mirrored).model())
        assert a == b


def test_supersingular_lambdas_small():
    k9 = field(3, 2)
    assert supersingular_lambdas(3) == [k9.elem(2)]
    assert len(supersingular_lambdas(11)) == 5


def test_supersingular_lambdas_scan_agrees_with_prank():
    for p in (3, 5, 7, 11, 13):
        ctx = field(p, 2)
        returned = set(supersingular_lambdas(p))
        for lam in ctx.elements():
            if lam.is_zero or lam == ctx.one:
                continue
            expected = 0 if lam in returned else 1
            assert p_rank(LegendreCurve(lam).model()) == expected


def test_supersingular_count():
    # the count is (p-1)/2 and each hit is rechecked through power_coeffs
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        lams = supersingular_lambdas(p)
        assert len(lams) == (p - 1) // 2
        for lam in lams:
            assert hasse_invariant(LegendreCurve(lam)).is_zero


def test_supersingular_lambdas_vectorized_path_agrees():
    # the numpy scan at a larger prime: recheck each hit and the count
    lams = supersingular_lambdas(41)
    assert len(lams) == 20
    for lam in lams:
        assert hasse_invariant(LegendreCurve(lam)).is_zero


def test_hasse_poly_closed_form_matches_expansion():
    # the T^k coefficient is P_k * P_(m-k) with P = (x-1)^m, read here from
    # the expanded power
    for p in range(3, 400, 2):
        if not is_prime(p):
            continue
        ctx = field(p)
        m = (p - 1) // 2
        P = poly_pow_naive(DensePoly.from_ints(ctx, [-1, 1]), m).raw()
        expected = DensePoly(ctx, [P[k] * P[m - k] % p for k in range(m + 1)])
        assert curves._hasse_poly_in_lambda(p) == expected, p


def test_supersingular_lambdas_size_guard(monkeypatch):
    # 2053 is the first prime past the bound; the guard fires before the
    # field or the Hasse polynomial is built
    assert curves.SS_LAMBDAS_MAX_P < 2053

    def refuse(*args):
        raise AssertionError("allocated past the size guard")

    monkeypatch.setattr(curves, "field", refuse)
    monkeypatch.setattr(curves, "_hasse_poly_in_lambda", refuse)
    with pytest.raises(ValueError, match="bound"):
        supersingular_lambdas(2053)


def test_quartic_criterion_examples():
    k9 = field(3, 2)
    assert quartic_hasse_char3(DensePoly.from_ints(k9, [0, 1, 0, 1, 1])).is_zero
    d2 = DensePoly(k9, [(0, 0), (0, 1), (0, 0), (0, 2), (1, 0)])
    assert quartic_hasse_char3(d2).is_zero
    f = DensePoly.from_ints(k9, [1, 1, 1, 0, 1])
    assert quartic_hasse_char3(f) == k9.one


def test_quartic_criterion_errors():
    k9 = field(3, 2)
    with pytest.raises(ValueError):
        quartic_hasse_char3(DensePoly.from_ints(k9, [1, 1, 1]))
    with pytest.raises(ValueError):
        quartic_hasse_char3(DensePoly.from_ints(field(5), [1, 1, 1, 0, 1]))
    cube = DensePoly.from_ints(k9, [0, 1]) ** 3 * DensePoly.from_ints(k9, [1, 1])
    with pytest.raises(ValueError):
        quartic_hasse_char3(cube)


def test_quartic_criterion_matches_generic_matrix():
    # every squarefree quartic over GF(9)
    k9 = field(3, 2)
    elems = list(itertools.product(range(3), repeat=2))
    count = 0
    for lead in elems:
        if lead == (0, 0):
            continue
        for c0 in elems:
            for c1 in elems:
                for c2 in elems:
                    for c3 in elems:
                        f = DensePoly(k9, [c0, c1, c2, c3, lead])
                        if not is_squarefree(f):
                            continue
                        assert quartic_hasse_char3(f) == power_coeffs(f, 1, {2})[2]
                        count += 1
    assert count > 0


def test_genus1_quartic_accepted_as_model():
    k9 = field(3, 2)
    C = HyperellipticModel(k9, DensePoly.from_ints(k9, [0, 1, 0, 1, 1]))
    assert C.genus == 1
    assert p_rank(C) == 0
