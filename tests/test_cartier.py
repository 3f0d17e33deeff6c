import dataclasses
import random

import pytest

from cmrank import cartier
from cmrank.cartier import (
    HyperellipticModel,
    RecurrenceUnavailable,
    cartier_matrix,
    is_superspecial,
    matrix_rank,
    p_rank,
    power_coeffs,
    prank_oracle,
)
from cmrank.ff import field, inverse_table
from cmrank.poly import DensePoly

from helpers import random_model, random_poly, random_squarefree

SMALL_PRIMES = [3, 5, 7, 11, 13]
PRIMES_TO_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def model(p, ints, ext=1):
    ctx = field(p, ext)
    return HyperellipticModel(ctx, DensePoly.from_ints(ctx, ints))


def xn_minus_tn(ctx, n, t):
    raw = [(-(t**n)) % ctx.p] + [0] * (n - 1) + [1]
    return HyperellipticModel(ctx, DensePoly.from_ints(ctx, raw))


# -- power_coeffs ---------------------------------------------------------------


def test_power_coeffs_char3_quartic():
    k3 = field(3)
    f = DensePoly.from_ints(k3, [0, 1, 0, 1, 1])  # x^4 + x^3 + x
    assert power_coeffs(f, 1, {2})[2].is_zero


def test_power_coeffs_m_zero():
    k = field(7)
    f = DensePoly.from_ints(k, [2, 0, 5, 1])
    assert power_coeffs(f, 0, {0}) == {0: k.one}


def test_power_coeffs_out_of_range():
    k = field(5)
    f = DensePoly.from_ints(k, [1, 1])
    with pytest.raises(IndexError):
        power_coeffs(f, 2, {3})


def test_power_coeffs_recurrence_matches_naive_spec_case():
    rng = random.Random(2023)
    k = field(23)
    f = random_squarefree(rng, k, 6, nonzero_const=True)
    m = 11
    idx = {21, 22, 44, 45}  # p-2, p-1, 2p-2, 2p-1
    rec = power_coeffs(f, m, idx, "recurrence")
    nai = power_coeffs(f, m, idx, "naive")
    assert rec == nai


def test_power_coeffs_recurrence_precondition_errors():
    k = field(11)
    # f(0) = 0: f^5 = x^5 (1 + x^5)^5, so c_3 = 0 and c_10 is read from the
    # low end of (1 + x^5)^5
    f = DensePoly.from_ints(k, [0, 1, 0, 0, 0, 0, 1])
    got = power_coeffs(f, 5, {3, 10, 29}, "recurrence")
    assert got.strategy == "recurrence"
    assert got == power_coeffs(f, 5, {3, 10, 29}, "naive")
    assert got[3].is_zero
    g = DensePoly.from_ints(k, [1, 1, 0, 0, 0, 0, 1])
    # middle index: neither k < p nor top-k < p (top = 30)
    for h, mid in ((g, 15), (f, 17)):  # for f: neither k - 5 < p nor top-k < p
        with pytest.raises(RecurrenceUnavailable, match="not within p"):
            power_coeffs(h, 5, {mid}, "recurrence")
        # auto falls back to the naive route
        auto = power_coeffs(h, 5, {mid}, "auto")
        assert auto.strategy == "naive" and auto == power_coeffs(h, 5, {mid}, "naive")


def test_power_coeffs_recurrence_on_x_power_times_unit_matches_naive():
    # f = x^v h with h(0) != 0: indices below v*m read 0, the rest within p
    # of v*m or of the top are read by the recurrence; "auto" expands these
    # small powers
    rng = random.Random(4242)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11, 13, 29, 53, 101])
        ext = rng.choice((1, 2))
        ctx = field(p, ext)
        v = rng.choice((1, 2))
        h = random_poly(rng, ctx, rng.randrange(1, 6), nonzero_const=True)
        f = h.shift_x(v)
        m = rng.randrange(1, p)
        top = m * f.degree
        low = v * m
        reachable = [k for k in range(top + 1) if k - low < p or top - k < p]
        idx = set(rng.sample(reachable, min(6, len(reachable)))) | {rng.randrange(low)}
        naive = power_coeffs(f, m, idx, "naive")
        got = power_coeffs(f, m, idx, "recurrence")
        assert got.strategy == "recurrence" and got == naive, (p, ext, v, m, sorted(idx))
        assert power_coeffs(f, m, idx, "auto").strategy == "naive"


def test_power_coeffs_builds_one_inverse_table(monkeypatch):
    calls = []

    def spy(p, upto):
        calls.append(upto)
        return inverse_table(p, upto)

    monkeypatch.setattr(cartier, "inverse_table", spy)
    p = 101
    ctx = field(p)
    f = random_squarefree(random.Random(5), ctx, 6, nonzero_const=True)
    m = (p - 1) // 2
    idx = {5, m * 6 - 50}  # 5 steps from the low end, 50 from the top
    got = power_coeffs(f, m, idx, "recurrence")
    assert calls == [50]
    assert got == power_coeffs(f, m, idx, "naive")


def test_recurrence_cost_guard_boundary(monkeypatch):
    # with the guard at p - 2, indices p - 2 steps from an end are read and
    # p - 1 steps are refused; "auto", past its crossover, then reads the
    # matrix by full expansion
    from cmrank import cartier

    p = 23
    ctx = field(p)
    m = (p - 1) // 2
    f = random_squarefree(random.Random(2323), ctx, 6, nonzero_const=True)
    C = HyperellipticModel(ctx, f)
    expected = cartier_matrix(C, "recurrence")
    assert expected.strategy == "recurrence"
    assert cartier_matrix(C).strategy == "naive"  # below the crossover
    monkeypatch.setattr(cartier, "EXPAND_MAX_DEGREE", 0)
    assert cartier_matrix(C).strategy == "recurrence"
    monkeypatch.setattr(cartier, "RECURRENCE_CAP", p - 2)
    edge = {p - 2, 2 * p - 1}  # p - 2 steps from the low and the high end
    assert power_coeffs(f, m, edge, "recurrence") == power_coeffs(f, m, edge, "naive")
    for k in (p - 1, 2 * p - 2):
        with pytest.raises(RecurrenceUnavailable, match="cost guard"):
            power_coeffs(f, m, {k}, "recurrence")
    with pytest.raises(RecurrenceUnavailable, match="cost guard"):
        cartier_matrix(C, "recurrence")
    past = cartier_matrix(C)
    assert past.strategy == "naive" and past.M == expected.M
    # for x f the low end is m: steps count from there
    g = f.shift_x(1)
    assert power_coeffs(g, m, {m + p - 2}, "recurrence") == power_coeffs(g, m, {m + p - 2}, "naive")
    with pytest.raises(RecurrenceUnavailable, match="cost guard"):
        power_coeffs(g, m, {m + p - 1}, "recurrence")


def test_matrix_read_calls_power_coeffs_once(monkeypatch):
    from cmrank import cartier

    calls = []

    def spy(f, m, indices, strategy="auto"):
        out = power_coeffs(f, m, indices, strategy)
        calls.append(out.strategy)
        return out

    monkeypatch.setattr(cartier, "power_coeffs", spy)
    ctx = field(101)
    rng = random.Random(77)
    for deg, route in ((6, "recurrence"), (7, "naive")):  # genus 2 and 3
        C = HyperellipticModel(ctx, random_squarefree(rng, ctx, deg, nonzero_const=True))
        assert cartier_matrix(C, route).strategy == route
        # "auto" expands both below the crossover
        assert cartier_matrix(C).strategy == "naive"
        assert is_superspecial(C) is False
        assert calls == [route, "naive", "naive"]
        calls.clear()


def test_strategy_agreement_random():
    rng = random.Random(808)
    cases = 0
    while cases < 100:
        p = PRIMES_TO_50[rng.randrange(len(PRIMES_TO_50))]
        ctx = field(p)
        deg = rng.randrange(3, 7)
        f = random_squarefree(rng, ctx, deg, nonzero_const=True)
        m = (p - 1) // 2
        top = m * deg
        reachable = sorted(
            {k for k in range(top + 1) if k < p or top - k < p}
        )
        idx = set(rng.sample(reachable, min(6, len(reachable))))
        assert power_coeffs(f, m, idx, "recurrence") == power_coeffs(f, m, idx, "naive")
        cases += 1


def _refuse(*args):
    raise AssertionError("took the route this query must not take")


@pytest.mark.parametrize("ext", [1, 2])
def test_auto_expands_genus2_below_the_crossover(monkeypatch, ext):
    # n = 3 * 1008 is far below EXPAND_MAX_DEGREE, so "auto" never starts the
    # recurrence, which reaches every entry of a genus-2 model
    ctx = field(1009, ext)
    C = HyperellipticModel(ctx, random_squarefree(random.Random(1009), ctx, 6, nonzero_const=True))
    expected = cartier_matrix(C, "recurrence")
    monkeypatch.setattr(cartier, "_recurrence_block", _refuse)
    assert cartier_matrix(C) == dataclasses.replace(expected, strategy="naive")


def test_auto_takes_the_recurrence_past_the_crossover(monkeypatch):
    # genus 1 at p = 30 011: n = 3 * 15 005 = 45 015 > EXPAND_MAX_DEGREE
    p = 30011
    ctx = field(p)
    f = random_squarefree(random.Random(30011), ctx, 3, nonzero_const=True)
    m = (p - 1) // 2
    assert m * f.degree > cartier.EXPAND_MAX_DEGREE
    expected = power_coeffs(f, m, {p - 1}, "naive")
    monkeypatch.setattr(cartier, "pow_coeffs", _refuse)
    got = power_coeffs(f, m, {p - 1})
    assert got.strategy == "recurrence" and got == expected


def test_auto_crossover_boundary(monkeypatch):
    # a power of degree n expands with the constant at n, and is read by the
    # recurrence with the constant at n - 1
    p = 101
    ctx = field(p)
    f = random_squarefree(random.Random(101), ctx, 6, nonzero_const=True)
    m = (p - 1) // 2
    n = m * f.degree
    idx = {p - 2, p - 1, 2 * p - 2, 2 * p - 1}
    expected = power_coeffs(f, m, idx, "naive")
    for cap, route in ((n, "naive"), (n - 1, "recurrence")):
        monkeypatch.setattr(cartier, "EXPAND_MAX_DEGREE", cap)
        got = power_coeffs(f, m, idx)
        assert got.strategy == route and got == expected, cap


def test_auto_answers_small_powers_past_the_float_bound():
    # n = 1000 is below the crossover, but 1001 (p-1)^2 >= 2^53, so "auto"
    # takes the recurrence, as it did before the crossover existed
    from math import comb

    p = 2**31 - 1
    ctx = field(p)
    f = DensePoly.from_ints(ctx, [1, 1])  # (1 + x)^1000
    idx = {0, 1, 7, 500, 999, 1000}
    got = power_coeffs(f, 1000, idx)
    assert got.strategy == "recurrence"
    assert got == {k: ctx.elem(comb(1000, k)) for k in idx}


# -- cartier_matrix / p_rank / is_superspecial -----------------------------------


def test_char3_supersingular_quartic():
    C = model(3, [0, 1, 0, 1, 1])
    data = cartier_matrix(C)
    assert len(data.M) == 1 and data.M[0][0].is_zero
    assert data.p_rank == 0


def test_x5_minus_1_gf19_superspecial():
    C = model(19, [-1, 0, 0, 0, 0, 1])
    data = cartier_matrix(C)
    assert all(x.is_zero for row in data.M for x in row)
    assert data.p_rank == 0
    assert is_superspecial(C)


def test_genus1_gf5_matches_oracle():
    C = model(5, [0, 2, 2, 1])  # x(x-1)(x-2) = x^3 + 2x^2 + 2x over GF(5)
    assert p_rank(C) in (0, 1)
    assert p_rank(C) == prank_oracle(C)


def test_x6_minus_1_gf11_prank_zero():
    ctx = field(11)
    C = xn_minus_tn(ctx, 6, 1)
    assert p_rank(C) == 0  # 11 = -1 mod 6


def test_ordinary_legendre_rank_one():
    # y^2 = x(x-1)(x-3) over GF(7): Hasse invariant nonzero
    ctx = field(7)
    f = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, ctx.elem(3)])
    C = HyperellipticModel(ctx, f)
    if cartier_matrix(C).M[0][0].is_zero:
        pytest.skip("unexpectedly supersingular witness")
    assert p_rank(C) == 1


def test_x7_minus_1_gf3_rank_two():
    C = model(3, [-1, 0, 0, 0, 0, 0, 0, 1])
    data = cartier_matrix(C)
    assert not is_superspecial(C)
    assert matrix_rank(data.M) == 2
    s = {i for i in range(1, 4) if 1 <= (3 * i) % 7 <= 3}
    assert len(s) == 2


def test_singular_model_rejected():
    ctx = field(7)
    with pytest.raises(ValueError):
        HyperellipticModel(ctx, DensePoly.from_ints(ctx, [1, -2, 1]))  # degree 2
    with pytest.raises(ValueError):
        HyperellipticModel.from_ints(ctx, [0, 0, 1, 1])  # x^2(x+1)


# -- the independent oracle -------------------------------------------------------


def test_oracle_supersingular_elliptic_gf7():
    C = model(7, [0, 1, 0, 1])  # y^2 = x^3 + x
    assert prank_oracle(C) == 0


def test_oracle_ordinary_elliptic():
    C = model(7, [1, 1, 0, 1])
    assert prank_oracle(C) == p_rank(C) == 1


def test_oracle_genus2_gf19():
    C = model(19, [-1, 0, 0, 0, 0, 1])
    assert prank_oracle(C) == 0 == p_rank(C)


def test_oracle_guard():
    with pytest.raises(ValueError):
        prank_oracle(model(37, [1, 1, 0, 1]))
    ctx = field(7, 2)
    with pytest.raises(ValueError):
        prank_oracle(HyperellipticModel.from_ints(ctx, [1, 1, 0, 1]))


def test_oracle_genus_guard_fires_before_counting_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("counted points past the oracle guard")

    monkeypatch.setattr(cartier, "_count_points", refuse)
    C = model(7, [0, -1] + [0] * 7 + [1])  # x^9 - x
    assert C.genus == cartier.ORACLE_MAX_GENUS + 1
    with pytest.raises(ValueError, match="oracle guard"):
        prank_oracle(C)


def test_oracle_agreement_random():
    # "auto" expands these small models, so genus <= 2 also goes through the
    # recurrence, which reaches every entry of theirs
    rng = random.Random(1905)
    cases = 0
    while cases < 50:
        p = SMALL_PRIMES[rng.randrange(len(SMALL_PRIMES))]
        ctx = field(p)
        deg = rng.randrange(3, 7)
        C = random_model(rng, ctx, deg)
        expected = prank_oracle(C)
        assert p_rank(C) == expected, f"disagreement for {C!r}"
        if C.genus <= 2:
            assert cartier_matrix(C, "recurrence").p_rank == expected, f"disagreement for {C!r}"
        cases += 1


def test_oracle_agreement_f0_zero():
    # f = x h with h(0) != 0: the recurrence reads genus <= 2 matrices on h
    # at the low end, with no shift of the model; "auto" expands them
    rng = random.Random(1203)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        ctx = field(p)
        for deg in (3, 4, 5, 6, 7, 8) if p <= 13 else (3, 4, 5, 6):
            # h squarefree with h(0) != 0, so x h is squarefree
            h = random_squarefree(rng, ctx, deg - 1, nonzero_const=True)
            C = HyperellipticModel(ctx, h.shift_x(1))
            expected = prank_oracle(C)
            assert p_rank(C) == expected, f"disagreement for {C!r}"
            if C.genus <= 2:
                rec = cartier_matrix(C, "recurrence")
                assert rec.strategy == "recurrence" and rec.p_rank == expected, f"{C!r}"
                assert cartier_matrix(C).strategy == "naive"


def test_oracle_agreement_genus3_sample():
    rng = random.Random(64)
    for _ in range(6):
        C = random_model(rng, field(5), 7)
        assert p_rank(C) == prank_oracle(C)


# -- invariance properties --------------------------------------------------------


def test_substitution_invariance():
    rng = random.Random(3141)
    for _ in range(25):
        p = SMALL_PRIMES[rng.randrange(len(SMALL_PRIMES))]
        ctx = field(p)
        C = random_model(rng, ctx, rng.randrange(3, 7))
        s = ctx.elem(rng.randrange(p))
        shifted = HyperellipticModel(ctx, C.f.compose_linear(s))
        assert p_rank(C) == p_rank(shifted)


def test_scaling_acts_entrywise_and_preserves_predicates():
    rng = random.Random(2718)
    for _ in range(25):
        p = SMALL_PRIMES[rng.randrange(len(SMALL_PRIMES))]
        ctx = field(p)
        C = random_model(rng, ctx, rng.randrange(3, 7))
        c = ctx.elem(rng.randrange(1, p))
        scaled = HyperellipticModel(ctx, C.f.scale(c))
        factor = c ** ((p - 1) // 2)
        assert factor in (ctx.one, -ctx.one)
        M0 = cartier_matrix(C).M
        M1 = cartier_matrix(scaled).M
        for r0, r1 in zip(M0, M1):
            for x0, x1 in zip(r0, r1):
                assert x1 == factor * x0
        assert p_rank(C) == p_rank(scaled)
        assert is_superspecial(C) == is_superspecial(scaled)


def test_rank_bound():
    rng = random.Random(5)
    for _ in range(30):
        p = SMALL_PRIMES[rng.randrange(len(SMALL_PRIMES))]
        C = random_model(rng, field(p), rng.randrange(3, 9))
        assert 0 <= p_rank(C) <= C.genus


def test_prank_invariant_under_galois_conjugation():
    # conjugating every coefficient twists the Cartier matrix entrywise, so
    # the iterate ranks of a model and its conjugate agree
    rng = random.Random(906)
    from cmrank.poly import DensePoly as DP

    for _ in range(15):
        p = [3, 5, 7][rng.randrange(3)]
        ctx = field(p, 2)
        C = random_model(rng, ctx, rng.randrange(4, 7))
        conj = HyperellipticModel(
            ctx, DP.from_elements(ctx, [c.frobenius() for c in C.f.coeffs])
        )
        M = cartier_matrix(C).M
        Mc = cartier_matrix(conj).M
        for r, rc in zip(M, Mc):
            for x, xc in zip(r, rc):
                assert xc == x.frobenius()
        assert p_rank(C) == p_rank(conj)


def _mat_mul(A, B):
    """Matrix product on FieldElements: the oracle of the raw-residue
    product in `semilinear_iterate`."""
    n, k, m = len(A), len(B), len(B[0])
    zero = A[0][0].ctx.zero
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = zero
            for t in range(k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_frob(M):
    return tuple(tuple(x.frobenius() for x in row) for row in M)


def test_semilinear_iterate_matches_field_element_product():
    from cmrank.cartier import semilinear_iterate

    rng = random.Random(4242)
    for p in (3, 7, 1009):
        for ext in (1, 2):
            ctx = field(p, ext)
            for g in range(1, 7):
                M = tuple(
                    tuple(
                        ctx.from_coords([rng.randrange(p) for _ in range(ext)])
                        for _ in range(g)
                    )
                    for _ in range(g)
                )
                T = F = M
                for _ in range(1, g):
                    F = _mat_frob(F)
                    T = _mat_mul(F, T)
                assert semilinear_iterate(M) == T, (p, ext, g)


def _rank_oracle(M):
    """Rank by Gauss-Jordan elimination on FieldElements: the oracle of the
    raw-residue elimination `_raw_rank`."""
    rows = [list(r) for r in M]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_raw_rank_matches_field_element_elimination():
    from cmrank.cartier import _raw_matrix, _raw_rank

    rng = random.Random(6161)
    cases = 0
    for p in (3, 7, 1009):
        for ext in (1, 2):
            ctx = field(p, ext)

            def rand():
                return ctx.from_coords([rng.randrange(p) for _ in range(ext)])

            for _ in range(60):
                nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
                # a product of nrows x k and k x ncols factors has rank <= k
                k = rng.randrange(0, min(nrows, ncols) + 1)
                left = [[rand() for _ in range(k)] for _ in range(nrows)]
                right = [[rand() for _ in range(ncols)] for _ in range(k)]
                M = [
                    [sum((row[t] * right[t][j] for t in range(k)), ctx.zero) for j in range(ncols)]
                    for row in left
                ]
                for r in rng.sample(range(nrows), rng.randrange(nrows)):
                    M[r] = [ctx.zero] * ncols
                expected = _rank_oracle(M)
                assert expected <= k
                cases += expected < min(nrows, ncols)
                assert _raw_rank(ctx, _raw_matrix(M)) == expected, (p, ext, M)
                assert matrix_rank(M) == expected, (p, ext, M)
    assert cases > 100  # rank-deficient matrices dominate
    assert matrix_rank([]) == 0


def test_is_superspecial_forms_no_iterate(monkeypatch):
    from cmrank import cartier

    rng = random.Random(5151)
    models = [model(19, [-1, 0, 0, 0, 0, 1]), model(3, [-1, 0, 0, 0, 0, 0, 0, 1])]
    models += [xn_minus_tn(field(p), n, 1) for n in (3, 5, 6) for p in (11, 13, 17, 29)]
    models += [random_model(rng, field(p, ext), rng.randrange(3, 10))
               for p in (3, 5, 7) for ext in (1, 2) for _ in range(4)]
    expected = [all(x.is_zero for row in cartier_matrix(C).M for x in row) for C in models]
    assert any(expected) and not all(expected)

    def refuse(*args):
        raise AssertionError("is_superspecial must not form the semilinear iterate or a rank")

    for name in ("_raw_iterate", "_raw_rank", "semilinear_iterate", "matrix_rank"):
        monkeypatch.setattr(cartier, name, refuse)
    assert [is_superspecial(C) for C in models] == expected


def test_iterate_rank_is_stable():
    # the g-fold semilinear product already has the stable rank: twisting
    # further and multiplying again never drops it
    from cmrank.cartier import semilinear_iterate

    rng = random.Random(777)
    for _ in range(20):
        ext = rng.randrange(1, 3)
        p = [3, 5, 7][rng.randrange(3)]
        ctx = field(p, ext)
        C = random_model(rng, ctx, rng.randrange(3, 8))
        M = cartier_matrix(C).M
        g = C.genus
        T = semilinear_iterate(M)
        F = M
        for _ in range(1, g):
            F = _mat_frob(F)
        longer = T
        for _ in range(g):
            F = _mat_frob(F)
            longer = _mat_mul(F, longer)
        assert matrix_rank(longer) == matrix_rank(T) == p_rank(C)


def test_rank_formula_xn_tn():
    for n in range(3, 13):
        for p in PRIMES_TO_50:
            if n % p == 0 or p % n == 1:
                continue
            ctx = field(p)
            for t in (1, 2):
                C = xn_minus_tn(ctx, n, t)
                g = C.genus
                data = cartier_matrix(C)
                s = {i for i in range(1, g + 1) if 1 <= (p * i) % n <= g}
                assert matrix_rank(data.M) == len(s), (n, p, t)
                assert matrix_rank(data.M) < g, (n, p, t)
                if p % n == n - 1:
                    assert all(x.is_zero for row in data.M for x in row), (n, p, t)
