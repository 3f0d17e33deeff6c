import dataclasses
import hashlib
import json
import random
from itertools import product
from math import isqrt

import numpy as np
import pytest

from cmrank import cartier, search
from cmrank.cartier import (
    HyperellipticModel,
    _cartier_entries_vec,
    _inverse_table,
    _power_coeffs_vec,
    _raw_matrix,
    cartier_matrix,
    is_superspecial,
)
from cmrank.covers import kani_rosen_triple, triple_with_pranks
from cmrank.ff import FieldCtx, field, inverse_table, is_prime
from cmrank.poly import DensePoly, is_squarefree, pow_coeffs
from cmrank.search import (
    _A_FACTOR,
    _B_FACTORS,
    SweepConfig,
    _classify,
    _ladder_finite,
    _monic_tails,
    _orbit,
    _pair_polys,
    _quotient_rows,
    _rows_mul,
    _split_models,
    _sweep_w_line,
    _transport_rows,
    _w_line,
    load_result,
    result_path,
    result_text,
    ss5_check_pair,
    ss5_sweep,
    ss5_sweep_ext,
    superspecial_g2_enumeration,
    sweep_with_cache,
    verify_solution_story,
)

from helpers import random_squarefree


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(p=13)  # 13 = 1 mod 12
    with pytest.raises(ValueError):
        SweepConfig(p=121)
    with pytest.raises(ValueError):
        SweepConfig(p=11, mode="some")
    with pytest.raises(ValueError):
        SweepConfig(p=11, threads=0)
    with pytest.raises(ValueError):
        SweepConfig(p=1048583)  # prime, 11 mod 12, beyond the kernel bound
    SweepConfig(p=1048571)  # the last such prime within it


def _moebius_family(u, v):
    """A, B, E_u and D_v by explicit Moebius arithmetic: with X = x + u and
    Z = ux + 1, x^k - 1 goes to X^k - Z^k, x^2 + 1 to X^2 + Z^2 and
    x^4 + x^2 + 1 to X^4 + X^2 Z^2 + Z^4 (A and B as `search` built them
    before the closed form)."""
    ctx = u.ctx
    x, one = DensePoly.from_ints(ctx, [0, 1]), DensePoly.one(ctx)
    xu, ux1 = x + DensePoly.from_elements(ctx, [u]), x.scale(u) + one
    xv, vx1 = x + DensePoly.from_elements(ctx, [v]), x.scale(v) + one
    a = xu * xu + ux1 * ux1
    b = xv**4 + (xv * vx1) ** 2 + vx1**4
    return a, b, xu**4 - ux1**4, xv**6 - vx1**6


def _quotients(ctx, u: int, v: int):
    """E_u, D_v and the genus-2 quotient of the pair (u, v), as the
    superspecial recheck builds them."""
    rows = _quotient_rows(np.array([u]), np.array([v]), ctx.p)
    return tuple(DensePoly(ctx, r[:, 0].tolist()) for r in rows)


def _model_rows(polys):
    """The (7, n) coefficient rows of polynomials of degree at most 6."""
    rows = np.zeros((7, len(polys)), dtype=np.int64)
    for i, f in enumerate(polys):
        rows[: f.degree + 1, i] = f.raw()
    return rows


def test_family_matches_explicit_moebius_transports():
    # the full GF(p)^2 grid, through both the FieldElement and the array route
    for p in (11, 23):
        ctx = field(p)
        grid = list(product(range(p), repeat=2))
        e_rows, d_rows, f_rows = _quotient_rows(*np.array(grid, dtype=np.int64).T, p)
        assert e_rows.shape == (5, p * p) and d_rows.shape == f_rows.shape == (7, p * p)
        columns = zip(grid, e_rows.T.tolist(), d_rows.T.tolist(), f_rows.T.tolist())
        for (u, v), e_u, d_v, f in columns:
            a, b, f_eu, f_dv = _moebius_family(ctx.elem(u), ctx.elem(v))
            assert _pair_polys(ctx.elem(u), ctx.elem(v)) == (a, b), (u, v)
            assert (DensePoly(ctx, e_u), DensePoly(ctx, d_v)) == (f_eu, f_dv), (u, v)
            assert DensePoly(ctx, f) == a * b, (u, v)
    # every u in GF(121), where u^2 = -1 and u^2 +- u + 1 = 0 lose degree
    ctx = field(11, 2)
    degrees = []
    for u in ctx.elements():
        a, b, _, _ = _moebius_family(u, u)
        assert _pair_polys(u, u) == (a, b), u
        degrees.append((a.degree, b.degree))
    assert sum(da < 2 for da, _ in degrees) == 2
    assert sum(db < 4 for _, db in degrees) == 4


def test_check_pair_exclusions():
    ctx = field(11)
    assert ss5_check_pair(11, ctx.one, ctx.elem(3)).reason == "uv"
    assert ss5_check_pair(11, ctx.elem(3), ctx.elem(-1)).reason == "uv"
    with pytest.raises(ValueError):
        ss5_check_pair(13, field(13).elem(2), field(13).elem(3))


def test_check_pair_gcd_exclusions_match_kernel_counts():
    # scalar classification over the full grid reproduces the kernel's
    # bookkeeping
    for p in (11, 23):
        _check_full_grid_against_scalar(p)


def _check_full_grid_against_scalar(p):
    ctx = field(p)
    counts = {"uv": 0, "gcd": 0, "singular": 0, "tested": 0}
    solutions = []
    for u in range(p):
        for v in range(p):
            r = ss5_check_pair(p, ctx.elem(u), ctx.elem(v))
            if r.status == "excluded":
                counts[r.reason] += 1
            else:
                counts["tested"] += 1
                if r.status == "solution":
                    solutions.append((u, v))
    sweep = ss5_sweep(SweepConfig(p=p, mode="all"))
    assert counts["uv"] == sweep.counts["excluded_uv"]
    assert counts["gcd"] == sweep.counts["excluded_gcd"]
    assert counts["singular"] == sweep.counts["excluded_singular"]
    assert counts["tested"] == sweep.counts["tested"]
    assert solutions == sweep.solutions


def test_path_equivalence_recurrence_vs_naive():
    for p in (11, 23):
        ctx = field(p)
        for u in range(p):
            for v in range(p):
                a = ss5_check_pair(p, ctx.elem(u), ctx.elem(v), "recurrence") \
                    if not _excluded(ctx, u, v) else None
                b = ss5_check_pair(p, ctx.elem(u), ctx.elem(v), "naive") \
                    if not _excluded(ctx, u, v) else None
                assert a == b


def _excluded(ctx, u, v):
    return ss5_check_pair(ctx.p, ctx.elem(u), ctx.elem(v)).status == "excluded"


def test_scalar_robustness_constant_factor():
    # multiplying f by the constant (1-u^2)(1-v^2) flips all four entries by
    # a common sign at most; the three equation truth values are unchanged
    p = 23
    ctx = field(p)
    from cmrank.cartier import power_coeffs
    from cmrank.search import _pair_polys

    m = (p - 1) // 2
    checked = 0
    for u, v in [(0, 4), (3, 5), (7, 2), (10, 21), (2, 0)]:
        a_poly, b_poly = _pair_polys(ctx.elem(u), ctx.elem(v))
        f = a_poly * b_poly
        const = (ctx.one - ctx.elem(u) ** 2) * (ctx.one - ctx.elem(v) ** 2)
        g = f.scale(const)
        idx = {p - 2, p - 1, 2 * p - 2, 2 * p - 1}
        cf = power_coeffs(f, m, idx)
        cg = power_coeffs(g, m, idx)
        a1, b1, c1, d1 = (cf[p - 1], cf[2 * p - 1], cf[p - 2], cf[2 * p - 2])
        a2, b2, c2, d2 = (cg[p - 1], cg[2 * p - 1], cg[p - 2], cg[2 * p - 2])
        eqs1 = (
            (a1 * d1 - b1 * c1).is_zero,
            (a1 * b1 ** (p - 1) + d1**p).is_zero,
            (a1**p + c1 ** (p - 1) * d1).is_zero,
        )
        eqs2 = (
            (a2 * d2 - b2 * c2).is_zero,
            (a2 * b2 ** (p - 1) + d2**p).is_zero,
            (a2**p + c2 ** (p - 1) * d2).is_zero,
        )
        assert eqs1 == eqs2
        checked += 1
    assert checked == 5


def test_palindromic_reduction_against_oracle():
    # f = A*B is palindromic, so the oracle's entries have b = c and d = a,
    # and its three entry equations hold exactly when a = c = 0 -- the
    # condition the kernel tests
    rng = random.Random(5)
    for p in (23, 131):
        ctx = field(p)
        grid = [x for x in range(p) if x not in (1, p - 1)]
        solutions = rng.sample(_sweep_w_line(p)[1], 2)
        checks = [ss5_check_pair(p, ctx.elem(u), ctx.elem(v)) for u, v in solutions]
        while len(checks) < 40:
            r = ss5_check_pair(p, ctx.elem(rng.choice(grid)), ctx.elem(rng.choice(grid)))
            if r.status != "excluded":
                checks.append(r)
        for r in checks:
            a, b, c, d = r.entries
            assert b == c and d == a
            assert (r.status == "solution") == (a.is_zero and c.is_zero)
        assert 2 <= sum(r.status == "solution" for r in checks) < len(checks)


def test_verify_solution_story_passes_and_fires():
    p = 23
    u, v = ss5_sweep(SweepConfig(p=p, mode="first")).solutions[0]
    verify_solution_story(p, u, v)
    # the quotients are checked in the order E_u, D_v, genus-2 curve, and the
    # message names the first whose Cartier-Manin matrix does not vanish.  A
    # live pair that is not a solution fails at the genus-2 quotient
    assert ss5_check_pair(p, field(p).elem(4), field(p).elem(18)).status == "not_solution"
    with pytest.raises(RuntimeError, match="genus-2 quotient"):
        verify_solution_story(p, 4, 18)
    # y^2 = x^4 - 1 is ordinary for p = 1 (mod 4), so E_u fails first
    with pytest.raises(RuntimeError, match="E_u"):
        verify_solution_story(13, 2, 2)
    # at p = 19 E_u passes and D_v does not
    with pytest.raises(RuntimeError, match="D_v"):
        verify_solution_story(19, 2, 2)


def test_recheck_never_expands_or_runs_p_rank(monkeypatch):
    # every quotient has f(0) != 0, so the recheck takes the recurrence route
    # and never reaches full expansion, which is refused past EXPANSION_CAP
    from cmrank import cartier, covers

    p = 23
    expected = _sweep_w_line(p)[1]
    assert len(expected) == 80

    def refuse(*args, **kwargs):
        raise AssertionError("the recheck must not expand f^m or run p_rank")

    monkeypatch.setattr(cartier, "pow_coeffs", refuse)
    monkeypatch.setattr(cartier, "p_rank", refuse)
    monkeypatch.setattr(covers, "p_rank", refuse)
    assert ss5_sweep(SweepConfig(p=p, mode="all")).solutions == expected


def _recurrence_ends_vec(fs, m: int, p: int):
    """c_{p-2} and c_{p-1} of f^m for the columns f_0..f_6 in fs, one term
    at a time, with c_0, 1/f_0 and 1/k by builtin pow: the oracle of
    `_power_coeffs_vec`."""
    f0 = fs[0]
    c_prev = [None] * 6  # c_{k-1} .. c_{k-6}
    c0 = np.array([pow(c, m, p) for c in f0.tolist()], dtype=np.int64)
    inv_f0 = np.array([pow(c, -1, p) for c in f0.tolist()], dtype=np.int64)
    c_prev[0] = c0
    zeros = np.zeros_like(f0)
    for j in range(1, 6):
        c_prev[j] = zeros
    out_pm2 = None
    for k in range(1, p):
        acc = np.zeros_like(f0)
        for j in range(1, 7):
            if j > k:
                break
            weight = ((m + 1) * j - k) % p
            if weight:
                acc += weight * fs[j] * c_prev[j - 1]
        ck = acc % p * pow(k, -1, p) % p * inv_f0 % p
        if k == p - 2:
            out_pm2 = ck
        c_prev = [ck] + c_prev[:5]
    return out_pm2, c_prev[0]


def _sextics(p, W):
    """The genus-2 quotients f = A B of the representatives (0, W[i]), as
    (7, n) rows mod p, low to high; with u = 0, A is x^2 + 1."""
    B1, B2 = (_transport_rows(q, W, p) for q in _B_FACTORS)
    return _rows_mul(_rows_mul(B1, B2, p), _transport_rows(_A_FACTOR, 0, p), p)


def _cubics(p, W):
    """The cubic g of f(x) = x^3 g(x + 1/x), read off the palindromic sextic
    f of each (0, W[i]): g3 = f6, g2 = f5, g1 = f4 - 3 f6, g0 = f3 - 2 f5."""
    F = _sextics(p, W)
    return [(F[3] - 2 * F[5]) % p, (F[4] - 3 * F[6]) % p, F[5], F[6]]


def _res_quadratics(f, g, p):
    """Resultant of the quadratics with coefficient rows f and g, low to high,
    vectorized."""
    t1 = (f[2] * g[0] - f[0] * g[2]) % p
    t2 = (f[2] * g[1] - f[1] * g[2]) % p
    t3 = (f[1] * g[0] - f[0] * g[1]) % p
    return (t1 * t1 - t2 * t3) % p


def _exclusions_by_resultants(p, W):
    """The exclusions of the representatives (0, W[i]) as the kernel once
    computed them, kept as the oracle of its reading off g1: gcd(A, B) != 1
    where A = x^2 + 1 and a factor of B have a zero resultant, and f = A B
    singular where, with gcd(A, B) = 1, A has a zero discriminant."""
    A = _transport_rows(_A_FACTOR, 0, p)
    B1, B2 = (_transport_rows(q, W, p) for q in _B_FACTORS)
    excluded_gcd = (_res_quadratics(A, B1, p) == 0) | (_res_quadratics(A, B2, p) == 0)
    disc_a = (A[1] * A[1] - 4 * A[0] * A[2]) % p
    return excluded_gcd, (~excluded_gcd) & (disc_a == 0)


def _classify_by_recurrence(p, W):
    """The kernel before the elliptic split, kept as its oracle: the
    resultant exclusions, then a = c = 0 read off f^((p-1)/2) by the
    coefficient recurrence.  Returns (excluded_gcd, excluded_singular,
    solution)."""
    excluded_gcd, excluded_singular = _exclusions_by_resultants(p, W)
    live = ~(excluded_gcd | excluded_singular)
    f = _sextics(p, W)
    solution = np.zeros_like(live)
    idx = np.flatnonzero(live)
    if idx.size:
        c, a = _power_coeffs_vec(f[:, idx], p)
        solution[idx] = (a == 0) & (c == 0)
    return excluded_gcd, excluded_singular, solution


def test_kernel_recurrence_matches_per_term_oracle():
    # every census prime below 500: the vectorized recurrence's
    # (c_{p-2}, c_{p-1}) on the w line, which the kernel oracle reads, equal
    # those of the per-term recurrence
    primes = [p for p in range(11, 500, 12) if is_prime(p)]
    assert len(primes) == 25
    for p in primes:
        F = _sextics(p, _w_line(p))
        out = _power_coeffs_vec(F, p)
        c, a = _recurrence_ends_vec(list(F), (p - 1) // 2, p)
        assert (out[0] == c).all() and (out[1] == a).all(), p


def _ends_with_blocks(monkeypatch, F, p, blocks):
    """`_power_coeffs_vec` forced to `blocks` blocks through its budget; one
    block means all steps on the window."""
    d, n = F.shape[0] - 1, F.shape[1]
    assert blocks == 1 or d < blocks <= isqrt(6 * (p - 1)) // 2
    monkeypatch.setattr(cartier, "_BLOCK_BUDGET", blocks * d * d * n)
    return _power_coeffs_vec(F, p)


def test_blocked_recurrence_matches_per_term_oracle(monkeypatch):
    # random columns of degree 2, 4 and 6: at every census prime all p - 1
    # steps on the window (T = 1) and every T the blocks allow, so both
    # blocks that cover all steps (T divides p - 1) and R > 0 steps before
    # them; at every census prime and at p = 100 019 the T the budget picks.
    # The oracle takes every degree at once, zero-padded
    rng = np.random.default_rng(17)
    exact = set()
    for p in _primes_11_mod_12(500) + [100019]:
        n = 5
        cols = {}
        for d in (2, 4, 6):
            cols[d] = rng.integers(0, p, size=(d + 1, n))
            cols[d][0] = rng.integers(1, p, size=n)
        padded = np.hstack([np.vstack([F, np.zeros((6 - d, n), np.int64)])
                            for d, F in cols.items()])
        ends = np.stack(_recurrence_ends_vec(list(padded), (p - 1) // 2, p))
        for (d, F), expected in zip(cols.items(), np.split(ends, 3, axis=1)):
            assert (_power_coeffs_vec(F, p) == expected).all(), (p, d)
            if p > 500:
                continue
            for blocks in [1, *range(d + 1, isqrt(6 * (p - 1)) // 2 + 1)]:
                got = _ends_with_blocks(monkeypatch, F, p, blocks)
                assert (got == expected).all(), (p, d, blocks)
                exact.add((p - 1) % blocks == 0 if blocks > 1 else None)
            monkeypatch.undo()
    assert exact == {None, True, False}


def _primes_11_mod_12(below):
    return [p for p in range(11, below, 12) if is_prime(p)]


def _check_split_against_recurrence(monkeypatch, p):
    W = _w_line(p)
    gcd, singular, solution = _classify_by_recurrence(p, W)
    # the kernel writes no singular exclusion
    assert not singular.any(), p
    expected = gcd, solution
    got = _classify(p, W)
    for name, e, g in zip(("gcd", "solution"), expected, got):
        assert (e == g).all(), (p, name)
    split = _sweep_w_line(p, "first")
    with monkeypatch.context() as m:
        m.setattr(search, "_classify", lambda p, W: expected)
        assert _sweep_w_line(p, "first") == split, p
    return W[got[1]].tolist()


def test_split_kernel_matches_recurrence_kernel(monkeypatch):
    # the same exclusions, good set, counts and first solution as the
    # recurrence kernel at every prime p = 11 (mod 12) below 1000
    primes = _primes_11_mod_12(1000)
    assert len(primes) == 42
    solution_free = [p for p in primes if not _check_split_against_recurrence(monkeypatch, p)]
    assert solution_free == [107, 443, 491, 827, 947]


@pytest.mark.nightly
def test_split_kernel_matches_recurrence_kernel_at_10007(monkeypatch):
    # the recurrence kernel takes about 2.3 s here
    good = _check_split_against_recurrence(monkeypatch, 10007)
    assert good == [1219, 1609, 8398, 8788]


def test_split_kernel_golden_at_100019():
    # taken from the recurrence kernel, which ran 192 s here (2-core Xeon VM).
    # An int64 overflow in the models certified garbage curves as ordinary
    # and pruned all four, while every prime below 1000 still agreed
    p = 100019
    W = _w_line(p)
    assert W[_classify(p, W)[1]].tolist() == [11576, 11863, 88156, 88443]


def test_good_w_come_in_pairs_w_and_minus_w():
    # x -> -x fixes x^2 + 1 and swaps x^2 + x + 1 with x^2 - x + 1, so w and
    # -w share every verdict, exclusions included
    for p in _primes_11_mod_12(1000):
        verdicts = _w_verdicts(p)
        for w in range(p):
            if w not in (1, p - 1):
                assert verdicts[w] == verdicts[-w % p], (p, w)


def test_kernel_verdicts_agree_on_w_and_its_inverse():
    # M_(1/w) is M_w followed by x -> 1/x, which fixes x^2 + 1 and
    # x^2 +- x + 1 and sends x^2 - 1 to -(x^2 - 1), so w and 1/w share every
    # verdict, exclusions included
    for p in _primes_11_mod_12(1000):
        verdicts = _w_verdicts(p)
        for w in range(2, p - 1):
            assert verdicts[w] == verdicts[pow(w, -1, p)], (p, w)


def _live_models(p):
    """The live w of the line, their verdicts and the kernel's Weierstrass
    models (a4, a6) of their E+."""
    W = _w_line(p)
    gcd, solution = _classify(p, W)
    live = ~gcd
    _, a4, a6 = _split_models(p, W[live])
    return W[live], solution[live], (a4, a6)


def _quartic_traces(Q, p):
    """The trace a_p = p + 1 - #E(GF(p)) of Y^2 = q(s) for every column q of
    Q, (5, n) squarefree quartics mod p, low to high, with q4 != 0, counted
    on the quartic: 1 + chi(q(s)) points over each s and 1 + chi(q4) at
    infinity, so a_p = -sum_s chi(q(s)) - chi(q4).  The oracle of the
    kernel's traces on its Weierstrass model."""
    chi = np.full(p, -1, dtype=np.int64)
    chi[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    chi[0] = 0
    s, v = np.arange(p, dtype=np.int64), Q[4][:, None]
    for k in (3, 2, 1, 0):
        v = (v * s + Q[k][:, None]) % p
    return -chi[v].sum(axis=1) - chi[Q[4]]


def test_closed_form_cubic_matches_the_sextic():
    # the kernel reads g = s (a1 s + c1)(a2 s + c2) off the transported
    # factors.  For every finite w of the 25 census primes its g1 is that of
    # g read off f = A B, g1 vanishes exactly where the resultants exclude w
    # and the discriminant excludes none, and on every live w its
    # Weierstrass model has the trace of the quartic (s + 2) g
    primes = _primes_11_mod_12(500)
    assert len(primes) == 25
    for p in primes:
        W = _w_line(p)
        g = _cubics(p, W)
        assert not g[0].any(), p
        g1, a4, a6 = _split_models(p, W)
        assert (g1 == g[1]).all(), p
        gcd, singular = _exclusions_by_resultants(p, W)
        assert gcd.any() and not singular.any(), p
        assert ((g1 == 0) == gcd).all(), p
        live = ~gcd
        quartics = _rows_mul(g, (2, 1), p)[:, live]
        assert (search._traces(a4[live], a6[live], p) == _quartic_traces(quartics, p)).all(), p


def test_e_minus_of_w_is_e_plus_of_minus_w():
    # the identity that lets the kernel build E+ alone: for p < 200 and every
    # live w, E-: Y^2 = (s - 2) g_w(s), with g_w read off the sextic, has the
    # p-rank of the kernel's model of E+ of -w
    from cmrank.cartier import p_rank

    for p in _primes_11_mod_12(200):
        ctx = field(p)
        ws, _, _ = _live_models(p)
        minus = _rows_mul(_cubics(p, ws), (-2, 1), p)
        _, a4, a6 = _split_models(p, -ws % p)
        for w, e_minus, b4, b6 in zip(ws.tolist(), minus.T.tolist(), a4.tolist(), a6.tolist()):
            rank = p_rank(HyperellipticModel(ctx, DensePoly(ctx, e_minus)))
            e_plus = DensePoly(ctx, [b6, b4, 0, 1])
            assert rank == p_rank(HyperellipticModel(ctx, e_plus)), (p, w)


def test_split_models_and_traces_match_p_rank():
    # for p < 200 and E+ of every live w: the quartic (s + 2) g, built here
    # from g read off the sextic, and the kernel's Weierstrass model have the
    # same p-rank by `cartier.p_rank` and the same trace, the trace vanishes
    # exactly when the p-rank is 0, no curve of p-rank 0 is certified
    # ordinary by the ladder, and w is good exactly when E+ of w and of -w
    # have p-rank 0
    from cmrank.cartier import p_rank

    pruned = live = 0
    for p in _primes_11_mod_12(200):
        ctx = field(p)
        ws, good, (a4, a6) = _live_models(p)
        Q = _rows_mul(_cubics(p, ws), (2, 1), p)
        finite = _ladder_finite(a4, a6, search._LADDER_X0, p + 1, p)
        traces = search._traces(a4, a6, p)
        assert (traces == _quartic_traces(Q, p)).all(), p
        ranks = {}
        for w, q, b4, b6, fin, trace in zip(ws.tolist(), Q.T.tolist(), a4, a6, finite, traces):
            rank = p_rank(HyperellipticModel(ctx, DensePoly(ctx, q)))
            cubic = DensePoly(ctx, [int(b6), int(b4), 0, 1])
            assert p_rank(HyperellipticModel(ctx, cubic)) == rank, (p, q)
            assert (trace == 0) == (rank == 0), (p, q)
            assert not (fin and rank == 0), (p, q)
            ranks[w] = rank
        both_zero = [ranks[w] == 0 and ranks[-w % p] == 0 for w in ws.tolist()]
        assert both_zero == good.tolist(), p
        certified = set(ws[finite].tolist())
        pruned += sum(w in certified or -w % p in certified for w in ws.tolist())
        live += len(ws)
        assert good.any() or p == 107
    # the ladder prunes most live w even at these sizes
    assert pruned > 0.8 * live


def _division_roots(a4, a6, p):
    """The x in GF(p) of the points of order 2, 3 and 4 of y^2 = x^3 + a4 x + a6
    or its twist: the roots of the division polynomials psi_2, psi_3 and
    psi_4 / psi_2 (up to constants)."""
    orders = {2: [], 3: [], 4: []}
    for x in range(p):
        psi = {
            2: x**3 + a4 * x + a6,
            3: 3 * x**4 + 6 * a4 * x**2 + 12 * a6 * x - a4**2,
            4: x**6 + 5 * a4 * x**4 + 20 * a6 * x**3 - 5 * a4**2 * x**2
            - 4 * a4 * a6 * x - 8 * a6**2 - a4**3,
        }
        for order, value in psi.items():
            if value % p == 0:
                orders[order].append(x)
    return orders


def _ladder_meets_infinity(order, n):
    """Whether the ladder for [n] P forms the point at infinity, P of the
    given order: its registers hold [2] P, then [m] P and [m+1] P for every
    leading part m of n in binary."""
    m, multiples = 1, {2}
    for bit in bin(n)[3:]:
        m = 2 * m + int(bit)
        multiples |= {m, m + 1}
    return any(k % order == 0 for k in multiples)


def test_ladder_reports_planted_degenerate_points():
    # x0 = 0 and the x of points of order 2, 3 and 4 on every live curve.
    # Their orders divide p + 1, so the kernel's ladder must not certify
    # them; for other n it certifies exactly where no register met the point
    # at infinity, whether or not [n] P is finite
    for p in (23, 47, 71):
        _, _, (a4, a6) = _live_models(p)
        assert not _ladder_finite(a4, a6, 0, p + 1, p).any()
        cols, x0s, orders = [], [], []
        for i, (b4, b6) in enumerate(zip(a4.tolist(), a6.tolist())):
            for order, xs in _division_roots(b4, b6, p).items():
                cols += [i] * len(xs)
                x0s += xs
                orders += [order] * len(xs)
        assert set(orders) == {2, 3, 4}, p
        cols, x0s = np.array(cols), np.array(x0s)
        for n in (p + 1, p - 1, p, p + 2, 2 * p + 3):
            finite = _ladder_finite(a4[cols], a6[cols], x0s, n, p)
            expected = [not _ladder_meets_infinity(order, n) for order in orders]
            assert finite.tolist() == expected, (p, n)
            if n == p + 1:
                assert not any(expected)
            else:
                # some registers meet the point at infinity though [n] P is
                # finite
                assert any(n % k and not e for k, e in zip(orders, expected)), (p, n)


def test_degenerate_start_passes_every_w_to_the_traces(monkeypatch):
    # the traces see E+ of exactly the w for which the ladder certifies
    # neither E+ of w nor E+ of -w; with x0 = 0 that is every live w, and the
    # verdicts do not change
    p = 131
    W = _w_line(p)
    expected = _classify(p, W)
    ws, _, (a4, a6) = _live_models(p)
    certified = set(ws[_ladder_finite(a4, a6, search._LADDER_X0, p + 1, p)].tolist())
    kept = [w for w in ws.tolist() if w not in certified and -w % p not in certified]
    assert 0 < len(kept) < len(ws)
    traced, traces = [], search._traces

    def spy(a4, a6, p):
        traced.append(len(a4))
        return traces(a4, a6, p)

    monkeypatch.setattr(search, "_traces", spy)
    for x0, columns in ((search._LADDER_X0, len(kept)), (0, len(ws))):
        monkeypatch.setattr(search, "_LADDER_X0", x0)
        got = _classify(p, W)
        for e, g in zip(expected, got):
            assert (e == g).all(), x0
        assert traced == [columns], x0
        traced.clear()


def test_batched_entries_match_scalar_route_and_expansion():
    # the three quotients of every solution for p = 11 (mod 12) up to 71, of
    # sampled non-solutions, and random models of degree 4 and 6
    rng = random.Random(9090)
    for p in (11, 23, 47, 59, 71):
        ctx = field(p)
        m = (p - 1) // 2
        pairs = _sweep_w_line(p)[1]
        grid = [x for x in range(p) if x not in (1, p - 1)]
        non_solutions = 0
        while non_solutions < 10:
            u, v = rng.choice(grid), rng.choice(grid)
            if ss5_check_pair(p, ctx.elem(u), ctx.elem(v)).status == "not_solution":
                pairs.append((u, v))
                non_solutions += 1
        polys = [f for u, v in pairs for f in _quotients(ctx, u, v)]
        for deg in (4, 6):
            polys += [random_squarefree(rng, ctx, deg, nonzero_const=True) for _ in range(6)]
        entries = _cartier_entries_vec(p, _model_rows(polys))
        assert entries.shape == (len(polys), 2, 2)
        for f, got in zip(polys, entries.tolist()):
            M = _raw_matrix(cartier_matrix(HyperellipticModel(ctx, f)).M)
            g = len(M)
            assert [row[:g] for row in got[:g]] == M, (p, f)
            assert not any(got[i][j] for i in range(2) for j in range(2) if max(i, j) >= g)
            ks = [p * j - i for i in range(1, g + 1) for j in range(1, g + 1)]
            full = pow_coeffs(f, m, ks)
            assert [full[k].coords[0] for k in ks] == [x for row in M for x in row]
        by_pair = entries[: 3 * len(pairs)].reshape(len(pairs), 3, 4)
        assert not by_pair[:-10].any()
        assert by_pair[-10:, 2].any(axis=1).all()  # the genus-2 quotient fails
    with pytest.raises(ValueError, match="degree 4 or 6"):
        _cartier_entries_vec(p, _model_rows([random_squarefree(rng, ctx, 5, nonzero_const=True)]))


def _generic_verdict(ctx, u, v):
    """The error, if any, of the per-pair route on the pair (u, v), with E_u
    and D_v by explicit Moebius arithmetic: kani_rosen_triple, then
    HyperellipticModel on the genus-2 quotient."""
    f_eu, f_dv = _moebius_family(ctx.elem(u), ctx.elem(v))[2:]
    try:
        t = kani_rosen_triple(f_eu, f_dv)
        if t.genus_total != 5:
            return f"RuntimeError: solution ({u}, {v}) has genus {t.genus_total}, not 5"
        HyperellipticModel(ctx, t.f3)
    except ValueError as err:
        return f"ValueError: solution ({u}, {v}): {err}"
    return None


def test_batched_polynomial_checks_match_generic_route():
    # every pair of the GF(23) grid minus +-1, gcd-excluded ones included; and
    # the whole GF(13) grid, where u = +-1 zeroes E_u and u^4 = 1 or v^6 = 1
    # lowers a degree.  A pair the generic route refuses is refused with its
    # error, named; one it passes passes, or fails at a matrix, or has a
    # degree the recheck does not read
    for p, values in ((23, [0, *range(2, 22)]), (13, range(13))):
        ctx = field(p)
        seen = set()
        for u, v in product(values, repeat=2):
            expected = _generic_verdict(ctx, u, v)
            got = _recheck_outcome(p, [(u, v)])
            if expected is None:
                refusals = ("is not superspecial", "degree 4 or 6")
                assert got is None or any(r in got for r in refusals), (p, u, v)
                seen.add("pass")
            elif "would not be a curve model" in expected:
                assert got == expected, (p, u, v)
                f_eu = _moebius_family(ctx.elem(u), ctx.elem(v))[2]
                seen.add("degree of " + ("E_u" if f_eu.degree < 3 else "D_v"))
            else:
                assert got == expected, (p, u, v)
                seen.add("genus" if "has genus" in expected else expected)
        # genus failures and passes on both grids; degree failures of E_u and
        # D_v on GF(13)
        degrees = {"degree of E_u", "degree of D_v"} if p == 13 else set()
        assert seen == {"genus", "pass"} | degrees, p


def test_vectorized_recurrence_refuses_zero_constant():
    p = 23
    F = np.array([[1, 3, 0], [2, 2, 2], [1, 0, 5]], dtype=np.int64)  # f_0 = 0 in column 2
    with pytest.raises(ValueError, match="f\\(0\\) = 0"):
        _power_coeffs_vec(F, p)
    # without the zero column the same rows run
    assert _power_coeffs_vec(F[:, :2], p).shape == (2, 2)


def test_recheck_golden_at_a_large_prime():
    # the first solution at p = 100 019, and a pair of its orbit with u = 2,
    # are superspecial; moving v by one leaves the genus-2 quotient ordinary
    p, w = 100019, 11576
    v = (2 + w) * pow(1 + 2 * w, -1, p) % p
    verify_solution_story(p, [0, 2], [w, v])
    with pytest.raises(RuntimeError, match=r"\(0, 11577\) is not superspecial: .* genus-2 quotient"):
        verify_solution_story(p, [0, 0], [w, w + 1])
    # any integer dtype is reduced mod p as int64, where u u would overflow
    # int32, and the pair is named as given; anything else is refused
    for dtype in (np.int32, np.uint32, np.uint64):
        verify_solution_story(p, np.array([0, 2], dtype), np.array([w, v], dtype))
    with pytest.raises(RuntimeError, match=r"\(0, -88442\) is not superspecial"):
        verify_solution_story(p, np.int32([0, 0]), np.int32([w, w + 1 - p]))
    with pytest.raises(ValueError, match="must be integers"):
        verify_solution_story(p, np.float64([0, 2]), np.float64([w, v]))
    # Python ints past int64 are reduced mod p too, and named as given
    big = 2**70 * p
    verify_solution_story(p, big - w, 0)
    verify_solution_story(p, [0, big + 2], [w, big + v])
    with pytest.raises(RuntimeError, match=rf"\({2**70}, 0\) is not superspecial"):
        verify_solution_story(p, 2**70, 0)
    with pytest.raises(ValueError, match="must be integers"):
        verify_solution_story(p, [big, 2.5], [w, v])
    # an empty batch checks nothing
    verify_solution_story(23, [], [])


def test_recheck_guard_admits_every_prime_below_1000_and_10007(monkeypatch):
    # the guard bounds the pair count; it refuses 126 839 (tests/test_cli.py),
    # not these
    for p in _primes_11_mod_12(1000) + [10007]:
        solutions = _sweep_w_line(p)[1]
        assert len(solutions) <= search.RECHECK_GUARD, p
    # nor 43 607, whose 348 832 pairs are counted before any is listed
    monkeypatch.setattr(search, "_orbit", lambda *args: [])
    _sweep_w_line(43607)


def test_recheck_batch_names_the_first_failing_pair():
    p = 23
    ctx = field(p)
    solutions = _sweep_w_line(p)[1]
    grid = [(u, v) for u in range(2, p - 1) for v in range(2, p - 1)]
    gcd_pair = next(
        (u, v) for u, v in grid
        if ss5_check_pair(p, ctx.elem(u), ctx.elem(v)).reason == "gcd"
    )

    def recheck(pairs):
        us, vs = zip(*pairs)
        verify_solution_story(p, us, vs)

    recheck(solutions)
    batch = solutions[:40] + [(4, 18)] + solutions[40:]
    with pytest.raises(RuntimeError, match=r"\(4, 18\) is not superspecial: .* genus-2 quotient"):
        recheck(batch)
    # a later failure of any kind does not hide an earlier one
    with pytest.raises(RuntimeError, match=r"\(4, 18\)"):
        recheck(solutions[:5] + [(4, 18)] + solutions[5:9] + [gcd_pair])
    u, v = gcd_pair
    with pytest.raises(RuntimeError, match=rf"\({u}, {v}\) has genus"):
        recheck(solutions[:5] + [gcd_pair] + [(4, 18)])
    # a refusal of the per-pair route, here E_u = 0 at u = 1, names the pair
    with pytest.raises(ValueError, match=r"^solution \(1, 2\): deg -1 < 3"):
        verify_solution_story(11, [0, 1], [2, 2])
    # and so does a degree the matrices are not read for: v = 3 is a root of
    # 1 - v + v^2 mod 7 and of 1 + v + v^2 mod 13, the top coefficients of the
    # transports of x^2 - x + 1 and x^2 + x + 1, so D_v has degree 5
    with pytest.raises(ValueError, match=r"^solution \(0, 3\): D_v has degree 5"):
        verify_solution_story(7, 0, 3)
    with pytest.raises(ValueError, match=r"^solution \(2, 3\): D_v has degree 5"):
        verify_solution_story(13, [2, 0], [3, 5])
    # which does not hide an earlier pair's nonzero matrix
    with pytest.raises(RuntimeError, match=r"^solution \(0, 5\) is not superspecial: .* E_u"):
        verify_solution_story(13, [0, 2], [5, 3])


def test_sweep_builds_one_inverse_table(monkeypatch):
    # the orbits, the normal forms and the batched recurrence of a mode-all
    # sweep and its recheck read one table, which nobody can write into; a
    # later sweep of the same prime reuses it
    calls = []

    def spy(p, upto):
        calls.append(p)
        return inverse_table(p, upto)

    monkeypatch.setattr(cartier, "inverse_table", spy)
    _inverse_table.cache_clear()
    result = ss5_sweep(SweepConfig(p=47, mode="all"))
    assert len(result.solutions) > 1  # so orbits, forms and entries ran
    assert calls == [47]
    with pytest.raises(ValueError, match="read-only"):
        _inverse_table(47)[2] = 0
    assert ss5_sweep(SweepConfig(p=47, mode="first")).solutions == result.solutions[:1]
    assert calls == [47]
    ss5_sweep(SweepConfig(p=59, mode="all"))
    assert calls == [47, 59]


def _recheck_outcome(p, pairs):
    """The message of the error the recheck of pairs raises, None if it
    passes."""
    us, vs = zip(*pairs)
    try:
        verify_solution_story(p, us, vs)
    except (RuntimeError, ValueError) as err:
        return f"{type(err).__name__}: {err}"
    return None


def _gcd_excluded_pair(p):
    ctx = field(p)
    return next(
        (u, v) for u in range(2, p - 1) for v in range(2, p - 1)
        if ss5_check_pair(p, ctx.elem(u), ctx.elem(v)).reason == "gcd"
    )


def test_recheck_slices_match_unsliced(monkeypatch):
    # the verdict and the message of a batch do not depend on the slice size:
    # a passing batch, a non-solution and a pair that fails a polynomial check
    # in the third slice of 7
    p = 47
    solutions = _sweep_w_line(p)[1]
    ctx = field(p)
    assert ss5_check_pair(p, ctx.elem(4), ctx.elem(18)).status == "not_solution"
    gcd_pair = _gcd_excluded_pair(p)
    batches = [solutions] + [solutions[:15] + [bad] + solutions[15:] for bad in ((4, 18), gcd_pair)]
    expected = [_recheck_outcome(p, batch) for batch in batches]
    assert expected[0] is None
    assert "(4, 18) is not superspecial" in expected[1]
    assert "({}, {}) has genus".format(*gcd_pair) in expected[2]
    slices = []

    def spy(p, us, *args):
        slices.append(len(us))
        return recheck_slice(p, us, *args)

    recheck_slice = search._recheck_slice
    monkeypatch.setattr(search, "_recheck_slice", spy)
    for size in (1, 7, 40):
        monkeypatch.setattr(search, "RECHECK_SLICE", size)
        assert [_recheck_outcome(p, batch) for batch in batches] == expected, size
        assert slices[0] == size and len(slices) > 2
        slices.clear()


# -- Moebius certificates ----------------------------------------------------------


def test_pull_back_matches_the_substitution():
    # the batched pull-back by M_(-u) against sum_k q_k (y - u)^k (1 - u y)^(n-k)
    # formed with DensePoly products, for random rows of degree at most n
    rng = random.Random(5151)
    for p in (11, 23, 47, 1009):
        ctx = field(p)
        for n in (4, 6):
            Q = np.array([[rng.randrange(p) for _ in range(25)] for _ in range(n + 1)])
            U = np.array([rng.randrange(p) for _ in range(25)])
            got = search._pull_back(Q, U, p)
            assert got.dtype == np.int64 and got.shape == Q.shape
            for i, u in enumerate(U.tolist()):
                y_u, one_uy = DensePoly(ctx, [-u, 1]), DensePoly(ctx, [1, -u])
                total = DensePoly(ctx, [0])
                for k, q in enumerate(Q[:, i].tolist()):
                    total = total + DensePoly(ctx, [q]) * y_u**k * one_uy ** (n - k)
                expected = [total.coeff(j).coords[0] for j in range(n + 1)]
                assert got[:, i].tolist() == expected, (p, n, u)


def _w_of(p, u, v):
    """The w class of (u, v), uv = 1 joining w = 0, by Python's inverse."""
    den = (1 - u * v) % p
    return 0 if den == 0 else (v - u) * pow(den, -1, p) % p


def _forms_of(p, U, V):
    return search._normal_forms(p, U, _quotient_rows(U, V, p))


def test_family_pulls_back_to_its_w_representative():
    # every pair of the GF(23) grid minus +-1 has the normal form of (0, w)
    # and of (0, 1/w): (1 - u y)^n Q_(u,v)(M_(-u) y) is Q_(0,w)(y) times a
    # power of 1 - u^2, 1 - uv or v - u, the pairs with uv = 1 pulling back to
    # (0, 0) with D_v twisted by -1; and M_(1/w) is M_w followed by
    # x -> 1/x, which fixes the palindromic factors and x^2 - 1 up to sign
    p = 23
    values = [0, *range(2, p - 1)]
    us, vs = np.array(list(product(values, repeat=2))).T
    forms = _forms_of(p, us, vs)
    assert forms.shape == (19, us.size) and forms.any(axis=0).all()
    ws = np.array([_w_of(p, u, v) for u, v in zip(us.tolist(), vs.tolist())])
    zero = np.zeros_like(ws)
    assert (forms == _forms_of(p, zero, ws)).all()
    assert (forms == _forms_of(p, zero, _inverse_table(p)[ws])).all()
    # and no more: the 21 finite w fall into 11 forms, {w, 1/w} each
    assert len({col.tobytes() for col in forms.T}) == 11


def test_certificate_refuses_what_it_cannot_prove():
    # a pair of the class of (0, 4) at p = 23 has the normal form of (0, 4);
    # the rows of another class, perturbed rows and non-invertible maps give
    # another form, or none
    p = 23
    solutions = _sweep_w_line(p)[1]
    (u, v), other = (
        next(s for s in solutions if s != (0, 4) and _w_of(p, *s) == 4),
        next(s for s in solutions if _w_of(p, *s) not in (4, 6) and s[0] != 0),
    )

    def rows_of(u, v):
        return _quotient_rows(np.array([u]), np.array([v]), p)

    def form(rows, u=u):
        return search._normal_forms(p, np.array([u]), rows)[:, 0]

    target = form(rows_of(0, 4), u=0)
    assert target.any()
    rows = rows_of(u, v)
    assert (form(rows) == target).all()
    assert (form(rows_of(*other)) != target).any()
    assert (form(rows_of(*other), u=other[0]) != target).any()
    # a changed coefficient gives another form; a zero constant term and a
    # lower degree give none
    for q, k in ((0, 2), (1, 3), (2, 5), (1, 0), (2, 6)):
        bad = [R.copy() for R in rows]
        bad[q][k] = 0 if k in (0, 6) else (bad[q][k] + 1) % p
        got = form(bad)
        assert (got != target).any(), (q, k)
        assert got.any() == (k not in (0, 6)), (q, k)
    # M_(-u) with 1 - u^2 = 0 is not invertible
    for unit in (1, p - 1):
        assert not form(rows, u=unit).any()


def _spy(monkeypatch, name, record):
    original = getattr(search, name)

    def spy(*args):
        out = original(*args)
        record(args, out)
        return out

    monkeypatch.setattr(search, name, spy)


def test_every_mode_all_pair_is_certified_against_its_leader(monkeypatch):
    # at the primes up to 167 and at 10 007, only the first pair of each
    # normal form, one per class {w, 1/w}, has its polynomial facts checked
    # and its entries computed; every other pair is certified
    formed, routed, computed = [], [], []
    _spy(monkeypatch, "_normal_forms", lambda args, out: formed.append(out))
    _spy(monkeypatch, "kani_rosen_triple", lambda args, out: routed.append(args[0]))
    _spy(monkeypatch, "_cartier_entries_vec", lambda args, out: computed.append(len(out) // 3))
    primes = _primes_11_mod_12(168) + [10007]
    for p, own in zip(primes, (2, 2, 1, 2, 2, 2, 0, 4, 4, 2), strict=True):
        solutions = ss5_sweep(SweepConfig(p=p, mode="all")).solutions
        inv = _inverse_table(p)
        assert len({min(w, inv[w]) for w in (_w_of(p, u, v) for u, v in solutions)}) == own, p
        assert len(routed) == own, p
        assert sum(computed) == own, p
        forms = np.hstack(formed) if formed else np.zeros((19, 0))
        assert forms.shape[1] == len(solutions) and forms.any(axis=0).all(), p
        assert len({col.tobytes() for col in forms.T}) == own, p
        formed.clear()
        routed.clear()
        computed.clear()


def _refuse_every_certificate(monkeypatch):
    monkeypatch.setattr(
        search, "_normal_forms", lambda p, U, *args: np.zeros((19, U.size), dtype=np.int64)
    )


def test_failed_certificates_take_their_own_rows(monkeypatch):
    # a pair whose normal form is refused has its entries computed from its
    # own rows, and every message of the batch test stays the same, also when
    # every form is refused
    p = 23
    solutions = _sweep_w_line(p)[1]
    gcd_pair = _gcd_excluded_pair(p)
    same_class = [s for s in solutions if _w_of(p, *s) == _w_of(p, 4, 18)]
    assert not same_class  # (4, 18) leads its class; add a follower of it
    follower = next((u, v) for u in range(2, p - 1) for v in range(2, p - 1)
                    if (u, v) != (4, 18) and _w_of(p, u, v) == _w_of(p, 4, 18))
    batches = [
        solutions,
        solutions[:40] + [(4, 18)] + solutions[40:],
        solutions[:5] + [(4, 18)] + solutions[5:9] + [gcd_pair],
        solutions[:5] + [gcd_pair] + [(4, 18)],
        solutions[:5] + [follower, (4, 18)],
        solutions[:5] + [(4, 18), follower],
    ]
    expected = [_recheck_outcome(p, batch) for batch in batches]
    assert expected[0] is None and "(4, 18) is not superspecial" in expected[1]
    assert "({}, {}) is not superspecial".format(*follower) in expected[4]
    # one follower refused: its three quotients join the computed columns
    target = solutions[7]
    rows = [R[:, 0] for R in _quotient_rows(np.array([target[0]]), np.array([target[1]]), p)]
    models = []
    forms = len({col.tobytes() for col in _forms_of(p, *np.array(solutions).T).T})
    normal_forms = search._normal_forms

    def refuse_target(p, U, rows_):
        forms = normal_forms(p, U, rows_)
        hit = np.all([(R == r[:, None]).all(axis=0) for R, r in zip(rows_, rows)], axis=0)
        return forms * ~hit

    monkeypatch.setattr(search, "_normal_forms", refuse_target)
    _spy(monkeypatch, "_cartier_entries_vec", lambda args, out: models.append(args[1]))
    assert _recheck_outcome(p, solutions) is None
    columns = np.hstack(models).T.tolist()
    assert rows[2].tolist() in columns  # the genus-2 quotient of the target
    assert len(columns) == 3 * (forms + 1)
    _refuse_every_certificate(monkeypatch)
    assert [_recheck_outcome(p, batch) for batch in batches] == expected


def test_perturbed_follower_rows_are_named(monkeypatch):
    # a follower whose rows are those of the non-solution (4, 18) has another
    # normal form, and is named with its own (u, v), as without forms
    p = 23
    solutions = _sweep_w_line(p)[1]
    target = solutions[30]
    quotient_rows = search._quotient_rows

    def planted(U, V, p):
        rows = quotient_rows(U, V, p)
        hit = (U == target[0]) & (V == target[1])
        for R, r in zip(rows, quotient_rows(np.array([4]), np.array([18]), p)):
            R[:, hit] = r
        return rows

    monkeypatch.setattr(search, "_quotient_rows", planted)
    message = _recheck_outcome(p, solutions)
    assert message == "RuntimeError: solution ({}, {}) is not superspecial: the Cartier-Manin " \
        "matrix of the genus-2 quotient is nonzero".format(*target)
    _refuse_every_certificate(monkeypatch)
    assert _recheck_outcome(p, solutions) == message


def _plant_rows(monkeypatch, plants):
    """Make `_quotient_rows` return plants[(u, v)], a list of three rows, for
    the pairs it names."""
    quotient_rows = search._quotient_rows

    def planted(U, V, p):
        rows = quotient_rows(U, V, p)
        for (u, v), new in plants.items():
            hit = (U == u) & (V == v)
            for R, r in zip(rows, new):
                R[:, hit] = r[:, None]
        return rows

    monkeypatch.setattr(search, "_quotient_rows", planted)


def test_follower_with_gcd_excluded_rows_takes_its_own_ranks(monkeypatch):
    # a follower whose rows are those of a gcd-excluded pair has a normal
    # form no earlier pair has, and is named with its own polynomial error,
    # whose numbers are those of the planted rows, as without forms
    p = 23
    solutions = _sweep_w_line(p)[1]
    at = 30
    target = solutions[at]
    assert any(_w_of(p, *s) == _w_of(p, *target) for s in solutions[:at])
    gcd_pair = _gcd_excluded_pair(p)
    expected = _recheck_outcome(p, [gcd_pair])
    assert expected == "RuntimeError: solution ({}, {}) has genus 3, not 5".format(*gcd_pair)
    rows = [R[:, 0] for R in _quotient_rows(np.array([gcd_pair[0]]), np.array([gcd_pair[1]]), p)]
    _plant_rows(monkeypatch, {target: rows})
    formed, routed = [], []
    _spy(monkeypatch, "_normal_forms", lambda args, out: formed.append(out))
    _spy(monkeypatch, "kani_rosen_triple", lambda args, out: routed.append(args[0]))
    message = _recheck_outcome(p, solutions)
    assert message == expected.replace("({}, {})".format(*gcd_pair), "({}, {})".format(*target))
    (forms,) = formed  # one slice, in batch order
    assert forms[:, at].any()
    assert (forms[:, :at] != forms[:, at : at + 1]).any(axis=0).all()
    assert DensePoly(field(p), rows[0].tolist()) in routed
    _refuse_every_certificate(monkeypatch)
    assert _recheck_outcome(p, solutions) == message


def test_genus_2_rows_of_another_class_are_named(monkeypatch):
    # a pair whose genus-2 rows are those of a pair of another w class has
    # E_u and D_v of genus 5 but a third quotient that is not E_u D_v / gcd^2:
    # its normal form is not its class's, and it is named with that check,
    # also when every form is refused
    p = 23
    solutions = _sweep_w_line(p)[1]
    target = solutions[30]
    other = next(s for s in solutions if _w_of(p, *s) != _w_of(p, *target) and s[0] != target[0])
    rows = [R[:, 0] for R in _quotient_rows(np.array([target[0]]), np.array([target[1]]), p)]
    rows[2] = _quotient_rows(np.array([other[0]]), np.array([other[1]]), p)[2][:, 0]
    _plant_rows(monkeypatch, {target: rows})
    message = _recheck_outcome(p, solutions)
    assert message == "RuntimeError: solution ({}, {}): the genus-2 quotient is not " \
        "E_u D_v / gcd^2".format(*target)
    _refuse_every_certificate(monkeypatch)
    assert _recheck_outcome(p, solutions) == message


def test_leader_of_lower_degree_certifies_nobody(monkeypatch):
    # a leader whose E_u = (x^2 - 1)(x - 3) has degree 3 and whose genus-2
    # quotient (x - 3) B matches it, so that it passes the polynomial facts,
    # with a follower whose quotients are the images of the leader's under
    # M_u, so that their pull-backs are proportional: the leader has no
    # normal form, the follower takes the per-pair route on its own rows, the
    # polynomial facts refuse the leader's degree, naming it, and the message
    # is the one with every form refused
    p = 23
    ctx = field(p)
    solutions = _sweep_w_line(p)[1]
    leader = solutions[0]
    follower = next(s for s in solutions if s[0] != 0 and _w_of(p, *s) == _w_of(p, *leader))
    lead_rows = [R[:, 0] for R in _quotient_rows(np.array([leader[0]]), np.array([leader[1]]), p)]
    lead_rows[0] = np.array([3, -1, -3, 1, 0]) % p
    b = DensePoly(ctx, lead_rows[2].tolist()) // DensePoly(ctx, [1, 0, 1])
    lead_rows[2] = _model_rows([b * DensePoly(ctx, [-3, 1])])[:, 0]
    follow_rows = [search._pull_back(R[:, None], np.array([-follower[0] % p]), p)[:, 0]
                   for R in lead_rows]
    assert [cartier._degrees(R[:, None])[0] for R in follow_rows] == [4, 6, 6]
    # without the degree condition the two would share a form: their
    # pull-backs are proportional
    for L, R in zip(lead_rows, follow_rows):
        a = search._pull_back(L[:, None], np.array([leader[0]]), p)[:, 0]
        c = search._pull_back(R[:, None], np.array([follower[0]]), p)[:, 0]
        assert a[0] and c[0] and (a * c[0] % p == c * a[0] % p).all()
    us = np.array([leader[0], follower[0]])
    rows = [np.stack(R, axis=1) for R in zip(lead_rows, follow_rows)]
    forms = search._normal_forms(p, us, rows)
    assert not forms[:, 0].any() and forms[:, 1].any()
    _plant_rows(monkeypatch, {leader: lead_rows, follower: follow_rows})
    routed = []
    _spy(monkeypatch, "kani_rosen_triple", lambda args, out: routed.append(args[0]))
    batch = [leader, follower]
    message = _recheck_outcome(p, batch)
    lead_e = DensePoly(ctx, lead_rows[0].tolist())
    assert message == "ValueError: solution {}: E_u has degree 3; the recheck " \
        "reads degree 4 or 6 only".format(leader)
    assert routed == [lead_e]
    # put first, the follower is routed too, and its own genus-2 rows fail
    routed.clear()
    assert _recheck_outcome(p, [follower, leader]) == "RuntimeError: solution {} is not " \
        "superspecial: the Cartier-Manin matrix of the genus-2 quotient is " \
        "nonzero".format(follower)
    assert routed == [DensePoly(ctx, follow_rows[0].tolist()), lead_e]
    _refuse_every_certificate(monkeypatch)
    assert _recheck_outcome(p, batch) == message


def test_one_pair_batch_pulls_nothing_back(monkeypatch):
    # mode "first"'s one pair is checked on its own rows, with no pull-back
    # and no form; a batch of one pair per normal form forms, but certifies
    # nobody: every pair takes the per-pair route
    pulled, routed = [], []
    _spy(monkeypatch, "_pull_back", lambda args, out: pulled.append(args))
    p = 167
    solutions = ss5_sweep(SweepConfig(p=p, mode="first")).solutions
    assert len(solutions) == 1
    verify_solution_story(p, *solutions[0])
    assert pulled == []
    inv = _inverse_table(p)
    by_form = {}
    for u, v in reversed(_sweep_w_line(p)[1]):
        w = _w_of(p, u, v)
        by_form[min(w, inv[w])] = (u, v)
    leaders = sorted(by_form.values())
    assert len(leaders) > 1
    _spy(monkeypatch, "kani_rosen_triple", lambda args, out: routed.append(args[0]))
    verify_solution_story(p, *zip(*leaders))
    assert pulled and len(routed) == len(leaders)


def test_shuffled_batches_name_what_own_rows_name(monkeypatch):
    # the p = 23 pairs with the w class of the non-solution (4, 18) and a
    # gcd-excluded pair planted, shuffled so that followers come before their
    # class's first pair of the sorted order, in slices of 7: the recheck
    # names the pair, with the message, that it names with every form
    # refused, and a passing shuffle routes one pair per form, its leaders
    # carried across slices
    p = 23
    solutions = _sweep_w_line(p)[1]
    values = [0, *range(2, p - 1)]
    planted = [s for s in product(values, repeat=2) if _w_of(p, *s) == _w_of(p, 4, 18)]
    planted.append(_gcd_excluded_pair(p))
    rng = random.Random(2323)
    batches = []
    for _ in range(8):
        batch = solutions + planted
        rng.shuffle(batch)
        batches.append(batch)
    passing = solutions[:]
    rng.shuffle(passing)
    assert passing[0] != solutions[0] and passing[-1] != solutions[-1]
    monkeypatch.setattr(search, "RECHECK_SLICE", 7)
    got = [_recheck_outcome(p, batch) for batch in batches]
    assert len(set(got)) > 2 and None not in got
    routed = []
    _spy(monkeypatch, "kani_rosen_triple", lambda args, out: routed.append(args[0]))
    assert _recheck_outcome(p, passing) is None
    assert len(routed) == 2
    _refuse_every_certificate(monkeypatch)
    assert [_recheck_outcome(p, batch) for batch in batches] == got


@pytest.mark.nightly
def test_certified_recheck_matches_own_rows_at_10007():
    # about 40 s: the entries of all 40 016 mode-"all" pairs at 10 007,
    # computed from their own rows, vanish, and their own polynomial facts
    # pass the per-pair route, as the certified recheck, which checks both
    # for the leaders alone, says
    p = 10007
    ctx = field(p)
    solutions = _sweep_w_line(p)[1]
    assert len(solutions) == 40016
    us, vs = np.array(solutions).T
    for start in range(0, us.size, 512):
        part = slice(start, start + 512)
        E, D, F = _quotient_rows(us[part], vs[part], p)
        # and every pair passes the polynomial checks, as inherited
        for i, (u, v) in enumerate(zip(us[part].tolist(), vs[part].tolist())):
            search._polynomial_facts(ctx, u, v, E[:, i], D[:, i], F[:, i])
        E = np.vstack([E, np.zeros_like(E[:2])])
        models = np.stack([E, D, F], axis=2).reshape(7, -1)
        assert not _cartier_entries_vec(p, models).any(), start
    verify_solution_story(p, us, vs)


def test_result_text_is_the_indented_json_dump():
    # the spliced GF(p) record is byte for byte json.dumps with sort_keys and
    # indent 2: at every prime p = 11 (mod 12) below 1000 and at 10 007, in
    # both modes, for an empty solution list, and for --ext-field records
    def dumped(result):
        return json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n"

    results = [
        ss5_sweep(SweepConfig(p=p, mode=mode))
        for p in [*range(11, 1000, 12), 10007]
        if is_prime(p)
        for mode in ("first", "all")
    ]
    assert any(not r.solutions for r in results) and sum(len(r.solutions) > 1 for r in results) > 20
    empty = dataclasses.replace(results[-1], solutions=[])
    results += [empty, ss5_sweep_ext(11, mode="first"), ss5_sweep_ext(11, mode="all")]
    for r in results:
        assert result_text(r) == dumped(r), (r.p, r.mode)


def test_sweep_p11_solutions_sound():
    r = ss5_sweep(SweepConfig(p=11, mode="all"))
    assert r.solutions, "expected solutions at p = 11"
    assert r.solutions == sorted(r.solutions)
    ctx = field(11)
    for u, v in r.solutions:
        # the genus-2 quotient is superspecial and the genus-5 cover has p-rank 0
        from cmrank.search import _pair_polys

        a_poly, b_poly = _pair_polys(ctx.elem(u), ctx.elem(v))
        assert is_superspecial(HyperellipticModel(ctx, a_poly * b_poly))
        f_eu, f_dv, _ = _quotients(ctx, u, v)
        t = triple_with_pranks(f_eu, f_dv)
        assert (t.genus_total, t.prank_total) == (5, 0)


def test_sweep_solutions_verified_by_zeta_oracle():
    # independent validation: point-count L-polynomials of all three
    # quotients vanish mod p for sampled solutions
    from cmrank.cartier import prank_oracle

    r = ss5_sweep(SweepConfig(p=11, mode="all"))
    ctx = field(11)
    for u, v in r.solutions[:4]:
        f_eu, f_dv, f = _quotients(ctx, u, v)
        t = kani_rosen_triple(f_eu, f_dv)
        for fpoly in (t.fE, t.f2, t.f3, f):
            assert prank_oracle(HyperellipticModel(ctx, fpoly)) == 0


def _w_verdicts(p):
    """The kernel's verdict on each orbit, keyed by w (None for infinity,
    which takes the verdict of w = 0)."""
    ws = _w_line(p)
    gcd, solution = _classify(p, ws)
    names = ["gcd" if g else "solution" if h else "not_solution" for g, h in zip(gcd, solution)]
    verdicts = dict(zip(ws.tolist(), names))
    verdicts[None] = verdicts[0]
    return verdicts


def test_sweep_counts_invariant():
    for p in (11, 23, 47, 107, 131):
        _check_counts_invariant(p)


def _check_counts_invariant(p):
    c = ss5_sweep(SweepConfig(p=p, mode="first")).counts
    assert c["tested"] + c["excluded_gcd"] + c["excluded_singular"] == (p - 2) ** 2
    assert c["excluded_uv"] == p * p - (p - 2) ** 2
    # the orbits partition the grid with the closed-form sizes, and the counts
    # are their sizes summed per verdict
    verdicts = _w_verdicts(p)
    by_verdict = {"gcd": 0, "singular": 0, "solution": 0, "not_solution": 0}
    seen = set()
    for w, verdict in verdicts.items():
        orbit = _orbit(p, w)
        assert len(orbit) == (p - 2 if w == 0 else p - 3)
        assert orbit == sorted(orbit)
        seen.update(orbit)
        by_verdict[verdict] += len(orbit)
    grid = [x for x in range(p) if x not in (1, p - 1)]
    assert seen == {(u, v) for u in grid for v in grid}
    assert c["excluded_gcd"] == by_verdict["gcd"]
    assert c["excluded_singular"] == by_verdict["singular"]
    assert c["tested"] == by_verdict["solution"] + by_verdict["not_solution"]


def test_sweep_mode_first_is_first_of_mode_all():
    # mode "first" reads (0, least good w) without expanding any orbit; the
    # sorted expansion of mode "all" is its oracle, without the recheck
    for p in _primes_11_mod_12(1000):
        counts, solutions = _sweep_w_line(p, "all")
        assert _sweep_w_line(p, "first") == (counts, solutions[:1]), p
    for p in (23, 47):
        full = ss5_sweep(SweepConfig(p=p, mode="all"))
        first = ss5_sweep(SweepConfig(p=p, mode="first"))
        assert first.solutions == [full.solutions[0]]
        assert first.counts == full.counts


def test_sweep_verdict_invariant_on_orbits():
    # seeded random pairs from every kind of orbit get the same verdict from
    # the scalar oracle as the sweep gives their representative
    p = 131
    ctx = field(p)
    rng = random.Random(131)
    verdicts = _w_verdicts(p)
    solutions = set(_sweep_w_line(p)[1])
    finite = [w for w in verdicts if w not in (0, None)]
    kinds = {
        "diagonal": 0,
        "infinity": None,
        "gcd": rng.choice([w for w in finite if verdicts[w] == "gcd"]),
        "good": rng.choice([w for w in finite if verdicts[w] == "solution"]),
        "ordinary": rng.choice([w for w in finite if verdicts[w] == "not_solution"]),
    }
    grid = [x for x in range(p) if x not in (1, p - 1)]
    for kind, w in kinds.items():
        sampled = 0
        while sampled < 3:
            u = ctx.elem(rng.choice(grid))
            if w is None:
                if u.is_zero:
                    continue
                v = u.inverse()
            else:
                den = ctx.one + u * ctx.elem(w)
                if den.is_zero:
                    continue
                v = (u + ctx.elem(w)) / den
            sampled += 1
            pair = (u.coords[0], v.coords[0])
            r = ss5_check_pair(p, u, v)
            got = r.reason if r.status == "excluded" else r.status
            assert got == verdicts[w], (kind, w, pair)
            assert (pair in solutions) == (got == "solution"), (kind, w, pair)


def test_sweep_mode_first_single_solution():
    r = ss5_sweep(SweepConfig(p=11, mode="first"))
    assert len(r.solutions) == 1


def test_results_cache_roundtrip(tmp_path):
    cfg = SweepConfig(p=11, mode="all")
    r1, from_cache = sweep_with_cache(cfg, tmp_path)
    assert not from_cache
    path = result_path(tmp_path, 11)
    assert path.exists()
    r2, from_cache = sweep_with_cache(cfg, tmp_path)
    assert from_cache
    assert r2.solutions == r1.solutions
    assert r2.counts == r1.counts
    r3, from_cache = sweep_with_cache(cfg, tmp_path, force=True)
    assert not from_cache
    # the persisted record is valid JSON matching the result schema
    obj = json.loads(path.read_text())
    assert set(obj) == {"p", "mode", "solutions", "counts", "elapsed_ms"}


def test_load_missing_returns_none(tmp_path):
    assert load_result(tmp_path, 11) is None


def test_load_result_checks_the_contract(tmp_path):
    # a record as written loads; a changed mode, a count or pair that is not
    # an integer, or a solution that is not a pair is refused, naming the file
    sweep_with_cache(SweepConfig(p=11, mode="all"), tmp_path)
    path = result_path(tmp_path, 11)
    good = json.loads(path.read_text())
    assert load_result(tmp_path, 11).to_json() == good
    for change, problem in (
        ({"mode": "ext-all"}, "mode must be 'first' or 'all'"),
        ({"counts": {**good["counts"], "tested": 49.0}}, "integers only"),
        ({"solutions": [[0, "2"]]}, "integers only"),
        ({"solutions": [[0, 2, 3]]}, "not a list of pairs"),
        ({"counts": {"tested": 49}}, "counts have exactly the fields"),
    ):
        path.write_text(json.dumps({**good, **change}))
        with pytest.raises(ValueError, match="p=11.json: .*" + problem):
            load_result(tmp_path, 11)


def _first_prime_past_the_ext_guard():
    return next(
        p for p in range(11, 1 << 20, 12)
        if is_prime(p) and (p * p - 1) // 2 > search.EXT_ORACLE_GUARD
    )


def test_ext_search_small():
    r = ss5_sweep_ext(11, mode="first")
    assert r.mode == "ext-first"
    assert r.solutions == [("0+0*w", "2+0*w")]
    assert r.counts == {
        "tested": 22, "excluded_uv": 480, "excluded_gcd": 0, "excluded_singular": 0,
    }
    with pytest.raises(ValueError):
        ss5_sweep_ext(_first_prime_past_the_ext_guard())


def test_ext_search_guards_fire_before_listing_the_field(monkeypatch):
    def refuse(self):
        raise AssertionError("listed GF(p^2) past a guard")

    monkeypatch.setattr(FieldCtx, "elements", refuse)
    # the guard bounds the (p^2 - 1)/2 oracle calls of the line: it admits
    # every p < 512, the solution-free 107, 443 and 491 among them, and
    # refuses 563, the next prime p = 11 (mod 12)
    past = _first_prime_past_the_ext_guard()
    assert past == 563
    assert (past**2 - 1) // 2 > search.EXT_ORACLE_GUARD >= (511**2 - 1) // 2
    with pytest.raises(ValueError, match="guard"):
        ss5_sweep_ext(past)
    with pytest.raises(ValueError, match="mode"):
        ss5_sweep_ext(11, mode="some")


def test_ext_search_all_refuses_before_expanding_an_orbit(monkeypatch):
    # p = 23 has 3156 solution pairs over GF(p^2): with the recheck guard
    # below them, mode "all" refuses before any good orbit is expanded
    def refuse(*args):
        raise AssertionError("expanded an orbit past the guard")

    monkeypatch.setattr(search, "_ext_orbit", refuse)
    monkeypatch.setattr(search, "RECHECK_GUARD", 3155)
    with pytest.raises(ValueError, match="p = 23 reports at least 3156 pairs, beyond the recheck") as e:
        ss5_sweep_ext(23, mode="all")
    # 3156 = 6 (q - 3): six good orbits of the w line, none of them w = 0;
    # the walk passes the guard when it meets the last of them
    assert str(e.value).endswith("guard 3155 (6 good orbits so far)")
    # mode "first" expands nothing, so the guard does not apply
    assert ss5_sweep_ext(23, mode="first").solutions


def test_ext_search_all_refuses_inside_the_walk(monkeypatch):
    # with the guard below one orbit of q - 3 = 526 pairs, mode "all" refuses
    # at the first good pair {w, -w}, 2 * 526 pairs, before the oracle has
    # seen the whole line: the full walk takes (23^2 - 1) / 2 = 264 calls
    calls = []

    def spy(p, u, v, strategy="auto"):
        calls.append(v)
        return ss5_check_pair(p, u, v, strategy)

    monkeypatch.setattr(search, "ss5_check_pair", spy)
    ss5_sweep_ext(23, mode="all")
    assert len(calls) == 264
    calls.clear()
    monkeypatch.setattr(search, "RECHECK_GUARD", 525)
    with pytest.raises(ValueError) as e:
        ss5_sweep_ext(23, mode="all")
    assert str(e.value) == (
        "mode 'all' at p = 23 reports at least 1052 pairs, beyond the recheck "
        "guard 525 (2 good orbits so far)"
    )
    assert 0 < len(calls) < 264
    assert ss5_check_pair(23, calls[-1].ctx.zero, calls[-1]).status == "solution"


@pytest.mark.parametrize("p", [23, 47])
def test_ext_search_agrees_with_the_gf_p_sweep_on_gf_p(p):
    # the scalar oracle over GF(p^2) against the ladder and the traces over
    # GF(p): the two share no decision code, and the GF(p)-rational pairs
    # of the ext record are the GF(p) sweep's, in the same order
    ext = ss5_sweep_ext(p, mode="all")
    rational = [
        pair for pair in ext.solutions if all(x.endswith("+0*w") for x in pair)
    ]
    expected = ss5_sweep(SweepConfig(p, mode="all")).solutions
    assert rational == [(f"{u}+0*w", f"{v}+0*w") for u, v in expected]
    if p == 23:
        assert len(rational) == 80 and len(ext.solutions) == 3156
        # mode "all" counts the whole grid; mode "first" counts the first
        # row, (0, w) for w ascending, up to the pair it reports, and the
        # pairs with u or v = +-1
        q = p * p
        assert sum(ext.counts.values()) == q * q
        first = ss5_sweep_ext(p, mode="first")
        (u, v), = first.solutions
        row = [str(w) for w in field(p, 2).elements() if w.coords not in {(1, 0), (p - 1, 0)}]
        assert u == "0+0*w" and (u, v) == ext.solutions[0]
        assert first.counts["excluded_uv"] == ext.counts["excluded_uv"] == q * q - (q - 2) ** 2
        assert sum(first.counts.values()) - first.counts["excluded_uv"] == row.index(v) + 1


def _verdict(r):
    return r.reason if r.status == "excluded" else r.status


def test_infinity_orbit_takes_the_verdict_of_w_zero():
    # the former representative (2, 1/2) of w = infinity, kept as the oracle
    for p in range(11, 1000, 12):
        if is_prime(p):
            ctx = field(p)
            r = ss5_check_pair(p, ctx.elem(2), ctx.elem(2).inverse())
            assert _verdict(r) == _w_verdicts(p)[0], p
    for p in (11, 23, 47):
        ctx = field(p, 2)
        two = ctx.elem(2)
        r = ss5_check_pair(p, two, two.inverse())
        assert _verdict(r) == _verdict(ss5_check_pair(p, ctx.zero, ctx.zero)), p


def test_ext_orbits_share_their_representative_verdict():
    # one seeded pair per orbit of the GF(121) grid, infinity included,
    # against the oracle's verdict on (0, w), (0, 0) for infinity
    p = 11
    ctx = field(p, 2)
    one = ctx.one
    elems = [e for e in ctx.elements() if not (e == one or e == -one)]
    rng = random.Random(1111)
    for w in elems + [None]:
        while True:
            u = rng.choice(elems)
            if w is None:
                if u.is_zero:
                    continue
                v = u.inverse()
            else:
                den = one + u * w
                if den.is_zero:
                    continue
                v = (u + w) / den
            break
        assert v in elems, (w, u)
        rep = ss5_check_pair(p, ctx.zero, ctx.zero if w is None else w)
        assert _verdict(ss5_check_pair(p, u, v)) == _verdict(rep), (w, u, v)


def test_ext_search_checks_each_orbit_once(monkeypatch):
    calls = []

    def spy(p, u, v, strategy="auto"):
        calls.append((u, v))
        return ss5_check_pair(p, u, v, strategy)

    monkeypatch.setattr(search, "ss5_check_pair", spy)
    ss5_sweep_ext(11, mode="all")
    # one call per pair {w, -w}: 0 and 59 pairs of the other 118 w
    assert len(calls) <= (11**2 - 1) // 2
    ws = {w for _, w in calls}
    assert len(ws) == len(calls)
    assert not ws & {-w for w in ws if not w.is_zero}
    calls.clear()
    ss5_sweep_ext(11, mode="first")
    assert len(calls) <= 22


def test_ext_search_all_golden():
    # the solution digest was taken from the per-pair scan the orbit rule
    # replaced
    r = ss5_sweep_ext(11, mode="all")
    assert r.mode == "ext-all"
    assert r.counts == {
        "tested": 13689, "excluded_uv": 480, "excluded_gcd": 472, "excluded_singular": 0,
    }
    assert len(r.solutions) == 472
    digest = hashlib.sha256(json.dumps(r.to_json()["solutions"]).encode()).hexdigest()
    assert digest == "5c2585f3d87ee232da06eddbdffdf5421c6cc5f9573a8937adc268dbf4e35ac2"


@pytest.mark.nightly
def test_ext_search_matches_the_per_pair_scan():
    # every one of the 14 161 pairs through the scalar oracle (about 7 s)
    p = 11
    ctx = field(p, 2)
    one = ctx.one
    elems = [e for e in ctx.elements() if not (e == one or e == -one)]
    counts = {"tested": 0, "excluded_uv": 480, "excluded_gcd": 0, "excluded_singular": 0}
    solutions = []
    for u, v in product(elems, repeat=2):
        verdict = _verdict(ss5_check_pair(p, u, v))
        if verdict in ("uv", "gcd", "singular"):
            counts["excluded_" + verdict] += 1
            continue
        counts["tested"] += 1
        if verdict == "solution":
            solutions.append((str(u), str(v)))
    r = ss5_sweep_ext(p, mode="all")
    assert r.counts == counts
    assert r.solutions == solutions


def test_enumeration_char3_empty():
    assert superspecial_g2_enumeration(3, 9) == []
    assert superspecial_g2_enumeration(3, 3) == []


def _walk_and_discard(ctx, d, needed):
    """Every monic degree-d tail in lexicographic order, kept when the
    coefficients at `needed` vanish: the enumeration's former walk."""
    ext = ctx.ext_degree
    raw_elems = [e.coords[0] if ext == 1 else e.coords for e in ctx.elements()]
    zero = 0 if ext == 1 else (0, 0)
    one = 1 if ext == 1 else (1, 0)
    for tail in product(raw_elems, repeat=d):
        coeffs = list(tail) + [one]
        if all(coeffs[k] == zero for k in needed):
            yield coeffs


@pytest.mark.parametrize("q", [3, 9])
def test_enumeration_char3_tails_match_walk_and_discard(q):
    ctx = field(3) if q == 3 else field(3, 2)
    needed = [1, 2, 4, 5]  # 3j - i for i, j in {1, 2}
    survivors = []
    for d in (5, 6):
        walked = list(_walk_and_discard(ctx, d, needed))
        assert list(_monic_tails(ctx, d, needed)) == walked
        survivors += walked
    # degree 5 is dead (its x^5 coefficient is the monic 1); degree 6 keeps c0, c3
    assert len(survivors) == q**2
    expected = [c for c in survivors if is_squarefree(DensePoly(ctx, c))]
    assert [C.f.raw() for C in superspecial_g2_enumeration(3, q)] == [tuple(c) for c in expected]


def test_enumeration_p5_models_verified():
    models = superspecial_g2_enumeration(5, 5)
    for C in models:
        data = cartier_matrix(C)
        assert all(x.is_zero for row in data.M for x in row)
        assert data.p_rank == 0
    # deterministic order
    again = superspecial_g2_enumeration(5, 5)
    assert [C.f for C in again] == [C.f for C in models]


def test_enumeration_guards():
    with pytest.raises(ValueError):
        superspecial_g2_enumeration(7, 7)
    with pytest.raises(ValueError):
        superspecial_g2_enumeration(5, 25)
    with pytest.raises(ValueError):
        superspecial_g2_enumeration(5, 10)
