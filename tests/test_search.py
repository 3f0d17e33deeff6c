import json
import random
from itertools import product

import pytest

from cmrank.cartier import HyperellipticModel, cartier_matrix, is_superspecial
from cmrank.covers import prank_fiber_product
from cmrank.ff import field
from cmrank.poly import DensePoly, is_squarefree
from cmrank.search import (
    SweepConfig,
    _classify,
    _monic_tails,
    _inverse_table,
    _orbit,
    _sweep_w_line,
    _w_line,
    load_result,
    quotient_polys,
    result_path,
    ss5_check_pair,
    ss5_sweep,
    ss5_sweep_ext,
    superspecial_g2_enumeration,
    sweep_with_cache,
    verify_solution_story,
)


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
        f_eu, f_dv = quotient_polys(ctx.elem(u), ctx.elem(v))
        assert prank_fiber_product(f_eu, f_dv) == (5, 0)


def test_sweep_solutions_verified_by_zeta_oracle():
    # independent validation: point-count L-polynomials of all three
    # quotients vanish mod p for sampled solutions
    from cmrank.cartier import prank_oracle
    from cmrank.covers import kani_rosen_triple

    r = ss5_sweep(SweepConfig(p=11, mode="all"))
    ctx = field(11)
    for u, v in r.solutions[:4]:
        f_eu, f_dv = quotient_polys(ctx.elem(u), ctx.elem(v))
        t = kani_rosen_triple(f_eu, f_dv)
        for fpoly in (t.fE, t.f2, t.f3):
            assert prank_oracle(HyperellipticModel(ctx, fpoly)) == 0


def _w_verdicts(p):
    """The kernel's verdict on each orbit, keyed by w (None for infinity)."""
    ws, us, vs = _w_line(p)
    gcd, singular, solution = _classify(p, us, vs, _inverse_table(p))
    names = ["gcd" if g else "singular" if s else "solution" if h else "not_solution"
             for g, s, h in zip(gcd, singular, solution)]
    return dict(zip(ws, names))


def test_sweep_counts_invariant():
    for p in (11, 23, 47, 107, 131):
        _check_counts_invariant(p)


def _check_counts_invariant(p):
    c = ss5_sweep(SweepConfig(p=p, mode="first")).counts
    assert c["tested"] + c["excluded_gcd"] + c["excluded_singular"] == (p - 2) ** 2
    assert c["excluded_uv"] == p * p - (p - 2) ** 2
    # the orbits partition the grid with the closed-form sizes, and the counts
    # are their sizes summed per verdict
    inv = _inverse_table(p)
    verdicts = _w_verdicts(p)
    by_verdict = {"gcd": 0, "singular": 0, "solution": 0, "not_solution": 0}
    seen = set()
    for w, verdict in verdicts.items():
        orbit = _orbit(p, w, inv)
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


def test_ext_search_small():
    r = ss5_sweep_ext(11, mode="first")
    assert r.mode == "ext-first"
    assert r.solutions, "extension grid contains the prime-field solutions"
    with pytest.raises(ValueError):
        ss5_sweep_ext(107)


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
