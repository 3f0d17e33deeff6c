"""Named verification suites re-running the toolkit's expected-value checks.

Each suite returns a machine-readable report:
    {"suite": ..., "passed": bool, "checks": [{"name", "passed", "detail"}],
     "counts": {...}, "elapsed_ms": int, "seed": int | None}
The randomized suites take an explicit seed (default DEFAULT_SEED) so every
report is reproducible.
"""

from __future__ import annotations

import itertools
import random
import time

from .cartier import (
    HyperellipticModel,
    cartier_matrix,
    is_superspecial,
    matrix_rank,
    p_rank,
    power_coeffs,
    prank_oracle,
)
from .covers import (
    char3_genus3_witness,
    component_p_rank,
    family_xn_tn,
    genus2_supersingular_pair,
    kani_rosen_triple,
    prop44_case2_points,
    prop45_models,
)
from .curves import quartic_hasse_char3, supersingular_lambdas
from .ff import field
from .poly import DensePoly, is_squarefree
from .search import (
    SweepConfig,
    ss5_check_pair,
    ss5_sweep,
    superspecial_g2_enumeration,
)
from .strata import (
    StratumQuery,
    boundary_components,
    smooth_cover_exists,
    stratum_dim,
)

DEFAULT_SEED = 20240411
PRIMES_TO_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

SUITES = {}


def _suite(name):
    def wrap(fn):
        SUITES[name] = fn
        return fn

    return wrap


class _Report:
    def __init__(self, suite, seed=None):
        self.suite = suite
        self.seed = seed
        self.checks = []
        self.counts = {}
        self.start = time.monotonic()

    def check(self, name, passed, detail=""):
        self.checks.append(
            {"name": name, "passed": bool(passed), "detail": str(detail)}
        )

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def done(self):
        out = {
            "suite": self.suite,
            "passed": all(c["passed"] for c in self.checks) and bool(self.checks),
            "checks": self.checks,
            "counts": self.counts,
            "elapsed_ms": int((time.monotonic() - self.start) * 1000),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@_suite("lemma43")
def verify_lemma43(seed=None, threads=1):
    """z^2 = x^n - t^n: rank M = #S, never ordinary off p = 1 (mod n), and
    M = 0 at p = -1 (mod n)."""
    rep = _Report("lemma43")
    failures = []
    for n in range(3, 13):
        for p in PRIMES_TO_50:
            if n % p == 0 or p % n == 1:
                continue
            ctx = field(p)
            for t in (1, 2):
                C = family_xn_tn(n, ctx.elem(t))
                g = C.genus
                M = cartier_matrix(C).M
                s_size = sum(1 for i in range(1, g + 1) if 1 <= (p * i) % n <= g)
                ok = matrix_rank(M) == s_size and matrix_rank(M) < g
                if p % n == n - 1:
                    ok = ok and all(x.is_zero for row in M for x in row)
                rep.bump("cases")
                if not ok:
                    failures.append((n, p, t))
    rep.check("rank_formula_and_nonordinary", not failures, f"failures: {failures}")
    return rep.done()


@_suite("char3-genus3")
def verify_char3_genus3(seed=None, threads=1):
    rep = _Report("char3-genus3")
    t = char3_genus3_witness()
    for label, f in (("E", t.fE), ("D2", t.f2), ("D3", t.f3)):
        rep.check(f"{label}_squarefree", is_squarefree(f))
        rep.check(f"{label}_hasse_zero", quartic_hasse_char3(f).is_zero)
    rep.check("genus_total_3", t.genus_total == 3, f"genus {t.genus_total}")
    rep.check("prank_total_0", t.prank_total == 0, f"p-rank {t.prank_total}")
    return rep.done()


@_suite("ekedahl3")
def verify_ekedahl3(seed=None, threads=1):
    rep = _Report("ekedahl3")
    models = superspecial_g2_enumeration(3, 9)
    rep.bump("candidates", 9**5 + 9**6)
    rep.check(
        "no_superspecial_genus2_char3",
        len(models) == 0,
        f"{len(models)} superspecial models found",
    )
    return rep.done()


@_suite("genus2-ss")
def verify_genus2_ss(seed=None, threads=1):
    rep = _Report("genus2-ss")
    for p in (5, 7, 11, 13):
        t = genus2_supersingular_pair(p)
        rep.check(
            f"p{p}_genus2_prank0",
            (t.genus_total, t.prank_total) == (2, 0),
            f"genus {t.genus_total}, p-rank {t.prank_total}",
        )
    return rep.done()


def _candidate_lambdas(p, count=2):
    """A few supersingular lambdas plus one ordinary one, over GF(p^2)."""
    ctx = field(p, 2)
    ss = supersingular_lambdas(p)
    picked = list(ss[:count])
    ss_set = set(ss)
    for lam in ctx.elements():
        if lam.is_zero or lam == ctx.one or lam in ss_set:
            continue
        picked.append(lam)
        break
    return ctx, picked, ss_set


@_suite("prop44")
def verify_prop44(seed=None, threads=1):
    rep = _Report("prop44")
    # case 1: D2 = z^2 = x^n - t^n
    fails_ordinary = []
    fails_bound = []
    for n in range(3, 8):
        for p in PRIMES_TO_50:
            if n % p == 0 or p % n == 1:
                continue
            ctx, lams, ss_set = _candidate_lambdas(p, count=1)
            for lam in lams:
                tval = None
                for c in ctx.elements():
                    if c.is_zero:
                        continue
                    if (c**n) != ctx.one and (c**n) != lam**n:
                        tval = c
                        break
                if tval is None:
                    rep.bump("case1_skipped")
                    continue
                f1 = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam])
                d2 = family_xn_tn(n, tval)
                triple = kani_rosen_triple(f1, d2.f)
                f_new = component_p_rank(triple.f2) + component_p_rank(triple.f3)
                g_new = triple.genera[1] + triple.genera[2]
                rep.bump("case1")
                if not f_new < g_new:
                    fails_ordinary.append((n, p, str(lam)))
                if p % n == n - 1 and lam in ss_set:
                    f_d = component_p_rank(f1) + f_new
                    if not f_d <= (n + 2) // 2:  # ceil((n+1)/2)
                        fails_bound.append((n, p, str(lam)))
    rep.check("case1_new_part_not_ordinary", not fails_ordinary, f"{fails_ordinary}")
    rep.check("case1_prank_bound", not fails_bound, f"{fails_bound}")

    # case 2: Moebius-transported branch points, supersingular lambdas first
    fails2 = []
    tested2 = 0
    for n in (3, 5, 7):
        for p in PRIMES_TO_50:
            if (n + 3) % p == 0 or p % (n + 3) != n + 2:
                continue
            ctx = field(p, 2)
            ss_list = supersingular_lambdas(p)
            ss_set = set(ss_list)
            candidates = itertools.chain(
                ss_list,
                (
                    lam
                    for lam in ctx.elements()
                    if not (lam.is_zero or lam == ctx.one) and lam not in ss_set
                ),
            )
            for lam in candidates:
                try:
                    xs = prop44_case2_points(n, lam)
                    break
                except ValueError:
                    continue
            else:
                fails2.append((n, p, "no valid configuration"))
                continue
            tested2 += 1
            f3 = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam] + xs)
            f2 = DensePoly.from_roots(ctx, xs)
            if not is_superspecial(HyperellipticModel(ctx, f3)):
                fails2.append((n, p, "third quotient not superspecial"))
                continue
            f_new = component_p_rank(f2) + component_p_rank(f3)
            if not f_new <= (n - 1) // 2:
                fails2.append((n, p, f"f_new = {f_new}"))
                continue
            if lam in ss_set:
                f1 = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam])
                f_d = component_p_rank(f1) + f_new
                if not f_d <= (n - 1) // 2:
                    fails2.append((n, p, f"f_D = {f_d}"))
    rep.counts["case2"] = tested2
    rep.check("case2_prank_bound", not fails2, f"{fails2}")
    return rep.done()


@_suite("prop45")
def verify_prop45(seed=None, threads=1):
    rep = _Report("prop45")
    fails_ordinary = []
    fails_bound = []
    for n in range(3, 8):
        modulus = 2 * (n - 1)
        for p in PRIMES_TO_50:
            if modulus % p == 0:
                continue
            r = p % modulus
            if r in (1, (n - 2) % modulus):
                continue
            ctx, lams, ss_set = _candidate_lambdas(p, count=1)
            for lam in lams:
                if lam ** (n - 1) == ctx.one:
                    continue
                d1, d2 = prop45_models(n, lam)
                rep.bump("cases")
                if not p_rank(d1) < d1.genus:
                    fails_ordinary.append((n, p, str(lam)))
                if r == modulus - 1:
                    f_new = p_rank(d1) + (p_rank(d2) if d2 is not None else 0)
                    bound = n // 2 - 1  # ceil((n-1)/2) - 1
                    if not f_new <= bound:
                        fails_bound.append((n, p, str(lam), f_new))
    rep.check("d1_not_ordinary", not fails_ordinary, f"{fails_ordinary}")
    rep.check("new_part_bound_at_minus_one", not fails_bound, f"{fails_bound}")
    return rep.done()


@_suite("ss5-small")
def verify_ss5_small(seed=None, threads=1):
    rep = _Report("ss5-small")
    for p in (11, 23, 47, 59, 71, 83):
        r = ss5_sweep(SweepConfig(p=p, mode="first", threads=threads))
        ok = len(r.solutions) == 1
        detail = f"solution {r.solutions[0]}" if ok else "no solution found"
        if ok:
            u, v = r.solutions[0]
            ctx = field(p)
            recheck = ss5_check_pair(p, ctx.elem(u), ctx.elem(v), strategy="naive")
            ok = recheck.status == "solution"
            if not ok:
                detail = f"solution {r.solutions[0]} fails the naive recheck"
        rep.check(f"p{p}_has_solution", ok, detail)
        rep.bump("pairs_tested", r.counts["tested"])
    r107 = ss5_sweep(SweepConfig(p=107, mode="all", threads=threads))
    rep.check(
        "p107_has_none",
        len(r107.solutions) == 0,
        f"{len(r107.solutions)} solutions",
    )
    rep.bump("pairs_tested", r107.counts["tested"])
    return rep.done()


@_suite("oracle")
def verify_oracle(seed=None, threads=1):
    seed = DEFAULT_SEED if seed is None else seed
    rep = _Report("oracle", seed=seed)
    rng = random.Random(seed)

    def random_squarefree(ctx, deg, nonzero_const=False):
        while True:
            raw = [rng.randrange(ctx.p) for _ in range(deg)] + [rng.randrange(1, ctx.p)]
            f = DensePoly(ctx, raw)
            if nonzero_const and f.coeff(0).is_zero:
                continue
            if f.degree == deg and is_squarefree(f):
                return f

    # (a) recurrence vs naive coefficient extraction
    mismatches = 0
    for _ in range(100):
        p = PRIMES_TO_50[rng.randrange(len(PRIMES_TO_50))]
        ctx = field(p)
        deg = rng.randrange(3, 7)
        f = random_squarefree(ctx, deg, nonzero_const=True)
        m = (p - 1) // 2
        top = m * deg
        reachable = [k for k in range(top + 1) if k < p or top - k < p]
        idx = set(rng.sample(reachable, min(6, len(reachable))))
        if power_coeffs(f, m, idx, "recurrence") != power_coeffs(f, m, idx, "naive"):
            mismatches += 1
        rep.bump("strategy_cases")
    rep.check("recurrence_equals_naive", mismatches == 0, f"{mismatches} mismatches")

    # (b) p-rank vs the point-counting oracle; (c) invariances on the corpus
    disagreements = 0
    invariance_failures = 0
    for _ in range(50):
        p = [3, 5, 7, 11, 13][rng.randrange(5)]
        ctx = field(p)
        deg = rng.randrange(3, 7)
        C = HyperellipticModel(ctx, random_squarefree(ctx, deg))
        r = p_rank(C)
        if r != prank_oracle(C):
            disagreements += 1
        s = ctx.elem(rng.randrange(p))
        c = ctx.elem(rng.randrange(1, p))
        shifted = HyperellipticModel(ctx, C.f.compose_linear(s))
        scaled = HyperellipticModel(ctx, C.f.scale(c))
        if p_rank(shifted) != r or p_rank(scaled) != r:
            invariance_failures += 1
        rep.bump("oracle_cases")
    rep.check("prank_equals_zeta_oracle", disagreements == 0, f"{disagreements} disagreements")
    rep.check("shift_and_scale_invariance", invariance_failures == 0, f"{invariance_failures} failures")
    return rep.done()


@_suite("strata")
def verify_strata(seed=None, threads=1):
    rep = _Report("strata")
    bad = []
    for g in range(2, 9):
        for f_E in (0, 1):
            for f in range(f_E, g + f_E):
                if stratum_dim(StratumQuery(g, f, f_E, "B_Eg")) != g - 2 + f - f_E:
                    bad.append(("B_Eg", g, f, f_E))
        for f in range(0, g + 1):
            if stratum_dim(StratumQuery(g, f, 0, "B_g")) != g - 2 + f:
                bad.append(("B_g", g, f))
            if stratum_dim(StratumQuery(g, f, 0, "H_g")) != g - 1 + f:
                bad.append(("H_g", g, f))
        rep.bump("tables", 1)
    rep.check("dimension_tables", not bad, f"{bad}")

    bad_boundary = []
    for g in range(2, 9):
        comps = boundary_components(g)
        xi_pairs = sorted(
            (c.g1, c.g2) for c in comps if c.kind in ("Xi", "delta_ct", "xi_nct")
        )
        expected_xi = sorted([(1, g - 2)] + [(g1, g - 1 - g1) for g1 in range(1, g)])
        delta_pairs = sorted((c.g1, c.g2) for c in comps if c.kind == "Delta")
        expected_delta = [(g1, g - g1) for g1 in range(2, g)]
        if xi_pairs != expected_xi or delta_pairs != expected_delta:
            bad_boundary.append(g)
    rep.check("boundary_index_ranges", not bad_boundary, f"{bad_boundary}")

    exc = []
    if smooth_cover_exists(3, 2, 0, 0) is not False:
        exc.append("(3,2,0) should be the exception")
    for p in (3, 5, 7):
        for g in range(2, 6):
            for f_E in (0, 1):
                for f in range(0, g + 1):
                    expected = (1 <= f <= g) if f_E == 1 else (
                        0 <= f <= g - 1 and (p, g, f) != (3, 2, 0)
                    )
                    if smooth_cover_exists(p, g, f, f_E) != expected:
                        exc.append((p, g, f, f_E))
    rep.check("smooth_cover_existence", not exc, f"{exc}")
    return rep.done()


def run_suite(name: str, seed=None, threads: int = 1) -> dict:
    if name == "all":
        reports = [fn(seed=seed, threads=threads) for fn in SUITES.values()]
        return {
            "suite": "all",
            "passed": all(r["passed"] for r in reports),
            "reports": reports,
            "elapsed_ms": sum(r["elapsed_ms"] for r in reports),
        }
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)} or 'all'")
    return SUITES[name](seed=seed, threads=threads)
