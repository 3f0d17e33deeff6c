"""Superspecial searches: the genus-5 fiber-product sweep and the exhaustive
genus-2 enumeration.

The sweep fixes p = 11 (mod 12) and scans pairs (u, v) over GF(p) - {1, -1}.
The two covers are the Moebius transports of y^2 = x^4 - 1 and z^2 = x^6 - 1
under x -> (x+u)/(ux+1) and x -> (x+v)/(vx+1), so both stay superspecial;
their fiber product is a genus-5 curve whose remaining quotient is the
genus-2 model w^2 = f with

    f = ((x+u)^2 + (ux+1)^2) * ((x+v)^4 + (x+v)^2 (vx+1)^2 + (vx+1)^4),

the transports of the cofactors x^2 + 1 and x^4 + x^2 + 1.  That quotient
has p-rank 0 exactly when the three entry equations

    a*d - b*c = 0,   a*b^(p-1) + d^p = 0,   a^p + c^(p-1)*d = 0

hold for a = c_{p-1}, b = c_{2p-1}, c = c_{p-2}, d = c_{2p-2}, the
coefficients of f^((p-1)/2) forming the 2x2 Cartier-Manin matrix.

A and B are palindromic, so f and f^((p-1)/2) are too: c_k = c_{3(p-1)-k},
hence b = c and d = a.  The equations become a^2 = c^2 and a c^(p-1) + a^p = 0
(twice).  Over GF(p), a^p = a; if c != 0 then c^(p-1) = 1, the second reads
2a = 0, and the first forces c = 0, a contradiction.  So c = 0, and then
a = 0: the genus-2 quotient has p-rank 0 exactly when its Cartier-Manin
matrix vanishes, a = c = 0.

The maps M_u: x -> (x+u)/(ux+1) fix +-1 and compose as M_a M_b = M_c with
c = (a+b)/(1+ab).  Substituting x -> M_u(x) therefore carries the pair
(u, v) to (0, w) with

    w = (v-u)/(1-uv),   w = infinity when uv = 1,

so the fiber product for (u, v) is isomorphic to the one for (0, w).  The
gcd and squarefree exclusions, the p-rank and superspeciality are all
invariant under that isomorphism, so the (p-2)^2 grid is a line of p - 1
orbits: w = 0 (the diagonal v = u, p - 2 pairs), every other w in
GF(p) - {+-1} and w = infinity (p - 3 pairs each).  The sweep classifies one
representative per orbit -- (0, w), and (2, 1/2) for w = infinity -- in one
numpy pass.  The two needed coefficients c and a sit within p of the low
end of the coefficient range, so one linear recurrence gives them in O(p)
vectorized steps instead of expanding f^((p-1)/2): O(p^2) work per prime.
The orbits of the good w values are then expanded into sorted (u, v) pairs.

Every reported pair is rechecked for the stronger claim, superspeciality of
the genus-5 curve, on the pair itself rather than its w representative.  The
Cartier operator commutes with the (Z/2)^2 action, so on the regular
differentials, which split into the pullbacks from the three quotients E_u,
D_v and the genus-2 curve (Kani-Rosen), it is the direct sum of their
Cartier operators: the curve is superspecial exactly when the three
quotient Cartier-Manin matrices vanish.  `cartier.is_superspecial` reads
each through the scalar recurrence of `cartier`, not the kernel's
vectorized code, in O(p) per quotient: f(0) != 0 for all three, since
1 - u^2 != 0, u^2 + 1 != 0 (p = 3 mod 4) and v^4 + v^2 + 1 != 0
(p = 2 mod 3), so the recheck never falls back to full expansion, which
costs O(p^2) and is refused past `poly.EXPANSION_CAP`.

`ss5_check_pair` stays as the scalar oracle: it classifies any single pair
directly, from all four entries and all three equations, without the w
reduction, the palindromic reduction or the vectorized kernel, so the tests
can check each of them against it pair by pair.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .cartier import HyperellipticModel, is_superspecial, power_coeffs
from .covers import kani_rosen_triple
from .ff import FieldElement, field, is_prime
from .poly import DensePoly, _rsmall, _rzero, is_squarefree, poly_gcd

EXT_GRID_GUARD = 40000
ENUM_GUARD = 1_200_000
# keeps every int64 accumulation in the kernel exact: each recurrence term
# weight * f_j * c_{k-j} is below p^3 and six are summed, and 6 p^3 < 2^63
# for p <= 2^20
SWEEP_MAX_P = 1 << 20


@dataclass(frozen=True)
class SweepConfig:
    p: int
    mode: str = "first"
    threads: int = 1  # accepted and validated; the w-line sweep is single-threaded

    def __post_init__(self):
        if not is_prime(self.p) or self.p % 12 != 11:
            raise ValueError(f"p = {self.p} is not a prime with p = 11 (mod 12)")
        if self.p > SWEEP_MAX_P:
            raise ValueError(f"p = {self.p} exceeds the kernel bound {SWEEP_MAX_P}")
        if self.mode not in ("first", "all"):
            raise ValueError(f"mode must be 'first' or 'all', got {self.mode!r}")
        if self.threads < 1:
            raise ValueError("threads must be positive")


@dataclass
class SearchResult:
    p: int
    mode: str
    solutions: list
    counts: dict
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "mode": self.mode,
            "solutions": [list(s) for s in self.solutions],
            "counts": dict(self.counts),
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchResult":
        return cls(
            p=obj["p"],
            mode=obj["mode"],
            solutions=[tuple(s) for s in obj["solutions"]],
            counts=dict(obj["counts"]),
            elapsed_ms=obj["elapsed_ms"],
        )


@dataclass(frozen=True)
class CheckResult:
    status: str  # "solution" | "excluded" | "not_solution"
    reason: str | None = None  # "uv" | "gcd" | "singular" for exclusions
    entries: tuple | None = None  # (a, b, c, d) when computed


def _pair_polys(u: FieldElement, v: FieldElement):
    """The quadratic A = (x+u)^2 + (ux+1)^2 and the sextic-cofactor quartic
    B = (x+v)^4 + (x+v)^2 (vx+1)^2 + (vx+1)^4, the Moebius transports of
    x^2 + 1 and x^4 + x^2 + 1."""
    ctx = u.ctx
    one = DensePoly.one(ctx)
    x = DensePoly.x(ctx)
    xu = x + DensePoly.from_elements(ctx, [u])
    ux1 = x.scale(u) + one
    xv = x + DensePoly.from_elements(ctx, [v])
    vx1 = x.scale(v) + one
    a = xu * xu + ux1 * ux1
    b = xv**4 + (xv * vx1) ** 2 + vx1**4
    return a, b


def quotient_polys(u: FieldElement, v: FieldElement):
    """Model polynomials of the two covers E_u, D_v whose fiber product the
    sweep studies: A * ((x+u)^2 - (ux+1)^2) and B * ((x+v)^2 - (vx+1)^2),
    where (x+u)^2 - (ux+1)^2 = (1-u^2)(x^2-1)."""
    a, b = _pair_polys(u, v)
    x2m1 = DensePoly.from_ints(u.ctx, [-1, 0, 1])
    one = u.ctx.one
    return a * x2m1.scale(one - u * u), b * x2m1.scale(one - v * v)


def ss5_check_pair(
    p: int, u: FieldElement, v: FieldElement, strategy: str = "auto"
) -> CheckResult:
    """Scalar reference check of one (u, v) pair; the kernel's oracle."""
    if p % 12 != 11:
        raise ValueError(f"p = {p} is not 11 (mod 12)")
    ctx = u.ctx
    if ctx != v.ctx or ctx.p != p:
        raise ValueError("u, v must share a field context of characteristic p")
    one = ctx.one
    if u == one or u == -one or v == one or v == -one:
        return CheckResult(status="excluded", reason="uv")
    a_poly, b_poly = _pair_polys(u, v)
    if poly_gcd(a_poly, b_poly).degree > 0:
        return CheckResult(status="excluded", reason="gcd")
    f = a_poly * b_poly
    if not is_squarefree(f):
        return CheckResult(status="excluded", reason="singular")
    m = (p - 1) // 2
    coeffs = power_coeffs(f, m, {p - 2, p - 1, 2 * p - 2, 2 * p - 1}, strategy)
    a = coeffs[p - 1]
    b = coeffs[2 * p - 1]
    c = coeffs[p - 2]
    d = coeffs[2 * p - 2]
    eq1 = (a * d - b * c).is_zero
    eq2 = (a * b ** (p - 1) + d**p).is_zero
    eq3 = (a**p + c ** (p - 1) * d).is_zero
    status = "solution" if (eq1 and eq2 and eq3) else "not_solution"
    return CheckResult(status=status, entries=(a, b, c, d))


# -- vectorized w-line kernel ----------------------------------------------------


def _powmod_vec(base, e: int, p: int):
    r = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            r = r * b % p
        b = b * b % p
        e >>= 1
    return r


def _inverse_table(p: int):
    inv = np.zeros(p, dtype=np.int64)
    inv[1] = 1
    for k in range(2, p):
        inv[k] = (p - (p // k) * inv[p % k]) % p
    return inv


def _res_quadratics(a2, a1, a0, b2, b1, b0, p):
    """Resultant of a2 x^2 + a1 x + a0 and b2 x^2 + b1 x + b0, vectorized."""
    t1 = (a2 * b0 - a0 * b2) % p
    t2 = (a2 * b1 - a1 * b2) % p
    t3 = (a1 * b0 - a0 * b1) % p
    return (t1 * t1 - t2 * t3) % p


def _recurrence_ends_vec(fs, m: int, p: int, inv_table):
    """c_{p-2} and c_{p-1} of prod-polynomial powers, vectorized over pairs.

    fs is the list [f0..f6] of int64 coefficient arrays with f0 nonzero."""
    f0 = fs[0]
    c_prev = [None] * 6  # c_{k-1} .. c_{k-6}
    c0 = _powmod_vec(f0, m, p)
    inv_f0 = _powmod_vec(f0, p - 2, p)
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
        ck = acc % p * int(inv_table[k]) % p * inv_f0 % p
        if k == p - 2:
            out_pm2 = ck
        c_prev = [ck] + c_prev[:5]
    return out_pm2, c_prev[0]  # c_{p-2}, c_{p-1}


def _w_line(p: int):
    """The w label (None for infinity) and the representative pair (u, v) of
    every orbit: (0, w) for w in GF(p) - {+-1}, then (2, 1/2) for infinity."""
    ws = [w for w in range(p) if w not in (1, p - 1)]
    us = [0] * len(ws) + [2]
    vs = ws + [(p + 1) // 2]
    return ws + [None], np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def _orbit(p: int, w, inv_table):
    """The grid pairs (u, v) with invariant w, in ascending order: v = 1/u for
    w = infinity, else v = (u+w)/(1+uw) for u != -1/w.  There are p - 2 of
    them for w = 0 and p - 3 otherwise."""
    us = np.concatenate(([0], np.arange(2, p - 1, dtype=np.int64)))
    if w is None:
        us = us[us != 0]
        vs = inv_table[us]
    else:
        den = (1 + us * w) % p
        us = us[den != 0]
        vs = (us + w) * inv_table[den[den != 0]] % p
    return list(zip(us.tolist(), vs.tolist()))


def _classify(p: int, U, V, inv_table):
    """Classify the pairs (U[i], V[i]) at once.

    Returns boolean arrays (excluded_gcd, excluded_singular, solution)."""
    m = (p - 1) // 2
    a0 = (1 + U * U) % p  # A = a0 x^2 + a1 x + a0
    a1 = 4 * U % p
    # B = (x+v)^4 + (x+v)^2 (vx+1)^2 + (vx+1)^4 is palindromic:
    al = (1 + V * V) % p
    b0 = (al * al - V * V) % p  # = v^4 + v^2 + 1
    b1 = 6 * V % p * al % p
    b2 = (V * V % p * V % p * V + 16 * V * V + 1) % p
    b3 = b1
    b4 = b0

    # writing B = (S+T)(S-T) with S, T the transports of x^2+1 and x,
    # gcd(A, B) != 1 iff A shares a root with S+T or S-T
    sp2 = (V * V + V + 1) % p
    sp1 = (V * V + 4 * V + 1) % p
    sm2 = (V * V - V + 1) % p
    sm1 = (4 * V - V * V - 1) % p
    res1 = _res_quadratics(a0, a1, a0, sp2, sp1, sp2, p)
    res2 = _res_quadratics(a0, a1, a0, sm2, sm1, sm2, p)
    excluded_gcd = (res1 == 0) | (res2 == 0)

    # with gcd(A, B) = 1, f = A*B is squarefree iff A and B are; on this
    # grid B is always squarefree (p > 3) and A is squarefree iff u != +-1,
    # which the grid already excludes -- recorded anyway for honesty
    disc_a = (U * U - 1) % p
    excluded_singular = (~excluded_gcd) & (disc_a == 0)

    live = ~(excluded_gcd | excluded_singular)

    # f = A * B, coefficients f0..f6
    f = [
        a0 * b0 % p,
        (a0 * b1 + a1 * b0) % p,
        (a0 * b2 + a1 * b1 + a0 * b0) % p,
        (a0 * b3 + a1 * b2 + a0 * b1) % p,
        (a0 * b4 + a1 * b3 + a0 * b2) % p,
        (a1 * b4 + a0 * b3) % p,
        a0 * b4 % p,
    ]
    # the recurrence divides by f(0) = a0 b0; on the representatives
    # a0 is 1 or 5 and b0 = v^4 + v^2 + 1 has no root since p = 2 (mod 3)
    if np.any(live & (f[0] == 0)):
        raise RuntimeError(f"f(0) = 0 on a w-line representative at p = {p}")

    solution = np.zeros_like(live)
    idx = np.flatnonzero(live)
    if idx.size:
        # f is palindromic, so b = c, d = a and the entry equations reduce
        # to a = c = 0 (module docstring)
        c, a = _recurrence_ends_vec([fj[idx] for fj in f], m, p, inv_table)
        solution[idx] = (a == 0) & (c == 0)
    return excluded_gcd, excluded_singular, solution


def _sweep_w_line(p: int):
    """Full-grid counts and the sorted solution pairs, before re-verification."""
    ws, U, V = _w_line(p)
    inv_table = _inverse_table(p)
    excluded_gcd, excluded_singular, solution = _classify(p, U, V, inv_table)
    sizes = np.full(len(ws), p - 3, dtype=np.int64)
    sizes[ws.index(0)] = p - 2
    counts = {
        "tested": int(sizes[~(excluded_gcd | excluded_singular)].sum()),
        "excluded_uv": p * p - (p - 2) ** 2,
        "excluded_gcd": int(sizes[excluded_gcd].sum()),
        "excluded_singular": int(sizes[excluded_singular].sum()),
    }
    solutions = sorted(
        pair for i in np.flatnonzero(solution) for pair in _orbit(p, ws[i], inv_table)
    )
    return counts, solutions


def verify_solution_story(p: int, u: int, v: int):
    """Recheck a reported solution: the genus-5 fiber product is
    superspecial, so the Cartier-Manin matrices of its quotients E_u, D_v and
    the genus-2 curve all vanish (module docstring).  They are checked in
    that order."""
    ctx = field(p)
    t = kani_rosen_triple(*quotient_polys(ctx.elem(u), ctx.elem(v)))
    if t.genus_total != 5:
        raise RuntimeError(f"solution ({u}, {v}) has genus {t.genus_total}, not 5")
    for name, f in (("E_u", t.fE), ("D_v", t.f2), ("the genus-2 quotient", t.f3)):
        if not is_superspecial(HyperellipticModel(ctx, f)):
            msg = f"the Cartier-Manin matrix of {name} is nonzero"
            raise RuntimeError(f"solution ({u}, {v}) is not superspecial: {msg}")


def ss5_sweep(cfg: SweepConfig) -> SearchResult:
    """Run the sweep for one prime.  Counts always cover the full grid; in
    mode "first" only the lexicographically smallest solution is reported
    (and re-verified)."""
    start = time.monotonic()
    p = cfg.p
    counts, solutions = _sweep_w_line(p)
    if cfg.mode == "first":
        solutions = solutions[:1]
    for u, v in solutions:
        verify_solution_story(p, u, v)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return SearchResult(
        p=p, mode=cfg.mode, solutions=solutions, counts=counts, elapsed_ms=elapsed_ms
    )


# -- results cache ----------------------------------------------------------------


def result_path(results_dir, p: int) -> Path:
    return Path(results_dir) / "ss5" / f"p={p}.json"


def write_result(results_dir, result: SearchResult) -> Path:
    path = result_path(results_dir, result.p)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)
    return path


def load_result(results_dir, p: int):
    path = result_path(results_dir, p)
    if not path.exists():
        return None
    return SearchResult.from_json(json.loads(path.read_text()))


def sweep_with_cache(cfg: SweepConfig, results_dir, force: bool = False):
    """Returns (result, from_cache); persists fresh results atomically."""
    if not force:
        cached = load_result(results_dir, cfg.p)
        if cached is not None:
            return cached, True
    result = ss5_sweep(cfg)
    write_result(results_dir, result)
    return result, False


# -- flagged extension-field search (no reproduction claim) ------------------------


def ss5_sweep_ext(p: int, mode: str = "first") -> SearchResult:
    """Exploratory sweep with (u, v) over GF(p^2); guarded to small grids.
    No expected outcome is attached to these findings."""
    if not is_prime(p) or p % 12 != 11:
        raise ValueError(f"p = {p} is not a prime with p = 11 (mod 12)")
    ctx = field(p, 2)
    elems = [e for e in ctx.elements() if not (e == ctx.one or e == -ctx.one)]
    grid_size = len(elems) ** 2
    if grid_size > EXT_GRID_GUARD:
        raise ValueError(
            f"extension grid has {grid_size} pairs, beyond the guard {EXT_GRID_GUARD}"
        )
    start = time.monotonic()
    counts = {
        "tested": 0,
        "excluded_uv": ctx.order**2 - grid_size,
        "excluded_gcd": 0,
        "excluded_singular": 0,
    }
    solutions = []
    done = False
    for u in elems:
        for v in elems:
            r = ss5_check_pair(p, u, v, strategy="auto")
            if r.status == "excluded":
                counts["excluded_" + r.reason] += 1
                continue
            counts["tested"] += 1
            if r.status == "solution":
                solutions.append((str(u), str(v)))
                if mode == "first":
                    done = True
                    break
        if done:
            break
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return SearchResult(
        p=p, mode=f"ext-{mode}", solutions=solutions, counts=counts, elapsed_ms=elapsed_ms
    )


# -- exhaustive genus-2 superspecial enumeration ------------------------------------


def superspecial_g2_enumeration(p: int, q: int) -> list:
    """All monic squarefree f of degree 5 or 6 over GF(q) whose Cartier-Manin
    matrix vanishes, in lexicographic coefficient order."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if p > 5:
        raise ValueError(f"exhaustive enumeration is guarded to p <= 5, got {p}")
    if q == p:
        ctx = field(p)
    elif q == p * p:
        ctx = field(p, 2)
    else:
        raise ValueError(f"q = {q} must be p or p^2")
    if q**6 + q**5 > ENUM_GUARD:
        raise ValueError(f"candidate count {q**6 + q**5} exceeds the guard {ENUM_GUARD}")
    m = (p - 1) // 2
    needed = [p * j - i for j in (1, 2) for i in (1, 2)]
    out = []
    for d in (5, 6):
        # for m = 1 the matrix entries are plain coefficient reads of f, so
        # only tails with those coefficients zero are generated
        for coeffs in _monic_tails(ctx, d, needed if m == 1 else ()):
            f = DensePoly(ctx, coeffs)
            if m > 1:
                top = m * d
                vals = power_coeffs(f, m, {k for k in needed if k <= top}, "naive")
                if any(not v.is_zero for v in vals.values()):
                    continue
            if is_squarefree(f):
                out.append(HyperellipticModel(ctx, f))
    return out


def _monic_tails(ctx, d: int, zeros):
    """Raw coefficient lists c_0..c_d of the monic degree-d polynomials with
    c_k = 0 for every k in zeros, in lexicographic order of (c_0, ..., c_(d-1)).
    None exist when d is in zeros, because c_d = 1."""
    if d in zeros:
        return
    ext = ctx.ext_degree
    raw_elems = [e.coords[0] if ext == 1 else e.coords for e in ctx.elements()]
    free = [k for k in range(d) if k not in zeros]
    coeffs = [_rzero(ext)] * d + [_rsmall(ctx.p, ext, 1)]
    for values in product(raw_elems, repeat=len(free)):
        for k, v in zip(free, values):
            coeffs[k] = v
        yield list(coeffs)
