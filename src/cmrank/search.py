"""Superspecial searches: the genus-5 fiber-product sweep and the exhaustive
genus-2 enumeration.

The sweep fixes p = 11 (mod 12) and scans pairs (u, v) over GF(p) - {1, -1}.
The family is defined once, by the quadratic factors of its two base
polynomials,

    x^4 - 1 = (x^2 - 1)(x^2 + 1),
    x^6 - 1 = (x^2 - 1)(x^2 + x + 1)(x^2 - x + 1),

and their transports under the Moebius map M_u: x -> (x+u)/(ux+1).  Clearing
denominators, M_u carries a quadratic a x^2 + c x + b to

    T(a x^2 + c x + b; u) = a (x+u)^2 + c (x+u)(ux+1) + b (ux+1)^2,

whose coefficients, low to high, are

    [a u^2 + c u + b,   2 (a+b) u + c (1+u^2),   a + c u + b u^2]

(`_transport`).  With A = T(x^2 + 1; u) and
B = T(x^2 + x + 1; v) T(x^2 - x + 1; v), the two covers are
E_u: y^2 = T(x^2 - 1; u) A and D_v: z^2 = T(x^2 - 1; v) B, the transports of
y^2 = x^4 - 1 and z^2 = x^6 - 1, so both stay superspecial; their fiber
product is a genus-5 curve whose remaining quotient is the genus-2 model
w^2 = f with f = A B.  That quotient has p-rank 0 exactly when the three
entry equations

    a*d - b*c = 0,   a*b^(p-1) + d^p = 0,   a^p + c^(p-1)*d = 0

hold for a = c_{p-1}, b = c_{2p-1}, c = c_{p-2}, d = c_{2p-2}, the
coefficients of f^((p-1)/2) forming the 2x2 Cartier-Manin matrix.

The kernel (`_classify`), the scalar oracle (`ss5_check_pair`, through
`_pair_polys`) and the superspecial recheck (`_quotient_rows`) all build the
family from `_transport`: on FieldElements over GF(p) or GF(p^2) for the
oracle, on int64 arrays mod p for the kernel and the recheck.  So they
share the family's closed form; the tests pin it against the explicit
Moebius transports, kept there as the oracle.  The kernel reads every
verdict off one cubic g built from that closed form (below): its
exclusions, its one elliptic model and the traces on it.  What stays
independent of that reading are the scalar oracle's exclusions, by
`poly_gcd` and `is_squarefree` on A and B, the recheck's polynomial facts,
by the per-pair route on every pair's own rows, and the tests' kernel
oracle, which keeps the resultant exclusions and the coefficient
recurrence.

A palindromic quadratic a x^2 + c x + a stays palindromic under M_u: both
ends of its transport are a u^2 + c u + a.  The three factors of f are
transports of the palindromic x^2 + 1 and x^2 +- x + 1, so f is palindromic,
and so is f^((p-1)/2): c_k = c_{3(p-1)-k}, hence b = c and d = a.  The
equations become a^2 = c^2 and a c^(p-1) + a^p = 0 (twice).  Over GF(p),
a^p = a; if c != 0 then c^(p-1) = 1, the second reads 2a = 0, and the first
forces c = 0, a contradiction.  So c = 0, and then a = 0: the genus-2
quotient has p-rank 0 exactly when its Cartier-Manin matrix vanishes,
a = c = 0.

The maps M_u: x -> (x+u)/(ux+1) fix +-1 and compose as M_a M_b = M_c with
c = (a+b)/(1+ab).  Substituting x -> M_u(x) therefore carries the pair
(u, v) to (0, w) with

    w = (v-u)/(1-uv),   w = infinity when uv = 1,

so the fiber product for (u, v) is isomorphic to the one for (0, w).  The
gcd and squarefree exclusions, the p-rank and superspeciality are all
invariant under that isomorphism, so the (p-2)^2 grid is a line of p - 1
orbits: w = 0 (the diagonal v = u, p - 2 pairs), every other w in
GF(p) - {+-1} and w = infinity (p - 3 pairs each).

The orbit w = infinity is the twin of w = 0.  Its representative
(0, infinity) transports D_v by M_infinity: x -> 1/x, which fixes the
palindromic x^2 + 1 and x^2 +- x + 1 and sends x^2 - 1 to -(x^2 - 1).  So
the (0, infinity) cover is the (0, 0) cover with D_v twisted by -1, with the
same genus-2 quotient A B; superspeciality and the gcd and squarefree
exclusions do not see twists, and w = infinity takes the verdict of w = 0.

The orbits of w and -w share a verdict too: x -> -x fixes x^2 + 1 and swaps
x^2 + x + 1 with x^2 - x + 1, so f for -w is f for w at -x.

The sweep classifies the p - 2 representatives (0, w), w finite, in one
numpy pass, without reading f^((p-1)/2) at all: the genus-2 quotient
C: y^2 = f splits.  With s = x + 1/x, x^2 + 1 = x s, and each palindromic
transport a x^2 + c x + a of x^2 +- x + 1 is x (a s + c), so
f(x) = x^3 g(x + 1/x) for the cubic

    g(s) = s (a1 s + c1)(a2 s + c2),

read straight off the transported factors.  The exclusions are read off g
too: A = x s vanishes only where s = 0, and there each B_i = x (a_i s + c_i)
is x c_i, so gcd(A, B) != 1 exactly when g1 = c1 c2 = 0; and f is never
singular on the w line, as A and the B_i are squarefree and pairwise
coprime (`_classify`).  C has the involution
tau: (x, y) -> (1/x, y/x^3) besides the hyperelliptic one.  The quotients
C/tau and C/(tau composed with it) are the elliptic curves

    E+: Y^2 = (s + 2) g(s),   E-: Y^2 = (s - 2) g(s),

with Y = y (1 +- x) / x^2, and J(C) is (2,2)-isogenous to E+ x E- (Kuhn,
"Curves of genus 2 with split Jacobian", 1988).  For odd p the isogeny has
degree prime to p, so C has p-rank 0 -- the kernel's test, by the
palindromic argument above -- exactly when E+ and E- are both
supersingular.  Only E+ is ever built: x -> -x sends f for w to f for -w,
so g for -w is s -> -g(-s), and s -> -s maps E+ of -w onto E- of w.  So w
is good exactly when E+ of w and E+ of -w are both supersingular.  On every
live w, g(-2) = -f(-1) = -6 (1 - w)^4 != 0 and g is squarefree, so the
quartic is squarefree with the rational root s = -2; sending it to infinity
gives a short Weierstrass model in closed form (`_split_models`),
isomorphic to E+ over GF(p).  The kernel builds it once per w, and both the
ladder and the traces below run on it.

Most w are then pruned by a certificate.  An x-only Montgomery ladder
computes [p+1] P from x(P) = x0, a fixed constant, on the model of E+ of
every w at once (`_ladder_finite`).  If x0 != 0, x0 is not a root of the
cubic and no point the ladder forms has Z = 0, every formula it used was
valid, so [p+1] P != O for a point P on E+ or on its quadratic twist (which
share the x-line).  A supersingular curve over GF(p), p >= 5, and its twist
both have p + 1 points, so that curve is ordinary, and neither w nor -w is
good.  The w for which neither E+ of w nor E+ of -w is certified survive,
and E+ of each is decided exactly by the trace
a_p = -sum_x chi(x^3 + a4 x + a6) of its model (`_traces`), with a_p = 0
exactly for supersingular curves by the Hasse bound |a_p| <= 2 sqrt(p) < p.
The pruning never changes a verdict, only which w reach the trace; the
constant x0 keeps the runs reproducible.  The orbits of the good w values
are then expanded into sorted (u, v) pairs.  The GF(p^2) sweep
(`ss5_sweep_ext`) walks the same line, with p^2 for p in the orbit sizes,
but takes the scalar oracle's verdict on (0, w), once per pair {w, -w}.

Every reported pair is rechecked for the stronger claim, superspeciality of
the genus-5 curve, from the pair's own rows rather than its w
representative.  The
Cartier operator commutes with the (Z/2)^2 action, so on the regular
differentials, which split into the pullbacks from the three quotients E_u,
D_v and the genus-2 curve (Kani-Rosen), it is the direct sum of their
Cartier operators: the curve is superspecial exactly when the three
quotient Cartier-Manin matrices vanish.  The recheck runs in passes of at
most `RECHECK_SLICE` pairs, on the int64 coefficient rows of the three
quotients of every pair of the pass (`_quotient_rows`).

First the polynomial facts that split rests on: E_u and D_v are squarefree
curve models, the fiber product has genus 5, and its third quotient
E_u D_v / gcd(E_u, D_v)^2 is squarefree; and each quotient has degree 4 or
6, the degrees the matrices are read for.  They come from the per-pair
route, `covers.kani_rosen_triple` and then `cartier.HyperellipticModel`,
run on the quotients' own rows (`_polynomial_facts`), not on the
coefficient g1 of the family's cubic as the kernel's exclusion is, so the
check holds for any rows it is given; the family's closed form enters only
through the rows of the third quotient, A B, which must be a constant times
E_u D_v / gcd^2.  Then the three matrices, whose entries are computed for
the pairs that pass.

The pairs of one w class have isomorphic quotients, and so do the classes
of w and 1/w: M_(1/w) is M_w followed by x -> 1/x, which fixes the
palindromic factors and x^2 - 1 up to sign.  The recheck computes no w.  It
gives every pair a normal form read from its own rows (`_normal_forms`).
The substitution x = M_(-u)(y) pulls a quotient Q of (u, v), of degree n,
back to
(1 - u y)^n Q(M_(-u) y) = sum_k q_k (y - u)^k (1 - u y)^(n-k), which for
the family is a constant times the same quotient of (0, w):

    E_u (n = 4):            (1 - u^2)^4,
    D_v (n = 6):            (1 - uv)^6,             or -(v - u)^6 if uv = 1,
    A B (n = 6):            (1 - u^2)^2 (1 - uv)^4, or (1 - u^2)^2 (v - u)^4,

with w = 0 for uv = 1, whose (0, infinity) quotients are those of (0, 0)
with D_v twisted by -1.  Each pull-back is one product with a fixed integer
tensor in the powers of u (`_pull_back`, whose sums stay below
140 p < 2^28), scaled to 1 at its first nonzero coefficient, and the normal
form stacks the three.  It is zero, and proves nothing, unless
1 - u^2 != 0, so that M_(-u) is invertible, the degrees of the three
quotients are exactly (4, 6, 6) and their constant terms are nonzero.  The
recheck takes nothing on trust: two pairs with the same nonzero form have
pulled-back quotients equal up to nonzero constants.  Read as binary forms
of those degrees, each quotient of the one is then the other's under an
invertible linear substitution, the composite of two maps M_a, times a
nonzero constant, and every fact the recheck derives is the same for the
two:

- the degrees, equal by that condition;
- squarefreeness and the degree of gcd(E_u, D_v), which an invertible
  substitution preserves on binary forms, and which on forms of exact
  degree are those of the polynomials.  A lower degree is a root at
  infinity that the polynomials' gcds do not see, so a pair of lower
  degree has no form: a shared root there would count for the other pairs
  of its form and not for it;
- the genus, read off those degrees and that gcd;
- that F is a constant times E_u D_v / gcd(E_u, D_v)^2, since the
  substitution maps the gcd of the forms to the gcd of their images;
- whether each Cartier-Manin matrix vanishes, since each quotient is
  isomorphic to a twist of the other's.

So the pairs of one normal form share every verdict.  The first pair of
each form in the batch leads it: its polynomial facts and entries come
from its own rows, and every later pair of the form is certified and
passes, at O(d^2) arithmetic for its form instead of the per-pair route
and O(p).  A failing leader is named before the rest of its form, and a
pair whose form is zero is checked as every pair once was, so the messages
and their order are those of checking every pair on its own rows.  Each
slice sorts its pairs by their forms with one stable `np.lexsort`, which
keeps the pairs of a form in batch order, and the forms that have led
carry from slice to slice.  A batch of one pair, as mode "first"'s, forms
nothing.

Each entry computed is read by `cartier._cartier_entries_vec`, the batched
coefficient recurrence that `cartier` documents, five columns per pair:
E_u, D_v and the genus-2 quotient from their low ends, D_v and the genus-2
quotient again reversed for the entries near the top.  f(0) != 0 for all
three, since 1 - u^2 != 0, u^2 + 1 != 0 (p = 3 mod 4) and v^4 + v^2 + 1 != 0
(p = 2 mod 3), so no row needs full expansion.  Mode "all" computes
entries for the leaders of its few normal forms (2 at p = 10 007, 4 at
43 607), so its recurrence runs in blocks of steps, as mode "first"'s does.

The recheck shares only the family's closed form with the kernel, no
decision code: it checks every pair's own three quotients, through the
per-pair route and their entries or a normal form read from their rows,
without the palindromic a = c = 0 shortcut, the g1 exclusion or the
elliptic split.  The
tests hold the polynomial verdicts against the per-pair route on the
explicit Moebius transports, the entries against `cartier`'s scalar
recurrence, against full expansion (`poly.pow_coeffs`) and, for every
count of blocks, against a per-term recurrence, the pull-back against
`DensePoly` products, and the certified recheck at p = 10 007 against
every pair's own polynomial facts and entries (nightly).

`ss5_check_pair` stays as the scalar oracle: it classifies any single pair
directly, from all four entries and all three equations, without the w
reduction, the palindromic reduction or the vectorized kernel, so the tests
can check each of them against it pair by pair.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, product
from math import comb
from pathlib import Path

import numpy as np

from .cartier import (
    _BATCH_MAX_P,
    HyperellipticModel,
    _cartier_entries_vec,
    _inverse_table,
    _layout,
    _matrix_entries,
    power_coeffs,
)
from .covers import kani_rosen_triple
from .ff import FieldElement, _rsmall, _rzero, field, is_prime
from .poly import DensePoly, is_squarefree, poly_gcd

# oracle calls `ss5_sweep_ext` may make, (p^2 - 1)/2, checked before it lists
# GF(p^2).  A call takes 0.6 ms at p = 107 and 0.85 ms at 491: p = 491
# (120 540 calls) takes 102 s as a command (2-core Xeon VM).  2^17 admits
# every p < 512
EXT_ORACLE_GUARD = 1 << 17
ENUM_GUARD = 1_200_000
# the bound of the recheck's batched recurrence (`cartier._BATCH_MAX_P`),
# under which its int64 sums are exact; the family's rows stay below 2^42
# (`_transport`) and 3 p^2 (`_rows_mul`)
SWEEP_MAX_P = _BATCH_MAX_P
# `_pull_back` sums, for each coefficient, residues times the entries of a
# row of its tensor, whose absolute values sum to at most 7 C(6, 3) = 140
assert 7 * comb(6, 3) * SWEEP_MAX_P < 1 << 63
# the kernel's models, ladder and traces reduce mod p after every product
# of residues, so each of their values stays below 8 p^2 <= 2^43; the
# traces' Horner step (x^2 mod p + a4) x + a6 stays below 3 p^2
assert 8 * SWEEP_MAX_P**2 <= 1 << 43
# pairs mode "all" may report: it refuses a prime with more before listing
# any.  The recheck checks polynomial facts and computes entries once per
# normal form and certifies every other pair by O(d^2) arithmetic, batched
# (module docstring), so its cost, and that of listing and writing the
# pairs, grows with their count.  As a command, p = 43 607 (348 832 pairs)
# takes 2.6-3.6 s and 200 MB peak RSS, and p = 83 243 (998 880 pairs)
# 11 s and 513-539 MB, 5.7-6.1 s of it in the sweep and its recheck (2-core
# Xeon VM); p = 126 839 (2 536 720 pairs) is refused
RECHECK_GUARD = 1 << 20
# pairs per pass of the superspecial recheck: a pass holds three quotient
# polynomials, their pull-backs and the recurrence's window, a few hundred
# int64 values per pair, under 2 MB at 512 pairs whatever p, while mode
# "all" reports 40 016 pairs at p = 10 007 and 348 832 at p = 43 607.  The
# pairs of a normal form share one check of the polynomial facts and one
# entry computation, so a pass of certified pairs costs their quotient rows
# and normal forms, about 1.3 ms at 512 pairs (2-core Xeon VM)
RECHECK_SLICE = 512
# w per pass of the kernel's models and ladder: 256 KB an int64 array, where
# all w at SWEEP_MAX_P take 8 MB an array; g1, a4 and a6 are kept for every w
_LADDER_BLOCK = 1 << 15
# cubic values per pass of the traces: 512 KB of int64, so at census sizes
# every survivor of a prime fits in one pass
_TRACE_BLOCK = 1 << 16
# the x(P) the ladder starts from on E+: a constant, so every run
# prunes the same w
_LADDER_X0 = 1


@dataclass(frozen=True)
class SweepConfig:
    p: int
    mode: str = "first"
    # accepted and validated, then ignored: the w-line sweep runs in one
    # thread, and the benchmark's workloads still pass threads=1
    threads: int = 1

    def __post_init__(self):
        if not is_prime(self.p) or self.p % 12 != 11:
            raise ValueError(f"p = {self.p} is not a prime with p = 11 (mod 12)")
        if self.p > SWEEP_MAX_P:
            raise ValueError(f"p = {self.p} exceeds the kernel bound {SWEEP_MAX_P}")
        if self.mode not in ("first", "all"):
            raise ValueError(f"mode must be 'first' or 'all', got {self.mode!r}")
        if self.threads < 1:
            raise ValueError("threads must be positive")


# the fields of a sweep record and of its counts (README, "File formats")
_RECORD_FIELDS = {"p", "mode", "solutions", "counts", "elapsed_ms"}
_COUNT_FIELDS = {"tested", "excluded_uv", "excluded_gcd", "excluded_singular"}


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
    def from_json(cls, obj) -> "SearchResult":
        """The result a GF(p) sweep record holds.  Refuses with a ValueError
        anything but exactly the record's fields and its counts' (README,
        "File formats"), with integer counts, time and pairs, and a p and
        mode that `SweepConfig` accepts."""
        if not isinstance(obj, dict) or obj.keys() != _RECORD_FIELDS:
            raise ValueError(f"a record has exactly the fields {sorted(_RECORD_FIELDS)}")
        counts, pairs = obj["counts"], obj["solutions"]
        if not isinstance(counts, dict) or counts.keys() != _COUNT_FIELDS:
            raise ValueError(f"its counts have exactly the fields {sorted(_COUNT_FIELDS)}")
        if not isinstance(pairs, list) or any(type(s) is not list or len(s) != 2 for s in pairs):
            raise ValueError("its solutions are not a list of pairs")
        numbers = [obj["p"], obj["elapsed_ms"], *counts.values(), *chain.from_iterable(pairs)]
        if any(type(x) is not int for x in numbers):
            raise ValueError("p, elapsed_ms, the counts and the pairs hold integers only")
        SweepConfig(obj["p"], obj["mode"])
        return cls(obj["p"], obj["mode"], list(map(tuple, pairs)), dict(counts), obj["elapsed_ms"])


@dataclass(frozen=True)
class CheckResult:
    status: str  # "solution" | "excluded" | "not_solution"
    reason: str | None = None  # "uv" | "gcd" | "singular" for exclusions
    entries: tuple | None = None  # (a, b, c, d) when computed


# -- the family: quadratic factors a x^2 + c x + b, as (a, c, b) -------------------

_X2_MINUS_1 = (1, 0, -1)  # in both x^4 - 1 and x^6 - 1
_A_FACTOR = (1, 0, 1)  # x^4 - 1 = (x^2 - 1)(x^2 + 1)
_B_FACTORS = ((1, 1, 1), (1, -1, 1))  # x^6 - 1 = (x^2 - 1)(x^2 + x + 1)(x^2 - x + 1)


def _transport(a, c, b, u):
    """Coefficients, low to high, of T(a x^2 + c x + b; u) =
    a (x+u)^2 + c (x+u)(ux+1) + b (ux+1)^2.

    a, c, b and u are FieldElements of one field, GF(p) or GF(p^2); or a, c, b
    are ints and u an int64 array of residues mod p < 2^20, whose rows come
    back unreduced, below 2^42."""
    uu = u * u
    return [a * uu + c * u + b, (a + b) * (u + u) + c * uu + c, a + c * u + b * uu]


def _transport_poly(quad, u: FieldElement) -> DensePoly:
    ctx = u.ctx
    return DensePoly.from_elements(ctx, _transport(*map(ctx.elem, quad), u))


def _transport_rows(quad, U, p: int):
    return [t % p for t in _transport(*quad, U)]


def _rows_mul(f, g, p: int):
    """The product of two polynomials given as coefficient rows mod p < 2^20,
    low to high: each row holds one coefficient of many polynomials, or of
    all of them when a row of g is a single int.  Returns an int64 array of
    rows."""
    f = np.stack(f)
    out = np.zeros((len(f) + len(g) - 1, f.shape[1]), dtype=np.int64)
    for j, gj in enumerate(g):
        out[j : j + len(f)] += f * gj
    return out % p


def _pair_polys(u: FieldElement, v: FieldElement):
    """A = T(x^2 + 1; u) and B = T(x^2 + x + 1; v) T(x^2 - x + 1; v), the
    genus-2 quotient's factors."""
    b1, b2 = (_transport_poly(q, v) for q in _B_FACTORS)
    return _transport_poly(_A_FACTOR, u), b1 * b2


def _quotient_rows(U, V, p: int):
    """The coefficients of the three quotients of the fiber product the sweep
    studies, E_u: T(x^2 - 1; u) A, D_v: T(x^2 - 1; v) B and the genus-2
    curve A B, for every pair (U[i], V[i]) of residues mod p, as (5, n),
    (7, n) and (7, n) int64 arrays, low to high."""
    a = _transport_rows(_A_FACTOR, U, p)
    b = _rows_mul(*(_transport_rows(q, V, p) for q in _B_FACTORS), p)
    e_u = _rows_mul(a, _transport_rows(_X2_MINUS_1, U, p), p)
    d_v = _rows_mul(b, _transport_rows(_X2_MINUS_1, V, p), p)
    return e_u, d_v, _rows_mul(b, a, p)


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
    (a, b), (c, d) = _matrix_entries(HyperellipticModel(ctx, f), strategy)[0]
    eq1 = (a * d - b * c).is_zero
    eq2 = (a * b ** (p - 1) + d**p).is_zero
    eq3 = (a**p + c ** (p - 1) * d).is_zero
    status = "solution" if (eq1 and eq2 and eq3) else "not_solution"
    return CheckResult(status=status, entries=(a, b, c, d))


# -- polynomial checks, pair by pair -----------------------------------------------


_QUOTIENT_NAMES = ("E_u", "D_v", "the genus-2 quotient")


def _polynomial_facts(ctx, u, v, e, d, f):
    """Check the polynomial facts of the pair (u, v), given the coefficient
    rows e, d and f of its quotients E_u, D_v and the genus-2 curve, low to
    high, by the per-pair route: `covers.kani_rosen_triple` refuses E_u and
    D_v unless they are squarefree curve models whose product is not a
    square, the cover must have genus 5, and `cartier.HyperellipticModel`
    refuses the genus-2 quotient unless it is squarefree.  F is A B, not
    that quotient, so it must be one: a constant times E_u D_v / gcd^2,
    which changes neither its squarefreeness nor whether its Cartier-Manin
    matrix vanishes.  Last, each quotient must have degree 4 or 6, the
    degrees whose matrices `_cartier_entries_vec` reads.  Raises the error
    of the first fact that fails, naming the pair."""
    E, D, F = (DensePoly(ctx, r.tolist()) for r in (e, d, f))
    try:
        t = kani_rosen_triple(E, D)
        if t.genus_total != 5:
            raise RuntimeError(f"solution ({u}, {v}) has genus {t.genus_total}, not 5")
        # then F has the degree of that quotient, at least 5 at genus 5 as
        # deg E_u <= 4 and deg D_v <= 6: HyperellipticModel's degree check
        # cannot fail
        if F.is_zero or F.scale(t.f3.coeff(t.f3.degree)) != t.f3.scale(F.coeff(F.degree)):
            raise RuntimeError(
                f"solution ({u}, {v}): the genus-2 quotient is not E_u D_v / gcd^2"
            )
        HyperellipticModel(ctx, F)
        for name, Q in zip(_QUOTIENT_NAMES, (E, D, F)):
            if Q.degree not in (4, 6):
                raise ValueError(
                    f"{name} has degree {Q.degree}; the recheck reads degree 4 or 6 only"
                )
    except ValueError as err:
        raise ValueError(f"solution ({u}, {v}): {err}") from None


# -- Moebius normal forms: one entry pass per form ---------------------------------


@lru_cache(maxsize=None)
def _pull_back_tensor(n: int):
    """The coefficient of u^i y^j in (y - u)^k (1 - u y)^(n-k) at
    [j, k (n+1) + i].  Row j holds, for each k, the terms of
    sum_a C(k, a) C(n-k, j-a) = C(n, j) up to sign, so its absolute values
    sum to (n+1) C(n, j)."""
    C = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    for k in range(n + 1):
        for a, b in product(range(k + 1), range(n - k + 1)):
            # y^a (-u)^(k-a) of (y - u)^k times (-u y)^b of (1 - u y)^(n-k)
            C[a + b, k, k - a + b] += (-1) ** (k - a + b) * comb(k, a) * comb(n - k, b)
    C = C.reshape(n + 1, -1)
    C.flags.writeable = False  # cached: every caller gets this array
    return C


def _pull_back(Q, U, p: int):
    """(1 - u y)^n Q((y - u)/(1 - u y)) = sum_k q_k (y - u)^k (1 - u y)^(n-k)
    for every column q of Q, (n+1, N) coefficient rows mod p < 2^20 low to
    high, and u of U, as (n+1, N) rows: one product of the fixed tensor with
    the residues q_k u^i mod p.  A row of the tensor sums to at most
    (n+1) C(n, n/2) = 140 in absolute value for n <= 6, so every sum stays
    below 140 p < 2^28."""
    n = len(Q) - 1
    powers = np.empty_like(Q)
    powers[0] = 1
    for i in range(1, n + 1):
        powers[i] = powers[i - 1] * U % p
    terms = (Q[:, None] * powers).reshape((n + 1) ** 2, -1) % p
    return np.einsum("jt,tn->jn", _pull_back_tensor(n), terms) % p


def _normal_forms(p: int, U, rows):
    """The normal form of every pair with u in U and quotient rows
    (E, D, F): each quotient pulled back by M_(-u) and scaled to 1 at its
    first nonzero coefficient, stacked into one (19, N) array.  Two pairs
    with the same nonzero form have quotients that are, as binary forms, each
    other's under an invertible substitution fixing +-1, times constants, so
    they share every verdict of the recheck (module docstring).

    The form is zero where it proves nothing: where 1 - u^2 = 0 and M_(-u)
    is not invertible; where the top row of E, D or F is zero, so that a
    degree is below the 4, 6 or 6 its rows run to and its form is taken at,
    since a lower degree is a root at infinity that the gcds and
    squarefreeness tests of the polynomials do not see; and where a constant
    term is 0, which `_cartier_entries_vec` refuses, so that such a pair
    still reaches that refusal."""
    ok = (1 - U * U) % p != 0
    forms = []
    for Q in rows:
        ok &= (Q[-1] != 0) & (Q[0] != 0)
        P = _pull_back(Q, U, p)
        first = P[(P != 0).argmax(axis=0), np.arange(U.size)]
        forms.append(P * _inverse_table(p)[first] % p)
    return np.vstack(forms) * ok


# -- the w-line kernel: the genus-2 quotient splits into E+ x E- -------------------


def _w_line(p: int):
    """The finite orbit labels w in GF(p) - {+-1}, ascending from w = 0, as an
    int64 array; w = infinity takes the verdict of w = 0 (module docstring)."""
    return np.delete(np.arange(p, dtype=np.int64), [1, p - 1])


def _orbit(p: int, w):
    """The grid pairs (u, v) with invariant w, in ascending order: v = 1/u for
    w = infinity (None), whose orbit has the verdict of w = 0, else
    v = (u+w)/(1+uw) for u != -1/w.  There are p - 2 of them for w = 0 and
    p - 3 otherwise."""
    us = np.concatenate(([0], np.arange(2, p - 1, dtype=np.int64)))
    if w is None:
        us = us[us != 0]
        vs = _inverse_table(p)[us]
    else:
        den = (1 + us * w) % p
        us = us[den != 0]
        vs = (us + w) * _inverse_table(p)[den[den != 0]] % p
    return list(zip(us.tolist(), vs.tolist()))


def _split_models(p: int, W):
    """The cubic g and E+ of the genus-2 quotient y^2 = f of the
    representative (0, W[i]), for every w in W, residues mod p < 2^20 with
    w != 1 (module docstring).

    With A = x s, s = x + 1/x, and the transports a_i x^2 + c_i x + a_i of
    x^2 +- x + 1 equal to x (a_i s + c_i), f(x) = x^3 g(s) for
    g(s) = s (a1 s + c1)(a2 s + c2): g3 = a1 a2, g2 = a1 c2 + a2 c1,
    g1 = c1 c2 and g0 = 0.  Returns g1, which vanishes exactly on the w the
    gcd exclusion removes (`_classify`), and the coefficients (a4, a6), each
    (n,), of a short Weierstrass model y^2 = x^3 + a4 x + a6 of
    E+: Y^2 = (s - r) g(s), r = -2, isomorphic to it over GF(p) on every live
    w.  Sending the root r to infinity, s = r + 1/t and Y = V/t^2, gives
    V^2 = t^3 g(r + 1/t) = a t^3 + b t^2 + c t + d with a = g(r), b = g'(r),
    c = g''(r)/2 = 3 g3 r + g2 and d = g3; a = -f(-1) != 0 for every w != 1.
    X = a t takes it to (a V)^2 = X^3 + b X^2 + ac X + a^2 d, and
    x = 9 X + 3 b, y = 27 a V to a4 = 27 (3ac - b^2) and
    a6 = 27 (27 a^2 d - 9abc + 2b^3)."""
    (a1, c1, _), (a2, c2, _) = (_transport_rows(q, W, p) for q in _B_FACTORS)
    g3, g2, g1 = a1 * a2 % p, (a1 * c2 + a2 * c1) % p, c1 * c2 % p
    r = -2  # small, so each Horner step stays below 15 p
    a = ((g3 * r + g2) * r + g1) * r % p
    b = ((3 * g3 * r + 2 * g2) * r + g1) % p
    c = (3 * g3 * r + g2) % p
    ac, bb = a * c % p, b * b % p
    cube = (27 * a % p * (a * g3 % p) + (2 * bb - 9 * ac) % p * b) % p
    return g1, 27 * (3 * ac - bb) % p, 27 * cube % p


def _ladder_finite(a4, a6, x0, n: int, p: int):
    """Whether the x-only Montgomery ladder for [n] P, x(P) = x0, formed no
    point with Z = 0 on y^2 = x^3 + a4[i] x + a6[i], for every column i; x0
    is an int or an array like a4, residues mod p < 2^20.

    The ladder keeps (X : Z) of [k] P and [k+1] P, which differ by P, and
    steps by a doubling and a differential addition (Brier and Joye):

        [2] (X : Z) = ((X^2 - a4 Z^2)^2 - 8 a6 X Z^3 : 4 Z (X^3 + a4 X Z^2 + a6 Z^3)),
        (X : Z) = (X_m X_n - a4 Z_m Z_n)^2 - 4 a6 Z_m Z_n (X_m Z_n + X_n Z_m)
                  : x0 (X_m Z_n - X_n Z_m)^2   for [m+n] P, [m-n] P = P.

    Both are valid for finite inputs with x0 != 0 and give Z = 0 exactly for
    the point at infinity: the doubling when the input is 2-torsion, the
    addition when [m] P = -[n] P.  So where no Z vanished, one induction
    shows every formula was applied to finite points and [n] P is finite,
    on the curve or on its quadratic twist, which share the x-line.  x0 = 0
    zeroes the Z of every addition and a root x0 of the cubic the Z of
    [2] P, so neither is ever certified.  (Through the point at infinity the
    ladder happens to stay right when x0 != 0, as an addition then meets
    only +-P; checking every Z keeps the argument to the induction, at the
    cost of a few survivors.)"""
    x0 = np.broadcast_to(np.asarray(x0, dtype=np.int64) % p, a4.shape)
    b4, b8 = 4 * a6 % p, 8 * a6 % p

    def double(X, Z):
        # X^3 + a4 X Z^2 = X (X^2 + a4 Z^2) and X^2 - a4 Z^2 share a4 Z^2
        xx, zz = X * X % p, Z * Z % p
        azz, zzz = a4 * zz % p, Z * zz % p
        t = xx - azz
        X2 = (t * t - b8 * (X * zzz % p)) % p
        cubic = (X * (xx + azz) + a6 * zzz) % p
        return X2, 4 * Z * cubic % p

    def add(Xm, Zm, Xn, Zn):
        xz, zx = Xm * Zn % p, Xn * Zm % p
        zz = Zm * Zn % p
        t = (Xm * Xn % p - a4 * zz) % p
        d = xz - zx
        return (t * t - b4 * (zz * (xz + zx) % p)) % p, x0 * (d * d % p) % p

    X0, Z0 = x0, np.ones_like(x0)
    X1, Z1 = double(X0, Z0)
    finite = Z1 != 0
    for bit in bin(n)[3:]:
        if bit == "1":
            (X0, Z0), (X1, Z1) = add(X0, Z0, X1, Z1), double(X1, Z1)
        else:
            (X0, Z0), (X1, Z1) = double(X0, Z0), add(X0, Z0, X1, Z1)
        finite &= (Z0 != 0) & (Z1 != 0)
    return finite


def _traces(a4, a6, p: int):
    """The trace a_p = p + 1 - #E(GF(p)) of y^2 = x^3 + a4[i] x + a6[i] for
    every i, residues mod p < 2^20 of nonsingular curves.  The curve has
    1 + chi(x^3 + a4 x + a6) points over each x and one at infinity, so
    a_p = -sum_x chi(x^3 + a4 x + a6), for the Legendre symbol chi.  The
    values are formed in passes of about _TRACE_BLOCK, by Horner's rule
    below 3 p^2."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    chi[0] = 0
    out = np.zeros(len(a4), dtype=np.int64)
    step = max(1, _TRACE_BLOCK // max(1, len(a4)))
    a4, a6 = a4[:, None], a6[:, None]
    for start in range(0, p, step):
        x = np.arange(start, min(start + step, p), dtype=np.int64)
        out -= chi[((x * x % p + a4) * x + a6) % p].sum(axis=1, dtype=np.int64)
    return out


def _classify(p: int, W):
    """Classify the representatives (0, W[i]) at once, W closed under
    w -> -w as the w line is, from the cubic g of each (`_split_models`).

    With u = 0, A = x^2 + 1 = x s vanishes only at x = +-i, where s = 0,
    and there B_i = x (a_i s + c_i) is +-i c_i: so gcd(A, B) != 1 exactly
    when g1 = c1 c2 = 0.  No w is singular: x^2 + 1 and x^2 +- x + 1 are
    squarefree and pairwise coprime for p > 3, so the transports B_i of
    x^2 +- x + 1 by M_w, invertible for w != +-1, are too as binary forms;
    they keep their degree 2, as a_i = w^2 +- w + 1 never vanishes for
    p = 2 (mod 3).  So f = A B is squarefree exactly when gcd(A, B) = 1,
    and `_sweep_w_line` counts no singular exclusion.

    The models are built and laddered in passes of _LADDER_BLOCK, which
    mark the w whose E+ the ladder certifies ordinary; the ladder's verdict
    on an excluded w is never read, as the exclusion is closed under
    w -> -w (c1 for -w is -c2 for w).  The traces decide E+ of every live
    w for which neither w nor -w is marked, and w is good exactly when E+
    of w and of -w are supersingular.  Returns boolean arrays
    (excluded_gcd, solution)."""
    g1, a4, a6 = (np.empty_like(W) for _ in range(3))
    ordinary = np.zeros(p, dtype=bool)
    for start in range(0, len(W), _LADDER_BLOCK):
        part = slice(start, start + _LADDER_BLOCK)
        g1[part], a4[part], a6[part] = _split_models(p, W[part])
        ordinary[W[part]] = _ladder_finite(a4[part], a6[part], _LADDER_X0, p + 1, p)
    excluded_gcd = g1 == 0
    kept = ~(excluded_gcd | ordinary[W] | ordinary[-W % p])
    supersingular = np.zeros(p, dtype=bool)
    supersingular[W[kept]] = _traces(a4[kept], a6[kept], p) == 0
    return excluded_gcd, supersingular[W] & supersingular[-W % p]


def _grid_counts(p: int, q: int, excluded: dict, solution, mode: str, sizes=None):
    """The counts of the grid over GF(q), q = p or p^2, and the indices of
    the good orbits, from boolean arrays over the w line, w = 0 first and
    infinity last: excluded maps "gcd" and "singular" to one each.  Orbit i
    holds sizes[i] pairs, by default q - 2 for w = 0 and q - 3 for the
    others (module docstring).  Mode "all" refuses more than RECHECK_GUARD
    good pairs, before any is listed."""
    if sizes is None:
        sizes = np.full(len(solution), q - 3, dtype=np.int64)
        sizes[0] = q - 2
    counts = {"excluded_" + reason: int(sizes[mask].sum()) for reason, mask in excluded.items()}
    counts["tested"] = int(sizes.sum()) - sum(counts.values())
    counts["excluded_uv"] = q * q - (q - 2) ** 2
    good = np.flatnonzero(solution)
    pairs = int(sizes[good].sum())
    if mode == "all" and pairs > RECHECK_GUARD:
        raise ValueError(
            f"mode 'all' at p = {p} reports {pairs} pairs, beyond the recheck "
            f"guard {RECHECK_GUARD} ({good.size} good orbits)"
        )
    return counts, good


def _sweep_w_line(p: int, mode: str = "all"):
    """Full-grid counts and the sorted solution pairs, before re-verification;
    in mode "first" only the least pair.  That is (0, least good w): (0, w)
    lies in the orbit of every finite w with the least u, and w = infinity
    takes the verdict of w = 0, whose pair (0, 0) is smaller.  Mode "all"
    counts its pairs first, and refuses a prime with more than RECHECK_GUARD
    of them."""
    W = _w_line(p)
    # w = infinity, appended last, takes the verdict of w = 0, the first
    excluded_gcd, solution = (np.append(verdict, verdict[0]) for verdict in _classify(p, W))
    # no w of the line is singular (`_classify`)
    excluded = {"gcd": excluded_gcd, "singular": np.zeros_like(excluded_gcd)}
    counts, good = _grid_counts(p, p, excluded, solution, mode)
    ws = W.tolist() + [None]
    if mode == "first":
        return counts, [(0, ws[good[0]])] if good.size else []
    solutions = sorted(pair for i in good for pair in _orbit(p, ws[i]))
    return counts, solutions


# -- the superspecial recheck --------------------------------------------------------


def verify_solution_story(p: int, u, v):
    """Recheck reported solutions: each genus-5 fiber product is
    superspecial, so the Cartier-Manin matrices of its quotients E_u, D_v
    and the genus-2 curve all vanish (module docstring).

    u and v are integers naming one pair, or equal-length integer sequences
    naming the pairs (u[i], v[i]) of one batch, numpy integers or Python ints
    of any size; they are reduced mod p, and anything else is refused.  An
    empty batch checks nothing.  The error names the first pair that fails,
    as given, and, within it, the first of E_u, D_v and the genus-2 quotient
    whose matrix does not vanish."""
    us, vs = np.atleast_1d(u), np.atleast_1d(v)
    if us.shape != vs.shape:
        raise ValueError(f"{us.size} values of u but {vs.size} of v")
    if us.size and not (_integers(us) and _integers(vs)):
        raise ValueError(f"u and v must be integers, got {us.dtype} and {vs.dtype}")
    if p > SWEEP_MAX_P:
        raise ValueError(f"p = {p} exceeds the kernel bound {SWEEP_MAX_P}")
    field(p)  # refuses p that is not an odd prime
    _recheck(p, us, vs)  # an empty batch checks nothing


def _integers(x) -> bool:
    """Whether the array x holds integers: of an integer dtype, or of dtype
    object, as numpy holds Python ints past int64, with only integers."""
    if x.dtype.kind in "iu":
        return True
    return x.dtype == object and all(isinstance(e, (int, np.integer)) for e in x.flat)


def _recheck(p: int, us, vs):
    """`verify_solution_story` on validated integer arrays, in slices of
    RECHECK_SLICE pairs.  The normal forms that have led, carried from slice
    to slice, are those whose later pairs are certified."""
    seen = set()
    for start in range(0, us.size, RECHECK_SLICE):
        part = slice(start, start + RECHECK_SLICE)
        _recheck_slice(p, us[part], vs[part], seen)


def _recheck_slice(p: int, us, vs, seen):
    """Recheck the pairs (us[i], vs[i]) of one slice, given the set of the
    nonzero normal forms whose first pair came in an earlier slice, which it
    extends.  The first pair of each nonzero form leads it; every later pair
    of the form takes the leader's verdict on every check, so it passes: a
    failing leader has been named first.  A batch of one pair forms
    nothing.  The leaders and the pairs whose form is zero are checked on
    their own rows, in batch order, their polynomial facts by the per-pair
    route (`_polynomial_facts`) until one fails, then the matrices of the
    pairs before it; the first of them that fails is named, with the first
    check it fails."""
    # reduced before the cast, so that no value wraps: unsigned as uint64,
    # Python ints past int64 (dtype object) as Python ints
    kinds = {"u": np.uint64, "O": object}
    U, V = (
        (x % np.array(p, kinds.get(x.dtype.kind, np.int64))).astype(np.int64) for x in (us, vs)
    )
    E, D, F = _quotient_rows(U, V, p)
    own = np.ones(us.size, dtype=bool)
    if us.size > 1 or seen:
        forms = _normal_forms(p, U, (E, D, F))
        # a stable sort: the pairs of one form stay in batch order
        order = np.lexsort(forms)
        forms = forms[:, order]
        formed = forms.any(axis=0)
        own[order] = ~formed
        first = formed.copy()
        first[1:] &= (forms[:, 1:] != forms[:, :-1]).any(axis=0)
        for i in np.flatnonzero(first):
            key = forms[:, i].tobytes()
            if key not in seen:
                seen.add(key)
                own[order[i]] = True
    own = np.flatnonzero(own)
    us, vs = us[own], vs[own]
    E, D, F = (Q[:, own] for Q in (E, D, F))
    ctx, n, failure = field(p), len(us), None
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        try:
            _polynomial_facts(ctx, u, v, E[:, i], D[:, i], F[:, i])
        except (ValueError, RuntimeError) as err:
            n, failure = i, err
            break
    # the matrices of the pairs before the first polynomial failure are
    # checked first, so the first failing pair is named
    if n:
        E = np.vstack([E[:, :n], np.zeros_like(E[:2, :n])])
        models = np.stack([E, D[:, :n], F[:, :n]], axis=2).reshape(7, 3 * n)
        entries = _cartier_entries_vec(p, models)
        nonzero = entries.reshape(-1, 3, 4).any(axis=2)
        if nonzero.any():
            i, q = np.argwhere(nonzero)[0]
            msg = f"the Cartier-Manin matrix of {_QUOTIENT_NAMES[q]} is nonzero"
            raise RuntimeError(f"solution ({us[i]}, {vs[i]}) is not superspecial: {msg}")
    if failure is not None:
        raise failure


def ss5_sweep(cfg: SweepConfig) -> SearchResult:
    """Run the sweep for one prime.  Counts always cover the full grid; in
    mode "first" only the lexicographically smallest solution is reported
    (and re-verified)."""
    start = time.monotonic()
    p = cfg.p
    counts, solutions = _sweep_w_line(p, cfg.mode)
    if solutions:
        us, vs = map(np.array, zip(*solutions))
        _recheck(p, us, vs)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return SearchResult(
        p=p, mode=cfg.mode, solutions=solutions, counts=counts, elapsed_ms=elapsed_ms
    )


# -- results cache ----------------------------------------------------------------


def result_path(results_dir, p: int) -> Path:
    return Path(results_dir) / "ss5" / f"p={p}.json"


def result_text(result: SearchResult) -> str:
    """The record of a result as `write_result` stores it and `cmrank ss5`
    prints it: `json.dumps(record, sort_keys=True, indent=2)` and a newline.
    `indent` makes `json` use its pure-Python encoder, about 1.3 s for the
    348 832 pairs of p = 43 607, so a GF(p) record is dumped without its
    pairs, and they are formatted as that encoder writes them and spliced
    into the empty list that ends the dump ("solutions" is the last key).
    An --ext-field record holds strings and is dumped whole."""
    if result.mode.startswith("ext-") or not result.solutions:
        return json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n"
    head = json.dumps(replace(result, solutions=[]).to_json(), sort_keys=True, indent=2)
    pairs = ",\n".join(["    [\n      %d,\n      %d\n    ]" % s for s in result.solutions])
    return head.removesuffix("[]\n}") + "[\n" + pairs + "\n  ]\n}\n"


def write_result(results_dir, result: SearchResult, text: str | None = None) -> Path:
    """Persist result atomically; text, if given, is its `result_text`.  The
    temp file is removed when the rename fails."""
    path = result_path(results_dir, result.p)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(result_text(result) if text is None else text)
    try:
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_result(results_dir, p: int):
    """The record cached for p, None if there is none.  A file that is not
    JSON, or not a record of p that `SearchResult.from_json` accepts, is
    refused with a ValueError that names it."""
    path = result_path(results_dir, p)
    if not path.exists():
        return None
    try:
        result = SearchResult.from_json(json.loads(path.read_text()))
        if result.p != p:
            raise ValueError(f"it holds the record of p = {result.p}")
    except ValueError as err:
        raise ValueError(f"{path}: {err}; rerun with --force to recompute it") from None
    return result


def sweep_with_cache(cfg: SweepConfig, results_dir, force: bool = False):
    """Returns (result, from_cache); a cached record is reused only when it
    was swept in cfg's mode.  Persists fresh results atomically."""
    if not force:
        cached = load_result(results_dir, cfg.p)
        if cached is not None and cached.mode == cfg.mode:
            return cached, True
    result = ss5_sweep(cfg)
    write_result(results_dir, result)
    return result, False


# -- flagged extension-field search (no reproduction claim) ------------------------


def _ext_orbit(elems, w):
    """`_orbit` over GF(p^2), with u over elems, the field without +-1."""
    if w is None:
        return [(u, u.inverse()) for u in elems if not u.is_zero]
    one = w.ctx.one
    return [(u, (u + w) / den) for u in elems if not (den := one + u * w).is_zero]


def ss5_sweep_ext(p: int, mode: str = "first") -> SearchResult:
    """Exploratory sweep with (u, v) over GF(p^2), refused past
    EXT_ORACLE_GUARD.  No expected outcome is attached to these findings.

    It walks the w line of `ss5_sweep` in element order, with the scalar
    oracle on (0, w) once per pair {w, -w}, and counts orbits in closed form
    (module docstring).  The grid's first row, u = 0, is (0, w) for w
    ascending: mode "first" stops at the first good w and counts that row up
    to it.  Mode "all" lists the good orbits' pairs in the grid's order; it
    refuses as soon as the good orbits whose verdict is known hold more than
    RECHECK_GUARD pairs, a lower bound on the grid's count."""
    SweepConfig(p, mode)  # validates p and mode
    # checked before the p^2 elements are listed
    calls = (p * p - 1) // 2
    if calls > EXT_ORACLE_GUARD:
        raise ValueError(f"GF({p}^2) takes {calls} oracle calls, past the guard {EXT_ORACLE_GUARD}")
    start = time.monotonic()
    ctx = field(p, 2)
    q = ctx.order
    one, zero = ctx.one, ctx.zero
    ws, verdicts, sizes = [], {}, None  # w -> the oracle's verdict on (0, w)
    good_orbits = good_pairs = 0  # mode "all": the good w whose verdict is known
    for w in ctx.elements():
        if w == one or w == -one:
            continue
        if w not in verdicts:
            verdict = verdicts[w] = verdicts[-w] = ss5_check_pair(p, zero, w)
            if mode == "all" and verdict.status == "solution":
                # the orbits of w and -w, or of w = 0 and w = infinity
                good_orbits += 2
                good_pairs += 2 * q - 5 if w == zero else 2 * (q - 3)
                if good_pairs > RECHECK_GUARD:
                    raise ValueError(
                        f"mode 'all' at p = {p} reports at least {good_pairs} pairs, beyond "
                        f"the recheck guard {RECHECK_GUARD} ({good_orbits} good orbits so far)"
                    )
        ws.append(w)
        if mode == "first" and verdicts[w].status == "solution":
            # one pair (0, w) of the first row per w
            sizes = np.ones(len(ws), dtype=np.int64)
            break
    else:
        ws.append(None)  # w = infinity, with the verdict of w = 0
        verdicts[None] = verdicts[zero]
    # "gcd" or "singular" for an excluded w, else "solution" or "not_solution"
    found = np.array([verdicts[w].reason or verdicts[w].status for w in ws])
    excluded = {reason: found == reason for reason in ("gcd", "singular")}
    counts, good = _grid_counts(p, ctx.order, excluded, found == "solution", mode, sizes)
    if mode == "first":
        pairs = [(zero, ws[i]) for i in good]
    else:
        pairs = sorted(
            (pair for i in good for pair in _ext_orbit(ws[:-1], ws[i])),
            key=lambda pair: (pair[0].coords, pair[1].coords),
        )
    solutions = [(str(u), str(v)) for u, v in pairs]
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
    needed = [k for row in _layout(p, 2) for k in row]
    out = []
    for d in (5, 6):
        # for m = 1 the matrix entries are plain coefficient reads of f, so
        # only tails with those coefficients zero are generated
        for coeffs in _monic_tails(ctx, d, needed if m == 1 else ()):
            f = DensePoly(ctx, coeffs)
            # every needed index, at most 2p - 1, is within m d for d >= 5
            if m > 1 and any(not c.is_zero for c in power_coeffs(f, m, needed, "naive").values()):
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
    free = [k for k in range(d) if k not in zeros]
    coeffs = [_rzero(ext)] * d + [_rsmall(ctx.p, ext, 1)]
    for values in product([e.raw for e in ctx.elements()], repeat=len(free)):
        for k, v in zip(free, values):
            coeffs[k] = v
        yield list(coeffs)
