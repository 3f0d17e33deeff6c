"""Cartier-Manin matrices of hyperelliptic models y^2 = f(x) and the p-rank.

The matrix entry M[i][j] (1-indexed) is the coefficient c_{p*j - i} of
f^((p-1)/2), a layout written once, in `_layout`, where every reader of a
matrix in cmrank takes its indices.  The p-rank is the rank of the g-fold
semilinear iterate M^(sigma^(g-1)) ... M^(sigma) M, with sigma the
entrywise p-power map.  M is ranked by one elimination (`_raw_rank`) on
raw residues by `ff`'s formulas.  A semilinear power of a zero or an
invertible matrix stays zero or invertible, so a rank of 0 or g is the
p-rank; only for 0 < rank(M) < g is the iterate formed, by squaring, and
ranked.  `CartierData.iterate` forms it on first access.  A FieldElement
holds its raw residue, so `CartierData` wraps them with no conversion.

Coefficient extraction has two routes: full expansion of f^((p-1)/2)
(naive) and a linear recurrence that reaches any index within p of either
end of the coefficient range in O(p) field operations.  When f(0) = 0 the
recurrence writes f = x^v h with h(0) != 0 and reads the low end from h^m,
whose coefficients are those of f^m shifted by v*m.  An independent
zeta-function oracle computes the p-rank from point counts so the two
routes can be checked against each other; it counts on whole arrays of
GF(p^k), with numpy and its own modulus only.

"auto" chooses by cost.  One function, `_route`, picks the route of every
`power_coeffs` read and words every refusal of one, and it alone reads the
three constants of that choice.  A power of degree n = m*deg(f) at most
`EXPAND_MAX_DEGREE` = 2^15 whose sums are exact in float64 is expanded, the
faster route there.  Past it the recurrence reads every entry within its
reach (genus <= 2) and at most `RECURRENCE_CAP` steps from an end, and
full expansion reads the rest (the middle entries of genus >= 3) up to
degree `EXPANSION_CAP`.  A read that no route takes is refused with a
ValueError (CLI exit 2) that says why each route was refused.  `poly`
keeps only its own arithmetic preconditions: a negative m, `DEGREE_CAP`
and the float64 bound.

Full expansion (`poly.pow_coeffs`) never forms f^m: it squares coordinate
arrays up to A = f^(m//2) and sets B = A or A*f.  Every matrix is read by
one int64 correlation of A with B per column of M, a run of consecutive
wanted c_k, and coordinate array.  Squarings whose operands have at least
`poly._FFT_MIN_LEN` terms run by real FFT wherever Percival's rounding
bound keeps every value within 1/16 of its integer (`poly._fft_exact`),
with a tripwire that redoes a product directly if any value lies more
than 1/8 away; a genus-6 query at p = 4001 takes about 1.2 ms by it, 11 ms
by direct convolution.  Over GF(p^2) a direct square takes two
convolutions and a product with f three.  The direct convolutions run in
float64 and the reads in int64, exact by the bound `poly._FLOAT_EXACT`
states; a power of a non-constant f past that bound is refused.  The
direct route's quadratic cost is bounded by `EXPANSION_CAP` = 2^17 on the
degree m*deg(f), checked by `_route` before any array is built.  Genus >= 3
models reach it from p ~ 37 000 (degree 7) or p ~ 18 700 (degree 14),
since their middle entries are out of the recurrence's reach.

The recurrence has two forms here.  `_recurrence_block` is the scalar
one: it serves a single model, of any degree, over GF(p) or GF(p^2), for
`power_coeffs`.  It runs up to p steps and keeps about p values, so
`_route` refuses it past `RECURRENCE_CAP` steps: a query that would need
more falls back to full expansion under "auto", up to `EXPANSION_CAP`.
`_power_coeffs_vec` is the batched one, for many GF(p) models of
degree 2 to 6 at once: it reads c_{p-2} and c_{p-1} only, in blocks of
steps after Bostan, Gaudry and Schost, and `_cartier_entries_vec` reads
genus-1 and -2 matrices with it for the genus-5 sweep's recheck in
`search`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .ff import FieldCtx, FieldElement, _is_rzero, _rdot, _rinv, _rmul, _rrow_sub, inverse_table
from .poly import _FLOAT_EXACT, DensePoly, _float_exact, is_squarefree, pow_coeffs

# guard of `prank_oracle`, which counts points over GF(p^k), k <= genus, on
# (k, p^k) int64 coordinate arrays (`_count_points`): the largest field it
# lists has q = p^genus elements, and its time and memory follow q.
# Coordinates are below p, and a coordinate of a product sums at most 2k - 1
# products below p^2 (k from the schoolbook product, k - 1 from reducing
# x^(2k-2) .. x^k) before it is reduced mod p.  Under p^k <= ORACLE_MAX_Q the
# largest such sum is at k = 1, below ORACLE_MAX_Q^2: for k >= 2 it is below
# (2k - 1) ORACLE_MAX_Q^(2/k) <= (2k - 1) ORACLE_MAX_Q.  Time grows like
# genus^3 q and memory like genus q.  One call on a random model of degree
# 2 genus + 1, warm, best of 3, with the whole process's peak RSS, on a
# 2-core Xeon VM (the last two are refused):
#   (p, genus)  q          time     peak RSS
#   (31, 3)     29 791     0.013 s  34 MB
#   (19, 4)     130 321    0.10 s   54 MB
#   (7, 6)      117 649    0.26 s   62 MB
#   (5, 7)      78 125     0.26 s   55 MB
#   (3, 10)     59 049     0.58 s   58 MB
#   (3, 11)     177 147    2.6 s    119 MB
#   (31, 4)     923 521    0.97 s   200 MB
ORACLE_MAX_Q = 1 << 17
assert ORACLE_MAX_Q**2 < 2**63
# the crossover of "auto": a power of degree n = m*deg(f) at most this is read
# by full expansion, which is faster there than the recurrence even where the
# recurrence reaches every index.  One genus 1-2 Cartier-Manin query, best of
# 3 runs on a 2-core Xeon VM, recurrence / expansion in ms:
#   p       deg  n       GF(p)        GF(p^2)
#   1 009   6    3 024   1.9 / 0.19   4.2 / 0.47
#   10 007  6    30 018  21 / 1.4     51 / 4.5
#   11 003  6    33 006  23 / 2.0     56 / 6.6
#   15 013  6    45 036  32 / 2.3     68 / 5.8
#   16 001  6    48 000  33 / 27      72 / 53
#   20 011  4    40 020  18 / 21      38 / 45
#   30 011  3    45 015  25 / 32      48 / 57
#   30 011  6    90 030  63 / 116     146 / 236
# Expansion's long squarings take the FFT route while its rounding bound
# admits them, at degree 6 up to p ~ 15 000, and there expansion is 10-15
# times faster; past that they are convolved directly, the two are within
# about 20 % up to n ~ 50 000, and the recurrence's O(p) steps win beyond.
# The constant stays at 2^15, the crossover measured before the FFT route:
# raising it would change the strategy `prank` reports for genus <= 2
# queries with n past 2^15
EXPAND_MAX_DEGREE = 1 << 15
# cost guard of full expansion (`poly.pow_coeffs`), read by `_route`:
# convolved directly, its last squaring is about (n/2)^2 multiply-adds for a
# power of degree n, 4*10^9 at the guard, 18 times the n ~ 7*10^3 of a
# genus-6 Cartier-Manin expansion at p ~ 1100.  The FFT route's squarings
# take O(n log n), but a Cartier-Manin expansion at the guard has p ~ 37 000,
# where the rounding bound refuses its long squarings.  At the guard on a
# 2-core Xeon VM, best of 3: degree 7 at p = 37 447, 0.22 s over GF(p) and
# 0.44 s over GF(p^2); degree 8 at p = 101, by the FFT route, 8 ms and 23 ms.
# A Cartier-Manin expansion has m = (p-1)/2 and deg f >= 3, so the guard
# refuses every one with p >= 2^18, and below 2^18 the assert keeps its sums
# of at most n + 1 products exact in float64 (`poly._FLOAT_EXACT`)
EXPANSION_CAP = 1 << 17
assert (EXPANSION_CAP + 1) * ((1 << 18) - 1) ** 2 < _FLOAT_EXACT
# cost guard of `_recurrence_block`, the partner of `EXPANSION_CAP`, read by
# `_route`: a query of k steps builds two Python lists of k + 1 entries (the
# inverse table and the coefficients).  For genus 2 at p = 1 048 573, on a
# 2-core Xeon VM: 3.5 s and 157 MB peak over GF(p), 6.3 s and 285 MB over
# GF(p^2).  Unbounded, a query near the field bound p < 2^31 takes 2^11
# times that: hours, and hundreds of GB
RECURRENCE_CAP = 1 << 20
# the largest p `_power_coeffs_vec` takes, so that every int64 accumulation
# stays exact: each recurrence term weight * f_j * c_{k-j}, on the window or
# in a block, is below p^3 and at most six are summed; the product of the
# blocks' step matrices, entries below p, applied to the window sums d
# products below p^2
_BATCH_MAX_P = 1 << 20
assert 6 * _BATCH_MAX_P**3 < 1 << 63
assert 6 * _BATCH_MAX_P**2 < 1 << 63
# step weights `_power_coeffs_vec` tabulates at once, six per step and block:
# 192 KB, where one table up to _BATCH_MAX_P would be about 50 MB
_WEIGHT_BLOCK = 4096
# window values the blocks of `_power_coeffs_vec` hold at once, d^2 per
# column and block: 128 KB of int64, twice that with the window's copy.  A
# blocked step does d times the arithmetic of a plain one per column, so
# blocks run only when more than d fit: at p = 100 019, d = 6, 5 columns take
# 79 ms in 91 blocks against 750 ms on the window alone, 45 columns 490
# against 590 ms in 10 blocks, and 75 columns would take 740 against 610 ms
# in 6.  So one pair of the genus-5 recheck, five columns, runs 91 blocks,
# and so do mode "all"'s leaders, one pair per normal form; more than 13
# pairs with entries to compute run on the window alone
_BLOCK_BUDGET = 1 << 14
# cost guard of a model, checked before its O(deg^2) squarefree gcd.  Past
# the expansion, `cartier_matrix` ranks M, about g^3 / 3 Python products, and
# only for 0 < rank(M) < g forms the g-fold iterate, about 2 log2(g) matrix
# products of g^3 Python products each, and ranks it: the iterate is the cost
# this bounds, and an ordinary model (invertible M) never forms it.  Over
# GF(p^2) each product costs about 3 times more, so the bound there is the
# largest g with 3 g^3 <= 128^3, 88.  `cartier_matrix` of a random
# degree-2g+1 model with invertible M, and of one with rank(M) = p-rank =
# g - 1 (random over GF(p), moved over GF(p^2) by x -> a x + b with a, b
# outside GF(p)), best of 3 in each of two runs on a 2-core Xeon VM; genus
# 128 over GF(p^2) is timed with MODEL_MAX_GENUS_EXT lifted:
#   genus 128, invertible M: GF(3) 0.02-0.04 s, GF(101) 0.10-0.15 s,
#     GF(3^2) 0.07-0.08 s, GF(101^2) 0.23-0.28 s
#   genus 128, iterate formed: GF(3) 0.57-0.60 s, GF(101) 0.71-0.83 s,
#     GF(3^2) 1.7-1.8 s, GF(101^2) 3.0-4.7 s
#   genus 88, invertible M: GF(3^2) 0.03-0.05 s, GF(101^2) 0.11-0.14 s
#   genus 88, iterate formed: GF(3^2) 0.70-0.74 s, GF(101^2) 1.4-1.7 s
MODEL_MAX_GENUS = 128
MODEL_MAX_GENUS_EXT = int(MODEL_MAX_GENUS / 3 ** (1 / 3))


class RecurrenceUnavailable(ValueError):
    """Raised when the recurrence route cannot produce a requested index."""


class Coefficients(dict):
    """Coefficients of f^m by index, as `power_coeffs` returns them, with the
    route that read them: strategy is "naive" or "recurrence"."""

    def __init__(self, values: dict, strategy: str):
        super().__init__(values)
        self.strategy = strategy


def _genus(degree: int) -> int:
    """Genus of y^2 = f for a squarefree f of this degree."""
    return (degree + 1) // 2 - 1


def _guarded_genus(f: DensePoly) -> int:
    """`_genus` of f, refusing a model past its field's guard; callers take
    it before the O(deg^2) squarefree gcd."""
    genus = _genus(f.degree)
    if genus > MODEL_MAX_GENUS:
        raise ValueError(f"genus {genus} > MODEL_MAX_GENUS = {MODEL_MAX_GENUS}")
    if f.ctx.ext_degree == 2 and genus > MODEL_MAX_GENUS_EXT:
        raise ValueError(f"genus {genus} > MODEL_MAX_GENUS_EXT = {MODEL_MAX_GENUS_EXT}")
    return genus


class HyperellipticModel:
    """A smooth affine model y^2 = f(x) with squarefree f of degree >= 3 and
    genus at most MODEL_MAX_GENUS, or MODEL_MAX_GENUS_EXT over GF(p^2)."""

    __slots__ = ("ctx", "f", "genus")

    def __init__(self, ctx: FieldCtx, f: DensePoly):
        if f.ctx != ctx:
            raise ValueError("polynomial context does not match the model context")
        if f.degree < 3:
            raise ValueError(f"deg f = {f.degree} < 3")
        genus = _guarded_genus(f)
        if not is_squarefree(f):
            raise ValueError("singular model: f is not squarefree")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "genus", genus)

    def __setattr__(self, name, value):
        raise AttributeError("HyperellipticModel is immutable")

    def __repr__(self):
        return f"y^2 = [{self.f}] over {self.ctx!r} (genus {self.genus})"


@dataclass(frozen=True)
class CartierData:
    """Cartier-Manin matrix, its p-rank, and the strategy that read it; the
    semilinear iterate is formed on first access."""

    M: tuple
    p: int
    p_rank: int
    strategy: str

    @functools.cached_property
    def iterate(self) -> tuple:
        """M^(sigma^(g-1)) ... M^(sigma) M, whose rank is the p-rank."""
        ctx = self.M[0][0].ctx
        T = _raw_iterate(ctx, _raw_matrix(self.M))
        return tuple(tuple(FieldElement(ctx, x) for x in row) for row in T)


# -- coefficient extraction ----------------------------------------------------


def _recurrence_block(f: DensePoly, m: int, upto: int, inv) -> list:
    """Raw coefficients c_0..c_upto of f^m, assuming f(0) != 0 and upto < p;
    inv is `inverse_table(p, n)` for some n >= upto.

    k f_0 c_k = sum_{j=1..d} ((m+1) j - k) f_j c_{k-j}, with f_j / f_0 taken
    once and 1/k from inv."""
    ctx = f.ctx
    p, nu, ext = ctx.p, ctx.nu, ctx.ext_degree
    d = f.degree
    raw = f.raw()
    f0_inv = _rinv(p, nu, ext, raw[0])
    # (weight at k = 0, f_j / f_0) for j = 1..d; c is padded with d zeros
    # below c_0, so every step runs over all j
    terms = [((m + 1) * j % p, _rmul(p, nu, ext, raw[j], f0_inv)) for j in range(1, d + 1)]
    c0 = (f.coeff(0) ** m).raw
    if ext == 1:
        c = [0] * d + [c0]
        for k in range(1, upto + 1):
            top = d + k  # c[top - j] is c_{k-j}
            acc = 0
            for j, (w0, fj) in enumerate(terms, 1):
                acc += (w0 - k) * fj * c[top - j]
            c.append(acc % p * inv[k] % p)
        return c[d:]
    c = [(0, 0)] * d + [c0]
    for k in range(1, upto + 1):
        top = d + k
        a0 = a1 = 0
        for j, (w0, fj) in enumerate(terms, 1):
            w = w0 - k
            ck = c[top - j]
            a0 += w * (fj[0] * ck[0] + nu * fj[1] * ck[1])
            a1 += w * (fj[0] * ck[1] + fj[1] * ck[0])
        kinv = inv[k]
        c.append((a0 % p * kinv % p, a1 % p * kinv % p))
    return c[d:]


@functools.lru_cache(maxsize=1)
def _inverse_table(p: int):
    """`inverse_table(p, p - 1)` as a read-only int64 array, kept for the
    last p asked: every batched read of one prime shares it."""
    table = np.frombuffer(inverse_table(p, p - 1), dtype=np.int64)
    table.flags.writeable = False
    return table


def _power_coeffs_vec(F, p: int):
    """c_{p-2} and c_{p-1} of f^((p-1)/2) for every column f of F, as a
    (2, n) array: the batched twin of `_recurrence_block`.

    F is a (d+1, n) int64 array of residues mod p with 2 <= d <= 6: column i
    holds f_0..f_d of one polynomial, zero-padded above its degree.  Every
    f_0 must be nonzero and p at most _BATCH_MAX_P; 1/k and 1/f_0 are read
    from `_inverse_table(p)`.  The recurrence

        k f_0 c_k = sum_{j=1..d} ((m+1) j - k) f_j c_{k-j},   m = (p-1)/2,

    keeps only the window c_{k-d}..c_{k-1}, on which step k acts linearly.
    Its p - 1 steps are split as R + T B: the first R run on the window
    itself, one product and sum per step for all columns at once; the other
    T B run as T blocks of B steps, in lockstep.  Each block starts from the
    d unit windows, so after its B steps it holds its step matrix, a d x d
    matrix per column; the T matrices are multiplied by a product tree and
    applied to the window.  That is R + B + log2 T numpy steps, below
    T + (p-1)/T + log2 T, at d times the arithmetic: the cheap form of
    Bostan, Gaudry and Schost, "Linear recurrences with polynomial
    coefficients and application to integer factorization and Cartier-Manin
    operator" (2007).  T is near sqrt(1.5 (p-1)) when the blocks' windows
    fit in _BLOCK_BUDGET values, else the most that fit; when no more than
    d fit, all p - 1 steps run on the window, O(p d n) work in O(d n)
    memory."""
    d, n = F.shape[0] - 1, F.shape[1]
    if not 2 <= d <= 6 or p > _BATCH_MAX_P:
        raise ValueError(f"need 2 <= d <= 6 and p <= {_BATCH_MAX_P}")
    f0 = F[0]
    if not f0.all():
        # the recurrence divides by f_0: a zero would read every c_k as 0
        raise ValueError("f(0) = 0 in a column: the recurrence divides by f(0)")
    m = (p - 1) // 2
    inv_table = _inverse_table(p)
    fs = F[:0:-1] * inv_table[f0] % p  # f_d .. f_1, each over f_0
    weights = (m + 1) * np.arange(d, 0, -1, dtype=np.int64)

    def steps(starts, count):
        # (t, w) for the steps t = 1..count of windows whose step t is
        # k = starts + t, w the weights ((m+1) j - k) / k, j = d..1, of each
        # window, tabulated a chunk of steps at a time
        chunk = max(1, _WEIGHT_BLOCK // np.size(starts))
        for first in range(1, count + 1, chunk):
            ts = np.arange(first, min(first + chunk, count + 1))
            ks = np.add.outer(ts, starts)
            yield from zip(ts.tolist(), (weights - ks[..., None]) * inv_table[ks][..., None] % p)

    blocks = min(isqrt(6 * (p - 1)) // 2, _BLOCK_BUDGET // (d * d * n))
    length = (p - 1) // blocks if blocks > d else 0
    rest = p - 1 - blocks * length
    # c_t sits in rows t mod d and t mod d + d of a window, so for r = t mod d
    # the rows r .. r+d-1 hold c_{t-d} .. c_{t-1}, in the order of fs
    window = np.zeros((2 * d, n), dtype=np.int64)
    window[0] = window[d] = [pow(c, m, p) for c in f0.tolist()]  # c_0; c_{-1} .. c_{1-d} = 0
    for k, w in steps(0, rest):
        r = k % d
        window[r] = window[r + d] = np.einsum("i,in,in->n", w, fs, window[r : r + d]) % p
    r = (rest + 1) % d
    state = window[r : r + d]  # c_{R+1-d} .. c_R
    if length:
        # the blocks' windows, indexed by the local step t, with axes (row,
        # block and column, unit): unit window i is c_{i+1-d} = 1
        units = np.zeros((2 * d, blocks * n, d), dtype=np.int64)
        for i in range(d):
            units[(i + 1) % d, :, i] = units[(i + 1) % d + d, :, i] = 1
        for t, w in steps(rest + length * np.arange(blocks), length):
            r = t % d
            # weight * f_j of every block and column, below p^2, times the
            # rows of every unit window
            coef = (w[:, None, :] * fs.T).reshape(-1, 1, d)
            ck = (coef @ units[r : r + d].transpose(1, 0, 2))[:, 0] % p
            units[r] = units[r + d] = ck
        r = (length + 1) % d
        # the step matrix of block b and column c at [b, c]: its row is the
        # window position after the block, its column the unit it started from
        chain = units[r : r + d].reshape(d, blocks, n, d).transpose(1, 2, 0, 3)
        while len(chain) > 1:
            # the later block of each pair multiplies from the left
            pairs = len(chain) // 2 * 2
            joined = chain[1:pairs:2] @ chain[0:pairs:2] % p
            chain = np.concatenate([joined, chain[pairs:]])
        state = np.einsum("nij,jn->in", chain[0], state) % p
    return state[-2:]


def _x_order(f: DensePoly) -> int:
    """The v with f = x^v h and h(0) != 0, for a nonzero f."""
    return next(i for i, c in enumerate(f.raw()) if not _is_rzero(f.ctx.ext_degree, c))


def _route(f: DensePoly, m: int, indices, strategy: str) -> str:
    """The route of a `power_coeffs` read of f^m at indices, a sorted
    nonempty list within [0, m*deg(f)]: "naive" (full expansion by
    `pow_coeffs`) or "recurrence".  The one place that weighs the two:
    it reads EXPAND_MAX_DEGREE, RECURRENCE_CAP and EXPANSION_CAP, and it
    refuses a read that strategy leaves no route for with a ValueError
    that says why each route was refused (RecurrenceUnavailable when
    strategy is "recurrence").

    "naive", m = 0 and a constant f take full expansion.  "auto" expands a
    power of degree n = m*deg(f) at most EXPAND_MAX_DEGREE whose sums
    `poly._float_exact` keeps exact.  Otherwise the recurrence, on
    f = x^v h with h(0) != 0, reads an index below v*m as 0 and any other
    within p of v*m or of n, at most RECURRENCE_CAP steps from that end;
    where it cannot, "auto" expands.  Expansion is refused past degree
    EXPANSION_CAP."""
    p, n = f.ctx.p, m * f.degree
    if strategy == "auto" and n <= EXPAND_MAX_DEGREE and _float_exact(n + 1, p):
        return "naive"
    refusals = []
    if strategy != "naive" and m and f.degree >= 1:
        low = _x_order(f) * m
        far = [k for k in indices if k - low >= p and n - k >= p]
        steps = max(max(k - low, 0) if k - low < p else n - k for k in indices)
        if far:
            refusals.append(f"indices {far} are not within p of either end")
        elif steps > RECURRENCE_CAP:
            refusals.append(f"{steps} recurrence steps exceed the cost guard {RECURRENCE_CAP}")
        else:
            return "recurrence"
        if strategy == "recurrence":
            raise RecurrenceUnavailable(refusals[0])
    if n > EXPANSION_CAP:
        refusals.append(f"degree {n} of the full expansion exceeds the cost guard {EXPANSION_CAP}")
        raise ValueError("; ".join(refusals))
    return "naive"


def power_coeffs(f: DensePoly, m: int, indices, strategy: str = "auto") -> Coefficients:
    """Exact coefficients of f^m at the requested indices, read by the route
    `_route` picks under strategy, "naive", "recurrence" or "auto"; the
    result's strategy names it.

    The recurrence writes f = x^v h with h(0) != 0, so that
    f^m = x^(v*m) h^m: an index k < v*m reads 0, k - v*m < p is read from
    the low end of h^m and m*deg(f) - k < p from the high end of f^m.
    """
    if strategy not in ("naive", "recurrence", "auto"):
        raise ValueError(f"unknown strategy {strategy!r}")
    indices = sorted(set(indices))
    if m < 0:
        raise ValueError("negative exponent")
    top = m * f.degree if not f.is_zero else (0 if m == 0 else -1)
    for k in indices:
        if k < 0 or k > top:
            raise IndexError(f"index {k} out of range [0, {top}]")
    if not indices:
        return Coefficients({}, "naive")
    if _route(f, m, indices, strategy) == "naive":
        return Coefficients(pow_coeffs(f, m, indices), "naive")
    ctx = f.ctx
    p = ctx.p
    v = _x_order(f)
    low = v * m

    forward = [k for k in indices if low <= k < low + p]
    backward = [k for k in indices if k >= low + p]
    # one inverse table serves both ends
    steps = [k - low for k in forward] + [top - k for k in backward]
    inv = inverse_table(p, max(steps, default=0))
    out = {k: ctx.zero for k in indices if k < low}
    if forward:
        h = DensePoly(ctx, f.raw()[v:])
        block = _recurrence_block(h, m, forward[-1] - low, inv)
        for k in forward:
            out[k] = FieldElement(ctx, block[k - low])
    if backward:
        block = _recurrence_block(f.reverse(), m, top - backward[0], inv)
        for k in backward:
            out[k] = FieldElement(ctx, block[top - k])
    return Coefficients(out, "recurrence")


# -- exact linear algebra over the scalar field ---------------------------------


def _raw_matrix(M) -> list:
    """The raw residues of a matrix of FieldElements."""
    return [[x.raw for x in row] for row in M]


def _raw_rank(ctx: FieldCtx, rows) -> int:
    """Rank of a matrix of raw residues over GF(p) or GF(p^2), by Gaussian
    elimination to row echelon form."""
    p, nu, ext = ctx.p, ctx.nu, ctx.ext_degree
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if not _is_rzero(ext, rows[r][col])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = _rinv(p, nu, ext, rows[rank][col])
        top = [_rmul(p, nu, ext, x, inv) for x in rows[rank][col:]]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if not _is_rzero(ext, factor):
                rows[r][col:] = _rrow_sub(p, nu, ext, rows[r][col:], factor, top)
        rank += 1
        if rank == len(rows):
            break
    return rank


def matrix_rank(M) -> int:
    """Rank by Gaussian elimination over the exact field."""
    if not M or not M[0]:
        return 0
    return _raw_rank(M[0][0].ctx, _raw_matrix(M))


def _raw_mat_mul(ctx: FieldCtx, A, B):
    """A * B for matrices of raw residues."""
    p, nu, ext = ctx.p, ctx.nu, ctx.ext_degree
    cols = list(zip(*B))
    return [[_rdot(p, nu, ext, row, col) for col in cols] for row in A]


def _raw_mat_pow(ctx: FieldCtx, A, e: int):
    """A^e for e >= 1, by squaring."""
    result = None
    while True:
        if e & 1:
            result = A if result is None else _raw_mat_mul(ctx, result, A)
        e >>= 1
        if not e:
            return result
        A = _raw_mat_mul(ctx, A, A)


def _raw_iterate(ctx: FieldCtx, M):
    """M^(sigma^(g-1)) ... M^(sigma) M on raw residues.  Over GF(p) sigma is
    the identity, so this is M^g; over GF(p^2) sigma negates the second
    coordinate and sigma^2 = 1, so with N = M^sigma M it is N^(g/2) for even
    g and M N^((g-1)/2) for odd g."""
    g = len(M)
    if ctx.ext_degree == 1:
        return _raw_mat_pow(ctx, M, g)
    p = ctx.p
    N = _raw_mat_mul(ctx, [[(a, -b % p) for a, b in row] for row in M], M)
    if g % 2 == 0:
        return _raw_mat_pow(ctx, N, g // 2)
    return M if g == 1 else _raw_mat_mul(ctx, M, _raw_mat_pow(ctx, N, g // 2))


# -- the Cartier-Manin matrix ---------------------------------------------------


def _layout(p: int, g: int) -> list:
    """The index k of c_k, the coefficient of f^((p-1)/2), at each entry of a
    genus-g Cartier-Manin matrix in characteristic p, row by row: M[i][j],
    1-indexed, is c_{p*j - i}."""
    return [[p * j - i for j in range(1, g + 1)] for i in range(1, g + 1)]


def _matrix_entries(C: HyperellipticModel, strategy: str) -> tuple:
    """The Cartier-Manin matrix of C and the strategy that read it."""
    ctx = C.ctx
    m = (ctx.p - 1) // 2
    top = m * C.f.degree
    layout = _layout(ctx.p, C.genus)
    coeffs = power_coeffs(C.f, m, {k for row in layout for k in row if 0 <= k <= top}, strategy)
    M = tuple(tuple(coeffs.get(k, ctx.zero) for k in row) for row in layout)
    return M, coeffs.strategy


def _degrees(R):
    """The degree of every column of the coefficient rows R, -1 for zero."""
    nonzero = R != 0
    return np.where(nonzero.any(axis=0), len(R) - 1 - nonzero[::-1].argmax(axis=0), -1)


def _cartier_entries_vec(p: int, models):
    """Cartier-Manin matrices of y^2 = f for every column f of models, a
    (7, n) int64 array of coefficient rows mod p, low to high, as an
    (n, 2, 2) int64 array, zero outside a genus-1 matrix.

    Each f has degree 4 or 6 and f(0) != 0.  `_power_coeffs_vec` reads the
    entries at the low end, c_{p-2} and c_{p-1}; for degree 6 those at the
    high end, c_k for k > p, are c_{3(p-1)-k} of the reverse of f, as in
    `power_coeffs`.  So a genus-1 model takes one column of the recurrence
    and a genus-2 model two."""
    degree = _degrees(models)
    wrong = np.flatnonzero((degree != 4) & (degree != 6))
    if wrong.size:
        f = models[:, wrong[0]].tolist()
        raise ValueError(f"expected degree 4 or 6 over GF({p}), got coefficients {f}")
    two = degree == 6  # genus 2; the reverses of these follow the n models
    n = len(degree)
    ends = _power_coeffs_vec(np.hstack([models, models[::-1, two]]), p)  # c_{p-2}, c_{p-1}
    out = np.zeros((n, 2, 2), dtype=np.int64)
    for (i, j), k in np.ndenumerate(_layout(p, 2)):
        # a genus-1 matrix is c_{p-1} alone; a sextic's c_k past p is
        # c_{3(p-1)-k} of its reverse's power, row 2p-1-k of its ends
        rows = slice(None) if k == p - 1 else two
        out[rows, i, j] = ends[k - (p - 2), :n][rows] if k < p else ends[2 * p - 1 - k, n:]
    return out


def cartier_matrix(C: HyperellipticModel, strategy: str = "auto") -> CartierData:
    """The Cartier-Manin matrix of C and its p-rank.  A semilinear power of
    a zero or an invertible M stays zero or invertible, so rank(M) is the
    p-rank when it is 0 or g; only for 0 < rank(M) < g is the iterate formed
    and ranked."""
    M, used = _matrix_entries(C, strategy)
    ctx = C.ctx
    raw = _raw_matrix(M)
    rank = _raw_rank(ctx, raw)
    if 0 < rank < C.genus:
        rank = _raw_rank(ctx, _raw_iterate(ctx, raw))
    return CartierData(M=M, p=ctx.p, p_rank=rank, strategy=used)


def p_rank(C: HyperellipticModel) -> int:
    """Rank of the semilinear iterate of the Cartier-Manin matrix, read by
    `cartier_matrix`; invariant under x -> x+s and f -> c*f."""
    return cartier_matrix(C).p_rank


def is_superspecial(C: HyperellipticModel) -> bool:
    """True iff the Cartier-Manin matrix vanishes identically; forms no
    semilinear iterate and no rank."""
    M, _ = _matrix_entries(C, "auto")
    return all(x.is_zero for row in M for x in row)


# -- independent zeta-function oracle -------------------------------------------


@functools.lru_cache(maxsize=None)
def _find_irreducible(p: int, k: int) -> tuple:
    """Low coefficients of the first monic degree-k polynomial over GF(p), in
    `itertools.product` order of its tails, with no root in GF(p^d) for any
    d <= k/2: it has no factor of degree <= k/2, so it is irreducible (for
    k = 1, x + 1, by which no product is reduced).  The tails with t0 = 0,
    which have the root 0, are skipped; built once per (p, k)."""
    fields = [_elements(p, d) for d in range(1, k // 2 + 1)]
    for tail in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        coeffs = tail + (1,)
        if all(_horner(coeffs, X, p, neg_red).any(axis=0).all() for X, neg_red in fields):
            return tail
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _elements(p: int, k: int) -> tuple:
    """GF(p^k) as a (k, p^k) coordinate array, element n with coordinates
    n // p^j % p, and the negated low coefficients of its modulus."""
    digits = p ** np.arange(k, dtype=np.int64)
    X = np.arange(p**k, dtype=np.int64) // digits[:, None] % p
    return X, (-np.array(_find_irreducible(p, k), dtype=np.int64)) % p


def _ext_mul(a: np.ndarray, b: np.ndarray, p: int, neg_red: np.ndarray) -> np.ndarray:
    """Products of GF(p^k) elements held as (k, n) coordinate arrays, column
    by column, modulo the monic modulus whose low coefficients are -neg_red."""
    k = len(a)
    prod = np.zeros((2 * k - 1, a.shape[1]), dtype=np.int64)
    for i in range(k):
        prod[i : i + k] += a[i] * b
    # x^i = x^(i-k) x^k, and x^k = sum_j neg_red[j] x^j
    for i in range(2 * k - 2, k - 1, -1):
        prod[i - k : i] += np.multiply.outer(neg_red, prod[i] % p)
    return prod[:k] % p


def _horner(coeffs, X: np.ndarray, p: int, neg_red: np.ndarray) -> np.ndarray:
    """Values, as a coordinate array like X, of the polynomial over GF(p) with
    coefficients coeffs (constant first) at every element of X, by Horner's
    rule; the coefficients are embedded as the first coordinate."""
    acc = np.zeros_like(X)
    acc[0] = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = _ext_mul(acc, X, p, neg_red)
        acc[0] = (acc[0] + c) % p
    return acc


def _count_points(f: DensePoly, k: int) -> int:
    """Points of y^2 = f(x) over GF(p^k), the points at infinity included,
    for f over GF(p): f is evaluated at every element of GF(p^k) at once
    (`_horner`), and each value is looked up by its base-p code in a table of
    the squares."""
    p = f.ctx.p
    X, neg_red = _elements(p, k)
    digits = p ** np.arange(k, dtype=np.int64)
    is_square = np.zeros(p**k, dtype=bool)
    is_square[digits @ _ext_mul(X, X, p, neg_red)] = True
    is_square[0] = False
    coeffs = f.raw()  # ints over GF(p)
    values = digits @ _horner(coeffs, X, p, neg_red)
    total = int(np.count_nonzero(values == 0)) + 2 * int(np.count_nonzero(is_square[values]))
    if f.degree % 2 == 1:
        return total + 1
    return total + (2 if is_square[coeffs[-1]] else 0)


def prank_oracle(C: HyperellipticModel) -> int:
    """p-rank from point counts: reconstruct the L-polynomial
    b_0 + b_1 T + ... over GF(p^k), k = 1..genus, by Newton's identities.
    For i > g, b_i = p^(i-g) b_(2g-i) is divisible by p, so deg(L mod p) is
    the largest i <= g with p not dividing b_i."""
    if C.ctx.ext_degree != 1:
        raise ValueError("oracle requires a prime base field")
    g = C.genus
    p = C.ctx.p
    if p**g > ORACLE_MAX_Q:
        raise ValueError(f"oracle guard exceeded: p^genus = {p}^{g} > {ORACLE_MAX_Q}")
    power_sums = [p**k + 1 - _count_points(C.f, k) for k in range(1, g + 1)]
    # k sigma_k = sum_{i=1..k} (-1)^(i-1) sigma_(k-i) s_i, on exact integers
    sigma = [1]
    for k in range(1, g + 1):
        acc = sum((-1) ** (i - 1) * sigma[k - i] * power_sums[i - 1] for i in range(1, k + 1))
        sigma_k, rem = divmod(acc, k)
        if rem:
            raise RuntimeError("non-integral L-polynomial coefficient")
        sigma.append(sigma_k)
    # b_i = (-1)^i sigma_i, and the sign does not change whether p divides it
    return max(i for i in range(g + 1) if sigma[i] % p)
