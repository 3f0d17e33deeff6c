"""Cartier-Manin matrices of hyperelliptic models y^2 = f(x) and the p-rank.

The matrix entry M[i][j] (1-indexed) is the coefficient c_{p*j - i} of
f^((p-1)/2); the p-rank is the rank of the g-fold semilinear iterate
M^(sigma^(g-1)) ... M^(sigma) M, with sigma the entrywise p-power map.
The iterate is formed by squaring and ranked by one elimination
(`_raw_rank`), both on raw residues; FieldElements are built only for the
returned `CartierData`.  Coefficient extraction has two routes: full
expansion of f^((p-1)/2) (naive) and a linear recurrence that reaches any
index within p of either end of the coefficient range in O(p) field
operations.  When f(0) = 0 the recurrence writes f = x^v h with h(0) != 0
and reads the low end from h^m, whose coefficients are those of f^m
shifted by v*m.  An independent zeta-function oracle computes the p-rank
from point counts so the two routes can be checked against each other.

"auto" chooses by cost.  A power of degree n = m*deg(f) at most
`EXPAND_MAX_DEGREE` = 2^15, the measured crossover, whose sums are exact in
float64 is expanded, the faster route there.  Past it the recurrence reads
every entry within its reach (genus <= 2), and full expansion reads the
rest (the middle entries of genus >= 3).

Full expansion (`poly.pow_coeffs`) never forms f^m: it squares coordinate
arrays up to A = f^(m//2), sets B = A or A*f, and takes each wanted c_k as
the dot product of A_i and B_(k-i).  Over GF(p^2) a square takes two
convolutions and a product with f three.  The convolutions run in float64
on int64 arrays, exact by the bound `poly._FLOAT_EXACT` states; a power of
a non-constant f past that bound is refused.  The quadratic cost is bounded
by refusing powers of degree m*deg(f) above `poly.EXPANSION_CAP` = 2^17
with a ValueError (CLI exit 2) before any array is built.  Genus >= 3
models reach it from p ~ 37 000 (degree 7) or p ~ 18 700 (degree 14),
since their middle entries are out of the recurrence's reach.

The recurrence here (`_recurrence_block`) is the scalar one: it serves a
single model, of any degree, over GF(p) or GF(p^2); `search._power_coeffs_vec`
is its vectorized twin for batches of GF(p) models of degree at most 6.
It runs up to p steps and keeps about p values, so it is refused past
`RECURRENCE_CAP` steps: a query that would need more falls back to full
expansion under "auto", where `EXPANSION_CAP` refuses it (CLI exit 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .ff import FieldCtx, FieldElement, inverse_table
from .poly import (
    DensePoly,
    _float_exact,
    _is_rzero,
    _rdot,
    _rinv,
    _rmul,
    _rsub,
    is_squarefree,
    pow_coeffs,
)

ORACLE_MAX_GENUS = 3
ORACLE_MAX_P = 31
# cost guard of `_recurrence_block`, the partner of `poly.EXPANSION_CAP`: a
# query of k steps builds two Python lists of k + 1 entries (the inverse
# table and the coefficients).  For genus 2 at p = 1 048 573, on a 2-core
# Xeon VM: 3.5 s and 157 MB peak over GF(p), 6.3 s and 285 MB over GF(p^2).
# Unbounded, a query near the field bound p < 2^31 takes 2^11 times that:
# hours, and hundreds of GB
RECURRENCE_CAP = 1 << 20
# the crossover of "auto": a power of degree n = m*deg(f) at most this is read
# by full expansion, which is faster there than the recurrence even where the
# recurrence reaches every index.  One genus 1-2 Cartier-Manin query, best of
# 3-5 runs on a 2-core Xeon VM, recurrence / expansion in ms:
#   p       deg  n       GF(p)        GF(p^2)
#   1 009   6    3 024   2.2 / 0.21   5.3 / 0.82
#   10 007  6    30 018  39 / 19      95 / 39
#   11 003  6    33 006  43 / 22      104 / 48
#   20 011  4    40 020  28 / 28      56 / 60
#   30 011  3    45 015  46 / 44      91 / 84
#   30 011  6    90 030  108 / 154    324 / 329
# Expansion takes at most about half the time up to n = 2^15, the two are
# within 10 % from n ~ 40 000, and past that the recurrence's O(p) steps win
EXPAND_MAX_DEGREE = 1 << 15


class RecurrenceUnavailable(ValueError):
    """Raised when the recurrence route cannot produce a requested index."""


class Coefficients(dict):
    """Coefficients of f^m by index, as `power_coeffs` returns them, with the
    route that read them: strategy is "naive" or "recurrence"."""

    def __init__(self, values: dict, strategy: str):
        super().__init__(values)
        self.strategy = strategy


class HyperellipticModel:
    """A smooth affine model y^2 = f(x) with squarefree f of degree >= 3."""

    __slots__ = ("ctx", "f", "genus")

    def __init__(self, ctx: FieldCtx, f: DensePoly):
        if f.ctx != ctx:
            raise ValueError("polynomial context does not match the model context")
        if f.degree < 3:
            raise ValueError(f"deg f = {f.degree} < 3")
        if not is_squarefree(f):
            raise ValueError("singular model: f is not squarefree")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "genus", (f.degree + 1) // 2 - 1)

    def __setattr__(self, name, value):
        raise AttributeError("HyperellipticModel is immutable")

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "HyperellipticModel":
        return cls(ctx, DensePoly.from_ints(ctx, ints))

    def __repr__(self):
        return f"y^2 = [{self.f}] over {self.ctx!r} (genus {self.genus})"


@dataclass(frozen=True)
class CartierData:
    """Cartier-Manin matrix, its semilinear iterate, and the resulting rank."""

    M: tuple
    p: int
    iterate: tuple
    p_rank: int
    strategy: str


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
    if ext == 1:
        c = [0] * d + [pow(raw[0], m, p)]
        for k in range(1, upto + 1):
            top = d + k  # c[top - j] is c_{k-j}
            acc = 0
            for j, (w0, fj) in enumerate(terms, 1):
                acc += (w0 - k) * fj * c[top - j]
            c.append(acc % p * inv[k] % p)
        return c[d:]
    result = (1, 0)
    base, e = raw[0], m
    while e:
        if e & 1:
            result = _rmul(p, nu, ext, result, base)
        base = _rmul(p, nu, ext, base, base)
        e >>= 1
    c = [(0, 0)] * d + [result]
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


def _raw_to_elem(ctx: FieldCtx, raw) -> FieldElement:
    return ctx.from_coords((raw,) if ctx.ext_degree == 1 else raw)


def _recurrence_obstacle(p: int, low: int, top: int, indices) -> str | None:
    """Why the recurrence cannot read these coefficients of f^m = x^low h^m,
    h(0) != 0, top = m*deg(f), or None when it can: every index below low,
    or within p of low or of top and at most RECURRENCE_CAP steps from it."""
    unreachable = [k for k in indices if k - low >= p and top - k >= p]
    if unreachable:
        return f"indices {unreachable} are not within p of either end"
    steps = max(max(k - low, 0) if k - low < p else top - k for k in indices)
    if steps > RECURRENCE_CAP:
        return f"{steps} recurrence steps exceed the cost guard {RECURRENCE_CAP}"
    return None


def power_coeffs(f: DensePoly, m: int, indices, strategy: str = "auto") -> Coefficients:
    """Exact coefficients of f^m at the requested indices.

    strategy "recurrence" writes f = x^v h with h(0) != 0, so that
    f^m = x^(v*m) h^m: an index k < v*m reads 0, k - v*m < p is read from
    the low end of h^m and m*deg(f) - k < p from the high end of f^m, at
    most RECURRENCE_CAP steps from that end, and any other index is refused.
    "auto" uses full expansion for a power of degree m*deg(f) at most
    EXPAND_MAX_DEGREE whose sums `poly._float_exact` keeps exact, where it
    is the faster route; past that it uses the recurrence when every index
    is within its reach, and full expansion otherwise.  The result's
    strategy names the route taken.
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
    ctx = f.ctx
    p = ctx.p
    if strategy == "naive" or m == 0 or f.degree < 1:
        return Coefficients(pow_coeffs(f, m, indices), "naive")
    if strategy == "auto" and top <= EXPAND_MAX_DEGREE and _float_exact(top + 1, p):
        return Coefficients(pow_coeffs(f, m, indices), "naive")
    v = next(i for i, c in enumerate(f.raw()) if not _is_rzero(ctx.ext_degree, c))  # f = x^v h
    low = v * m
    obstacle = _recurrence_obstacle(p, low, top, indices)
    if obstacle is not None:
        if strategy == "recurrence":
            raise RecurrenceUnavailable(obstacle)
        return Coefficients(pow_coeffs(f, m, indices), "naive")

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
            out[k] = _raw_to_elem(ctx, block[k - low])
    if backward:
        block = _recurrence_block(f.reverse(), m, top - backward[0], inv)
        for k in backward:
            out[k] = _raw_to_elem(ctx, block[top - k])
    return Coefficients(out, "recurrence")


# -- exact linear algebra over the scalar field ---------------------------------


def _raw_matrix(M) -> list:
    """The raw residues of a matrix of FieldElements."""
    if M[0][0].ctx.ext_degree == 1:
        return [[x.coords[0] for x in row] for row in M]
    return [[x.coords for x in row] for row in M]


def _elem_matrix(ctx: FieldCtx, T) -> tuple:
    return tuple(tuple(_raw_to_elem(ctx, x) for x in row) for row in T)


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
                rows[r][col:] = [
                    _rsub(p, ext, x, _rmul(p, nu, ext, factor, y))
                    for x, y in zip(rows[r][col:], top)
                ]
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


def semilinear_iterate(M) -> tuple:
    """The product M^(sigma^(g-1)) ... M^(sigma) M for a g x g matrix, with
    sigma the entrywise p-power map, formed on raw residues."""
    ctx = M[0][0].ctx
    return _elem_matrix(ctx, _raw_iterate(ctx, _raw_matrix(M)))


# -- the Cartier-Manin matrix ---------------------------------------------------


def _matrix_entries(C: HyperellipticModel, strategy: str) -> tuple:
    """The Cartier-Manin matrix of C and the strategy that read it."""
    ctx = C.ctx
    p = ctx.p
    g = C.genus
    m = (p - 1) // 2
    top = m * C.f.degree
    wanted = [p * j - i for j in range(1, g + 1) for i in range(1, g + 1)]
    in_range = {k for k in wanted if 0 <= k <= top}
    coeffs = power_coeffs(C.f, m, in_range, strategy)
    zero = ctx.zero
    M = tuple(
        tuple(coeffs.get(p * j - i, zero) for j in range(1, g + 1))
        for i in range(1, g + 1)
    )
    return M, coeffs.strategy


def cartier_matrix(C: HyperellipticModel, strategy: str = "auto") -> CartierData:
    M, used = _matrix_entries(C, strategy)
    ctx = C.ctx
    T = _raw_iterate(ctx, _raw_matrix(M))
    return CartierData(
        M=M, p=ctx.p, iterate=_elem_matrix(ctx, T), p_rank=_raw_rank(ctx, T), strategy=used
    )


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


class _SmallExt:
    """Throwaway GF(p^k) arithmetic for the point-counting oracle, k <= 3."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        if k > 1:
            self.red = self._find_irreducible()

    def _find_irreducible(self):
        # monic degree-k polynomial with no splitting; for k in {2, 3} a
        # root-free scan suffices (any factor would be linear)
        p, k = self.p, self.k
        for tail in itertools.product(range(p), repeat=k):
            coeffs = list(tail)
            if all(
                sum(c * pow(x, i, p) for i, c in enumerate(coeffs + [1])) % p
                for x in range(p)
            ):
                return tuple(coeffs)
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def elements(self):
        if self.k == 1:
            yield from range(self.p)
        else:
            for t in itertools.product(range(self.p), repeat=self.k):
                yield t

    def embed(self, n: int):
        if self.k == 1:
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * self.red[j]
            prod[i] = 0
        return tuple(v % p for v in prod[:k])

    def squares(self):
        seen = set()
        for a in self.elements():
            seen.add(self.mul(a, a))
        return seen


def _count_points(f: DensePoly, ext: _SmallExt) -> int:
    coeffs = [ext.embed(c) for c in f.raw()]  # raw() yields ints over GF(p)
    squares = ext.squares()
    zero = ext.embed(0)
    total = 0
    for x in ext.elements():
        acc = zero
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        if acc == zero:
            total += 1
        elif acc in squares:
            total += 2
    if f.degree % 2 == 1:
        total += 1
    else:
        total += 2 if coeffs[-1] in squares else 0
    return total


def prank_oracle(C: HyperellipticModel) -> int:
    """p-rank from point counts: reconstruct the L-polynomial over GF(p^k),
    k = 1..genus, by Newton's identities and return deg(L mod p)."""
    if C.ctx.ext_degree != 1:
        raise ValueError("oracle requires a prime base field")
    g = C.genus
    p = C.ctx.p
    if g > ORACLE_MAX_GENUS or p > ORACLE_MAX_P:
        raise ValueError(
            f"oracle guard exceeded: genus {g} > {ORACLE_MAX_GENUS} or p {p} > {ORACLE_MAX_P}"
        )
    power_sums = []
    for k in range(1, g + 1):
        n_k = _count_points(C.f, _SmallExt(p, k))
        power_sums.append(p**k + 1 - n_k)
    sigma = [Fraction(1)]
    for k in range(1, g + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * sigma[k - i] * power_sums[i - 1]
        sigma.append(acc / k)
    b = []
    for i in range(g + 1):
        v = (-1) ** i * sigma[i]
        if v.denominator != 1:
            raise RuntimeError("non-integral L-polynomial coefficient")
        b.append(int(v))
    for i in range(g - 1, -1, -1):
        b.append(p ** (g - i) * b[i])
    rank = 0
    for i in range(2 * g, -1, -1):
        if b[i] % p:
            rank = i
            break
    return rank
