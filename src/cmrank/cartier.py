"""Cartier-Manin matrices of hyperelliptic models y^2 = f(x) and the p-rank.

The matrix entry M[i][j] (1-indexed) is the coefficient c_{p*j - i} of
f^((p-1)/2); the p-rank is the rank of the g-fold semilinear iterate
M^(sigma^(g-1)) ... M^(sigma) M, with sigma the entrywise p-power map.
Coefficient extraction has two routes: full expansion of f^((p-1)/2)
(naive) and a linear recurrence that reaches any index within p of either
end of the coefficient range in O(p) field operations.  An independent
zeta-function oracle computes the p-rank from point counts so the two
routes can be checked against each other.

Full expansion (`poly.pow_coeffs`) never forms f^m: it squares coordinate
arrays up to A = f^(m//2), sets B = A or A*f, and takes each wanted c_k as
the dot product of A_i and B_(k-i), with three convolutions per GF(p^2)
product.  The arrays are int64 for p < 2^19, where every sum of at most
2^24 products of residues stays below 2^62, and Python ints above.  The
quadratic cost is bounded by refusing powers of degree m*deg(f) above
`poly.EXPANSION_CAP` = 2^17 with a ValueError (CLI exit 2) before any array
is built.  Genus >= 3 models reach it from p ~ 37 000 (degree 7) or
p ~ 18 700 (degree 14), since their middle entries are out of the
recurrence's reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .ff import FieldCtx, FieldElement
from .poly import DensePoly, _rinv, _rmul, is_squarefree, pow_coeffs

ORACLE_MAX_GENUS = 3
ORACLE_MAX_P = 31


class RecurrenceUnavailable(ValueError):
    """Raised when the recurrence route cannot produce a requested index."""


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


def _recurrence_block(f: DensePoly, m: int, upto: int) -> list:
    """Raw coefficients c_0..c_upto of f^m, assuming f(0) != 0 and upto < p."""
    ctx = f.ctx
    p, nu, ext = ctx.p, ctx.nu, ctx.ext_degree
    d = f.degree
    raw = f.raw()
    if ext == 1:
        f0 = raw[0]
        c = [pow(f0, m, p)]
        f0_inv = pow(f0, p - 2, p)
        for k in range(1, upto + 1):
            acc = 0
            for j in range(1, min(d, k) + 1):
                w = ((m + 1) * j - k) % p
                if w:
                    acc += w * raw[j] * c[k - j]
            c.append(acc % p * pow(k, p - 2, p) % p * f0_inv % p)
        return c
    f0 = raw[0]
    result = (1, 0)
    base, e = f0, m
    while e:
        if e & 1:
            result = _rmul(p, nu, ext, result, base)
        base = _rmul(p, nu, ext, base, base)
        e >>= 1
    c = [result]
    f0_inv = _rinv(p, nu, ext, f0)
    for k in range(1, upto + 1):
        a0 = a1 = 0
        for j in range(1, min(d, k) + 1):
            w = ((m + 1) * j - k) % p
            if w:
                fj = raw[j]
                ck = c[k - j]
                a0 += w * (fj[0] * ck[0] + nu * fj[1] * ck[1])
                a1 += w * (fj[0] * ck[1] + fj[1] * ck[0])
        kinv = pow(k, p - 2, p)
        s = (a0 % p * kinv % p, a1 % p * kinv % p)
        c.append(_rmul(p, nu, ext, s, f0_inv))
    return c


def _raw_to_elem(ctx: FieldCtx, raw) -> FieldElement:
    return ctx.from_coords((raw,) if ctx.ext_degree == 1 else raw)


def power_coeffs(f: DensePoly, m: int, indices, strategy: str = "auto") -> dict:
    """Exact coefficients of f^m at the requested indices.

    strategy "recurrence" requires f(0) != 0 and every index within p of an
    end of the range [0, m*deg(f)]; "auto" uses the recurrence when those
    preconditions hold and falls back to full expansion otherwise.
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
        return {}
    if strategy == "naive" or m == 0 or f.degree < 1:
        return pow_coeffs(f, m, indices)

    ctx = f.ctx
    p = ctx.p
    forward = [k for k in indices if k < p]
    backward = [k for k in indices if k >= p and top - k < p]
    unreachable = [k for k in indices if k >= p and top - k >= p]
    if unreachable or f.coeff(0).is_zero:
        if strategy == "recurrence":
            if unreachable:
                raise RecurrenceUnavailable(
                    f"indices {unreachable} are not within p of either end"
                )
            raise RecurrenceUnavailable("f(0) = 0")
        return pow_coeffs(f, m, indices)

    out = {}
    if forward:
        block = _recurrence_block(f, m, max(forward))
        for k in forward:
            out[k] = _raw_to_elem(ctx, block[k])
    if backward:
        block = _recurrence_block(f.reverse(), m, max(top - k for k in backward))
        for k in backward:
            out[k] = _raw_to_elem(ctx, block[top - k])
    return out


# -- exact linear algebra over the scalar field ---------------------------------


def matrix_rank(M) -> int:
    """Rank by Gaussian elimination over the exact field."""
    rows = [list(r) for r in M]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(rows)):
            if not rows[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = rows[row][col].inverse()
        rows[row] = [x * inv for x in rows[row]]
        for r in range(len(rows)):
            if r != row and not rows[r][col].is_zero:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[row])]
        row += 1
        rank += 1
        if row == len(rows):
            break
    return rank


def _mat_mul(A, B):
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


def semilinear_iterate(M) -> tuple:
    """The product M^(sigma^(g-1)) ... M^(sigma) M for a g x g matrix."""
    g = len(M)
    T = M
    F = M
    for _ in range(1, g):
        F = _mat_frob(F)
        T = _mat_mul(F, T)
    return T


# -- the Cartier-Manin matrix ---------------------------------------------------


def cartier_matrix(C: HyperellipticModel, strategy: str = "auto") -> CartierData:
    ctx = C.ctx
    p = ctx.p
    g = C.genus
    m = (p - 1) // 2
    top = m * C.f.degree
    wanted = [p * j - i for j in range(1, g + 1) for i in range(1, g + 1)]
    in_range = {k for k in wanted if 0 <= k <= top}
    used = strategy
    if strategy == "auto":
        try:
            coeffs = power_coeffs(C.f, m, in_range, "recurrence")
            used = "recurrence"
        except RecurrenceUnavailable:
            coeffs = power_coeffs(C.f, m, in_range, "naive")
            used = "naive"
    else:
        coeffs = power_coeffs(C.f, m, in_range, strategy)
    zero = ctx.zero
    M = tuple(
        tuple(coeffs.get(p * j - i, zero) for j in range(1, g + 1))
        for i in range(1, g + 1)
    )
    T = semilinear_iterate(M)
    return CartierData(M=M, p=p, iterate=T, p_rank=matrix_rank(T), strategy=used)


def p_rank(C: HyperellipticModel) -> int:
    """Rank of the semilinear iterate; invariant under x -> x+s and f -> c*f."""
    f = C.f
    # a shift makes the recurrence route available without changing the rank
    if f.coeff(0).is_zero and C.genus <= 2:
        for s in C.ctx.elements():
            if not f.evaluate(s).is_zero:
                f = f.compose_linear(s)
                break
        C = HyperellipticModel(C.ctx, f)
    return cartier_matrix(C).p_rank


def is_superspecial(C: HyperellipticModel) -> bool:
    """True iff the Cartier-Manin matrix vanishes identically."""
    data = cartier_matrix(C)
    return all(x.is_zero for row in data.M for x in row)


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
