"""Shared generators for randomized model tests (seeded by each caller), the
Legendre-curve oracle of the supersingular scan, and the scalar point count
that is the reference of the zeta oracle's array count."""

import itertools

from cmrank.cartier import HyperellipticModel, _find_irreducible, power_coeffs
from cmrank.ff import FieldCtx, FieldElement
from cmrank.poly import DensePoly, is_squarefree


def random_poly(rng, ctx: FieldCtx, deg: int, nonzero_const=False) -> DensePoly:
    while True:
        if ctx.ext_degree == 1:
            raw = [rng.randrange(ctx.p) for _ in range(deg)] + [rng.randrange(1, ctx.p)]
        else:
            raw = [(rng.randrange(ctx.p), rng.randrange(ctx.p)) for _ in range(deg)]
            raw.append((rng.randrange(1, ctx.p), rng.randrange(ctx.p)))
        f = DensePoly(ctx, raw)
        if nonzero_const and f.coeff(0).is_zero:
            continue
        return f


def random_squarefree(rng, ctx: FieldCtx, deg: int, nonzero_const=False) -> DensePoly:
    while True:
        f = random_poly(rng, ctx, deg, nonzero_const=nonzero_const)
        if is_squarefree(f):
            return f


def random_model(rng, ctx: FieldCtx, deg: int) -> HyperellipticModel:
    return HyperellipticModel(ctx, random_squarefree(rng, ctx, deg))


class LegendreCurve:
    """y^2 = x(x-1)(x-lambda) with lambda outside {0, 1}."""

    def __init__(self, lam: FieldElement):
        if lam.is_zero or lam == lam.ctx.one:
            raise ValueError("lambda must avoid 0 and 1")
        self.ctx = ctx = lam.ctx
        self.lam = lam
        self.rhs = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam])

    def model(self) -> HyperellipticModel:
        return HyperellipticModel(self.ctx, self.rhs)


def hasse_invariant(E: LegendreCurve) -> FieldElement:
    """Coefficient c_{p-1} of (x(x-1)(x-lambda))^((p-1)/2), read by
    `power_coeffs`; zero iff E is supersingular."""
    p = E.ctx.p
    return power_coeffs(E.rhs, (p - 1) // 2, {p - 1})[p - 1]


class SmallExt:
    """Scalar GF(p^k) arithmetic, one Python tuple operation per field
    operation, over the modulus `cartier._find_irreducible(p, k)`."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        if k > 1:
            self.red = _find_irreducible(p, k)

    def elements(self):
        if self.k == 1:
            yield from range(self.p)
        else:
            yield from itertools.product(range(self.p), repeat=self.k)

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
        return {self.mul(a, a) for a in self.elements()}


def count_points_scalar(f: DensePoly, k: int) -> int:
    """Points of y^2 = f(x) over GF(p^k), infinity included, one element at a
    time: the reference of `cartier._count_points`."""
    ext = SmallExt(f.ctx.p, k)
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
