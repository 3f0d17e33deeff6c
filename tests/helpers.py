"""Shared generators for randomized model tests (seeded by each caller), and
the Legendre-curve oracle of the supersingular scan."""

from cmrank.cartier import HyperellipticModel, power_coeffs
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
