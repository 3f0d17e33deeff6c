"""Fiber-product double covers and their quotient decomposition.

A (Z/2)^2-cover built from two hyperelliptic right-hand sides f1, f2 has
three intermediate quotients, with model polynomials f1, f2 and the
squarefree part f3 of f1*f2; genus and p-rank add across the quotients.
This module also builds the explicit families with controlled p-rank:
z^2 = x^n - t^n, the Moebius-transported branch configurations, the
x(x^{n-1}-1) family, the characteristic-3 genus-3 witness, and the
supersingular genus-2 pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .cartier import HyperellipticModel, p_rank
from .curves import supersingular_lambdas
from .ff import FieldCtx, FieldElement, field, is_prime
from .poly import DensePoly, is_squarefree, poly_gcd


def _genus_of_degree(d: int) -> int:
    return (d + 1) // 2 - 1


@dataclass(frozen=True)
class QuotientTriple:
    """The three quotient models of a fiber-product double cover."""

    fE: DensePoly
    f2: DensePoly
    f3: DensePoly
    genera: tuple
    genus_total: int
    prank_total: int | None = None


def kani_rosen_triple(f1: DensePoly, f2: DensePoly) -> QuotientTriple:
    """Quotient data for the normalized fiber product of y^2 = f1 and z^2 = f2."""
    if f1.ctx != f2.ctx:
        raise ValueError("context mismatch between the two covers")
    for f in (f1, f2):
        if f.degree < 3:
            raise ValueError(f"deg {f.degree} < 3: quotient would not be a curve model")
        if not is_squarefree(f):
            raise ValueError("singular input model")
    g = poly_gcd(f1, f2)
    f3 = (f1 // g) * (f2 // g)
    if f3.degree == 0:
        raise ValueError("f1*f2 is a perfect square: the cover is disconnected")
    genera = (
        _genus_of_degree(f1.degree),
        _genus_of_degree(f2.degree),
        _genus_of_degree(f3.degree),
    )
    return QuotientTriple(
        fE=f1, f2=f2, f3=f3, genera=genera, genus_total=sum(genera)
    )


def component_p_rank(f: DensePoly) -> int:
    """p-rank of the quotient with model polynomial f (zero for genus 0)."""
    if _genus_of_degree(f.degree) == 0:
        return 0
    return p_rank(HyperellipticModel(f.ctx, f))


def triple_with_pranks(f1: DensePoly, f2: DensePoly) -> QuotientTriple:
    t = kani_rosen_triple(f1, f2)
    return replace(t, prank_total=sum(component_p_rank(f) for f in (t.fE, t.f2, t.f3)))


def prank_fiber_product(f1: DensePoly, f2: DensePoly):
    """(genus, p-rank) of the normalized fiber product, via the quotients."""
    t = triple_with_pranks(f1, f2)
    return t.genus_total, t.prank_total


# -- the explicit families -------------------------------------------------------


def family_xn_tn(n: int, t: FieldElement) -> HyperellipticModel:
    """The model z^2 = x^n - t^n."""
    ctx = t.ctx
    if n < 3:
        raise ValueError("n >= 3 required")
    if n % ctx.p == 0:
        raise ValueError(f"p = {ctx.p} divides n = {n}")
    if t.is_zero:
        raise ValueError("t must be nonzero")
    f = DensePoly.from_elements(
        ctx, [-(t**n)] + [ctx.zero] * (n - 1) + [ctx.one]
    )
    return HyperellipticModel(ctx, f)


@lru_cache(maxsize=256)
def primitive_root_of_unity(ctx: FieldCtx, order: int) -> FieldElement:
    """First element of exact multiplicative order `order`, scanning the
    deterministic element ordering: a^order = 1 and a^(order/r) != 1 for
    every prime r dividing order."""
    if (ctx.order - 1) % order != 0:
        raise ValueError(f"GF({ctx.order}) has no element of order {order}")
    cofactors = [order // r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
    one = ctx.one
    for a in ctx.elements():
        if a.is_zero:
            continue
        if a**order == one and all(a**e != one for e in cofactors):
            return a
    raise ValueError(f"no element of order {order} found")  # unreachable


def prop44_case2_points(n: int, lam: FieldElement) -> list:
    """Branch points x_i = L(zeta^(i+2)), i = 1..n, where zeta is a fixed
    primitive (n+3)-rd root of unity in GF(p^2) and L is the Moebius map
    carrying (1, zeta, zeta^2) to (0, 1, lambda).  The third quotient has
    branch locus L(mu_(n+3)), so it is a twist of w^2 = x^(n+3) - 1 and is
    superspecial whenever p = -1 (mod n+3).

    The construction moves zeta^(i+2) t by the map L_t carrying
    (t, zeta t, zeta^2 t) to (0, 1, lambda); L_t composed with x -> t x
    carries (1, zeta, zeta^2) there too, so it is L and t drops out.  In
    closed form L = S^-1 T, with T(z) = zeta (1 - z) / (z - zeta^2) sending
    (1, zeta, zeta^2) to (0, 1, oo) and S^-1(c) = lambda c / (c + lambda - 1).
    L is a bijection of the projective line, so the points are distinct and
    avoid {0, 1, lambda}; the construction fails only when some
    T(zeta^(i+2)) = 1 - lambda sends a point to infinity, which happens for
    exactly n values of lambda."""
    if n % 2 == 0 or n < 1:
        raise ValueError("n must be odd and positive")
    ctx = lam.ctx
    p = ctx.p
    if (n + 3) % p == 0:
        raise ValueError(f"p = {p} divides n + 3")
    if p % (n + 3) != n + 2:
        raise ValueError(f"p = {p} is not -1 mod {n + 3}")
    if lam.is_zero or lam == ctx.one:
        raise ValueError("lambda must avoid 0 and 1")
    if ctx.ext_degree != 2:
        raise ValueError("points live in GF(p^2); pass elements of the extension")
    zeta = primitive_root_of_unity(ctx, n + 3)
    zeta2 = zeta * zeta
    xs = []
    for k in range(3, n + 3):
        zk = zeta**k
        c = zeta * (ctx.one - zk) / (zk - zeta2)
        den = c + lam - ctx.one
        if den.is_zero:
            raise ValueError("lambda sends a branch point to infinity; choose another lambda")
        xs.append(lam * c / den)
    return xs


def prop45_models(n: int, lam: FieldElement):
    """The two non-elliptic quotients of the fiber product of
    y^2 = x(x-1)(x-lambda) and z^2 = x(x^(n-1) - 1):
    D1: z^2 = x^n - x and D2: w^2 = (x-lambda)(x^(n-2) + ... + 1).
    For n = 3 the second quotient has genus 0 and None is returned for it."""
    ctx = lam.ctx
    p = ctx.p
    if n < 3:
        raise ValueError("n >= 3 required: smaller n degenerates both quotients")
    if (2 * (n - 1)) % p == 0:
        raise ValueError(f"p = {p} divides 2(n-1)")
    if lam.is_zero or lam == ctx.one:
        raise ValueError("lambda must avoid 0 and 1")
    if lam ** (n - 1) == ctx.one:
        raise ValueError("lambda is a root of x^(n-1) - 1; branch loci collide")
    f1 = DensePoly.from_ints(ctx, [0, -1] + [0] * (n - 2) + [1])  # x^n - x
    d1 = HyperellipticModel(ctx, f1)
    cyclotomic_sum = DensePoly.from_ints(ctx, [1] * (n - 1))
    f2 = DensePoly.from_elements(ctx, [-lam, ctx.one]) * cyclotomic_sum
    if f2.degree < 3:
        return d1, None
    return d1, HyperellipticModel(ctx, f2)


def char3_genus3_witness() -> QuotientTriple:
    """The explicit genus-3 double cover of the supersingular elliptic curve in
    characteristic 3, with total 3-rank 0: quotients
    y^2 = x^4 + x^3 + x, z^2 = x^4 + 2i x^3 + i x,
    w^2 = x^4 + (i+2) x^3 + (2i+2) x + 1 over GF(9)."""
    ctx = field(3, 2)
    fE = DensePoly.from_ints(ctx, [0, 1, 0, 1, 1])
    f2 = DensePoly(ctx, [(0, 0), (0, 1), (0, 0), (0, 2), (1, 0)])
    expected_f3 = DensePoly(ctx, [(1, 0), (2, 2), (0, 0), (2, 1), (1, 0)])
    t = triple_with_pranks(fE, f2)
    if t.f3 != expected_f3:
        raise RuntimeError("third quotient does not match the expected quartic")
    return t


def genus2_supersingular_pair(p: int) -> QuotientTriple:
    """A genus-2 cover of p-rank 0 from two distinct supersingular lambda values."""
    if p <= 3:
        raise ValueError("requires p > 3 (characteristic 3 has a single supersingular lambda)")
    lams = supersingular_lambdas(p)
    if len(lams) < 2:
        raise ValueError(f"fewer than two supersingular lambda values for p = {p}")
    ctx = lams[0].ctx
    lam, lam2 = lams[0], lams[1]
    f1 = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam])
    f2 = DensePoly.from_roots(ctx, [ctx.zero, ctx.one, lam2])
    t = triple_with_pranks(f1, f2)
    if t.prank_total != 0:
        raise RuntimeError("supersingular pair produced nonzero total p-rank")
    return t
