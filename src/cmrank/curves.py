"""Elliptic-curve layer: Legendre models, the Hasse invariant, enumeration of
supersingular lambda values in GF(p^2), and the characteristic-3 quartic test."""

from __future__ import annotations

from math import comb

import numpy as np

from .cartier import HyperellipticModel, power_coeffs
from .ff import FieldElement, field
from .poly import DensePoly, is_squarefree

# the vectorized scan keeps about ten int64 arrays of p^2 entries alive at
# once, about 330 MB at p = 2^11; larger p is refused before allocating
SS_LAMBDAS_MAX_P = 1 << 11


class LegendreCurve:
    """y^2 = x(x-1)(x-lambda) with lambda outside {0, 1}."""

    __slots__ = ("ctx", "lam")

    def __init__(self, lam: FieldElement):
        if lam.is_zero or lam == lam.ctx.one:
            raise ValueError("lambda must avoid 0 and 1")
        object.__setattr__(self, "ctx", lam.ctx)
        object.__setattr__(self, "lam", lam)

    def __setattr__(self, name, value):
        raise AttributeError("LegendreCurve is immutable")

    @property
    def rhs(self) -> DensePoly:
        ctx = self.ctx
        return DensePoly.from_roots(ctx, [ctx.zero, ctx.one, self.lam])

    def model(self) -> HyperellipticModel:
        return HyperellipticModel(self.ctx, self.rhs)

    def __repr__(self):
        return f"y^2 = x(x-1)(x-{self.lam}) over {self.ctx!r}"


def hasse_invariant(E: LegendreCurve) -> FieldElement:
    """Coefficient c_{p-1} of (x(x-1)(x-lambda))^((p-1)/2); zero iff supersingular."""
    p = E.ctx.p
    return power_coeffs(E.rhs, (p - 1) // 2, {p - 1})[p - 1]


def _hasse_poly_in_lambda(p: int) -> DensePoly:
    """c_{p-1} of (x(x-1)(x-T))^((p-1)/2) as a polynomial in T over GF(p).

    Writing f = x * (x-1) * (x-T), the wanted coefficient is the x^m
    coefficient of ((x-1)(x-T))^m with m = (p-1)/2, and the T^k part of it
    is P_k * P_{m-k} with P = (x-1)^m, that is (-1)^m binom(m, k)^2.
    """
    m = (p - 1) // 2
    sign = (-1) ** m
    return DensePoly.from_ints(field(p), [sign * comb(m, k) ** 2 for k in range(m + 1)])


def supersingular_lambdas(p: int) -> list:
    """All lambda in GF(p^2) - {0, 1} with vanishing Hasse invariant, ordered
    lexicographically by coordinates.  Exhaustive scan of the extension,
    guarded to p <= SS_LAMBDAS_MAX_P."""
    if p > SS_LAMBDAS_MAX_P:
        raise ValueError(f"p = {p} exceeds the supersingular scan bound {SS_LAMBDAS_MAX_P}")
    ctx2 = field(p, 2)
    H = _hasse_poly_in_lambda(p)
    # vectorized Horner over the (a, b) grid of GF(p^2)
    nu = ctx2.nu
    a = np.repeat(np.arange(p, dtype=np.int64), p)
    b = np.tile(np.arange(p, dtype=np.int64), p)
    acc_x = np.zeros_like(a)
    acc_y = np.zeros_like(a)
    for k in range(H.degree, -1, -1):
        hx = H.raw()[k]
        nx = (acc_x * a + nu * acc_y * b + hx) % p
        ny = (acc_x * b + acc_y * a) % p
        acc_x, acc_y = nx, ny
    hits = np.flatnonzero((acc_x == 0) & (acc_y == 0))
    out = []
    for idx in hits:
        lam = ctx2.from_coords((int(a[idx]), int(b[idx])))
        if lam.is_zero or lam == ctx2.one:
            continue
        out.append(lam)
    return out


def quartic_hasse_char3(f: DensePoly) -> FieldElement:
    """Characteristic-3 shortcut: the Hasse invariant of y^2 = quartic is the
    x^2 coefficient."""
    if f.ctx.p != 3:
        raise ValueError("quartic criterion only applies in characteristic 3")
    if f.degree != 4:
        raise ValueError(f"expected a quartic, got degree {f.degree}")
    if not is_squarefree(f):
        raise ValueError("singular model: quartic is not squarefree")
    return f.coeff(2)
