"""Elliptic-curve layer: enumeration of the supersingular Legendre parameters
lambda in GF(p^2), and the characteristic-3 quartic test.

The Legendre curve y^2 = x(x-1)(x-lambda) is supersingular iff its Hasse
invariant, the x^(p-1) coefficient of (x(x-1)(x-lambda))^((p-1)/2), vanishes;
`_hasse_poly_in_lambda` gives that coefficient in closed form as a
polynomial in lambda, and the scan evaluates it over all of GF(p^2).

The supersingular lambdas of a prime are scanned once per process: the scan
is memoised per p, and every call of `supersingular_lambdas` returns a fresh
list copied from the memo.  The memo holds at most (p-1)/2 lambdas for each
prime p <= SS_LAMBDAS_MAX_P that was asked for; larger p is refused before
anything is built or cached."""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .ff import FieldElement, field
from .poly import DensePoly, is_squarefree

# the vectorized scan keeps about ten int64 arrays of p^2 entries alive at
# once, about 330 MB at p = 2^11; larger p is refused before allocating
SS_LAMBDAS_MAX_P = 1 << 11


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
    lexicographically by coordinates, as a new list on every call.  The
    exhaustive scan of the extension runs once per p in a process and is
    guarded to p <= SS_LAMBDAS_MAX_P; the memo keeps at most (p-1)/2
    lambdas per prime, the degree of the Hasse polynomial."""
    if p > SS_LAMBDAS_MAX_P:
        raise ValueError(f"p = {p} exceeds the supersingular scan bound {SS_LAMBDAS_MAX_P}")
    return list(_scan_supersingular(p))


@lru_cache(maxsize=None)
def _scan_supersingular(p: int) -> tuple:
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
    return tuple(out)


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
