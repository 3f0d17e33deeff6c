"""Dense univariate polynomials over a FieldCtx.

Coefficients are stored low-to-high as raw residues (an int for GF(p), an
(a, b) pair for GF(p^2)), the form a FieldElement holds, in canonical form:
the top coefficient is nonzero and the zero polynomial is the empty tuple.
Scalar arithmetic on them uses `ff`'s formulas, and `coeff` wraps one as a
FieldElement without conversion.  Products switch to an exact numpy
convolution once operands are long enough for it to pay.

`pow_coeffs` reads single coefficients of a power without forming it: it
keeps the polynomial as int64 coordinate arrays, squares up to f^(m//2), and
reads every set of indices, one or a whole matrix, by one int64 correlation
per run of consecutive indices and array.  Over GF(p^2) a direct square
takes two convolutions and any other product three (`_arrays_mul`).

Every direct numpy convolution goes through `_convolve`, which runs it in
float64 (numpy convolves float64 through its SIMD dot kernel, int64 in a
scalar loop, about 4x slower) on int64 arrays, and is called only where
that is exact (`_FLOAT_EXACT`, which states the argument): past that bound
a product falls back to a schoolbook loop over Python ints, and
`pow_coeffs` refuses the power.  Its read runs in int64 under the same
bound; numpy correlates int64 without BLAS.  That refusal, a negative
exponent and `DEGREE_CAP` are the only ones `pow_coeffs` makes: they are
its arithmetic preconditions.
Whether a power is worth expanding at all, its cost guard and the choice
between expansion and the coefficient recurrence, is Cartier-Manin policy
and lives in `cartier._route`.

The squarings and products of `pow_coeffs` whose shorter operand has at
least `_FFT_MIN_LEN` terms take an O(n log n) route instead (`_fft_mul`):
a real FFT of length N = 2^k, a pointwise product, the inverse transform
and `np.rint`.  It is taken only where Percival's bound on the rounding
error of an FFT product stays below 1/16 (`_fft_exact`, which states it),
so every rounded value is the exact integer; a tripwire redoes a product by
`_convolve` if any value lies more than 1/8 from an integer.  `DensePoly`
products never take it, so `poly_pow_naive` shares no code with it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .ff import (
    FieldCtx,
    FieldElement,
    _is_rzero,
    _radd,
    _rinv,
    _rmul,
    _rneg,
    _rrow_sub,
    _rsmall,
    _rzero,
)

DEGREE_CAP = 1 << 24
_NUMPY_MIN_LEN = 32
# the one exactness bound of the numpy routes.  When no output sums more than
# `terms` products of residues, each product and every partial sum, in any
# order and with or without FMA, is a non-negative integer at most
# terms * (p-1)^2: float64 convolutions are exact while that is below 2^53,
# and the int64 arrays, reductions and correlations around them hold it.
# Karatsuba's cross term and the GF(p^2) square's (a0+a1)(a0+nu a1) reduce
# their operands mod p first, so those are residues too.  A power of degree n
# sums at most n + 1 products per output, and `pow_coeffs` refuses one past
# this bound.  No Cartier-Manin expansion reaches it: `cartier._route`
# refuses their powers past its cost guard before `pow_coeffs` is called,
# and an assert next to that guard keeps every admitted one below the bound
_FLOAT_EXACT = 1 << 53


def _float_exact(terms, p):
    return terms * (p - 1) ** 2 < _FLOAT_EXACT


# crossover of the FFT route: a square or product whose shorter operand has
# fewer terms is convolved directly.  A square of random residues mod 1009,
# direct / FFT in us, median of five best-of-5 runs on a 2-core Xeon VM:
#   length  GF(p)      GF(p^2)
#   300     20 / 31    49 / 57
#   400     27 / 32    68 / 62
#   450     33 / 33    79 / 66
#   512     42 / 33    96 / 70
#   513     42 / 45    95 / 98    (N doubles to 2048)
#   600     54 / 46    116 / 102
#   1 000   115 / 50   276 / 119
#   1 500   215 / 81   519 / 203
_FFT_MIN_LEN = 450
# rounding bound of the FFT route.  Percival ("Rapid multiplication modulo
# the sum and difference of highly composite numbers", 2003, Theorem 5.1;
# compare Higham, Accuracy and Stability of Numerical Algorithms, 24.1)
# bounds the error of z = x * y computed by FFTs of length N = 2^k in
# float64, with unit roundoff e = 2^-53 and twiddle factors within b of
# their exact values, by
#   |z' - z|_inf <= |x|_2 |y|_2 ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1),
# which for b <= e is B(k) |x|_2 |y|_2 with B(k) = (6k + (3k+1) sqrt5) e to
# first order (the rest is below 10^-13 of it for any k <= 64).  Residues
# below p give |x|_2 |y|_2 <= (p-1)^2 sqrt(la lb), and a product is admitted
# when B(k) (p-1)^2 sqrt(la lb) <= _FFT_ADMIT = 1/16.  Every value then lies
# within 1/16 of the exact integer, so `np.rint` returns it.  The theorem
# treats a radix-2 complex transform; numpy's pocketfft is mixed-radix and
# real, and the factor 8 between 1/16 and the 1/2 that rounding tolerates is
# the margin for that.  The tripwire `_FFT_TRIPWIRE` = 1/8 checks it on
# every product: a larger distance to the nearest integer redoes the product
# directly.  An admitted product's exact values are at most
# min(la, lb) (p-1)^2 <= _FFT_ADMIT / B(k) <= _FFT_ADMIT / B(1), below 2^53,
# so they are float64 integers, and int64 holds them
_FFT_ADMIT = 1 / 16
_FFT_TRIPWIRE = 1 / 8
assert _FFT_ADMIT < _FFT_TRIPWIRE < 1 / 2
assert _FFT_ADMIT / ((6 + 4 * math.sqrt(5)) * 2.0**-53) < _FLOAT_EXACT


def _fft_exact(la, lb, p):
    """Whether the rounding bound above admits an FFT product of residue
    arrays of lengths la and lb."""
    k = (la + lb - 2).bit_length()  # N = 2^k >= la + lb - 1
    error = (6 * k + (3 * k + 1) * math.sqrt(5)) * 2.0**-53
    return error * (p - 1) ** 2 * math.sqrt(la * lb) <= _FFT_ADMIT


def _fft_mul(a, b, p, nu):
    """`_arrays_mul` by real FFTs, for operands that `_fft_exact` admits; None
    when the tripwire finds a value more than `_FFT_TRIPWIRE` from an integer.

    Each coordinate array gets one spectrum, which a square reuses; each
    product of two coordinate arrays is one inverse transform.  Over GF(p^2)
    a square takes a0^2, a1^2 and a0 a1, and a product the four a_i b_j, all
    of residues, so the bound covers each.  numpy.fft is reached through
    `np.fft` at call time: a process that never multiplies past the
    crossover does not import it."""
    fft = np.fft
    n = len(a[0]) + len(b[0]) - 1
    size = 1 << (n - 1).bit_length()
    sa = fft.rfft(np.array(a, dtype=np.float64), size)
    if a is b:
        sb = sa
        i, j = ([0], [0]) if len(a) == 1 else ([0, 1, 0], [0, 1, 1])
    else:
        sb = fft.rfft(np.array(b, dtype=np.float64), size)
        i, j = ([0], [0]) if len(a) == 1 else ([0, 1, 0, 1], [0, 1, 1, 0])
    z = fft.irfft(sa[i] * sb[j], size)[:, :n]
    r = np.rint(z)
    if np.abs(z - r).max() > _FFT_TRIPWIRE:
        return None
    q = r.astype(np.int64) % p
    if len(a) == 1:
        return (q[0],)
    if a is b:
        return ((q[0] + nu * q[1]) % p, 2 * q[2] % p)
    return ((q[0] + nu * q[1]) % p, (q[2] + q[3]) % p)


def _convolve(a, b):
    """np.convolve of int64 residue arrays, not reduced, run in float64;
    callers keep it exact by `_float_exact`.  The result is int64."""
    return np.convolve(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)


def _conv_int(a, b, p):
    """Exact convolution of residue lists mod p."""
    la, lb = len(a), len(b)
    if min(la, lb) >= _NUMPY_MIN_LEN and _float_exact(min(la, lb), p):
        out = _convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        return (out % p).tolist()
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [v % p for v in out]


def _raw_mul(ctx: FieldCtx, a, b):
    if not a or not b:
        return []
    p = ctx.p
    if ctx.ext_degree == 1:
        return _conv_int(a, b, p)
    a0 = [x[0] for x in a]
    a1 = [x[1] for x in a]
    b0 = [x[0] for x in b]
    b1 = [x[1] for x in b]
    nu = ctx.nu
    q00 = _conv_int(a0, b0, p)
    q11 = _conv_int(a1, b1, p)
    q01 = _conv_int(a0, b1, p)
    q10 = _conv_int(a1, b0, p)
    return [
        ((q00[i] + nu * q11[i]) % p, (q01[i] + q10[i]) % p) for i in range(len(q00))
    ]


def _power_degree(f, m: int) -> int:
    """The degree m*deg(f) of f^m, refusing a negative m and a power whose
    degree reaches DEGREE_CAP."""
    if m < 0:
        raise ValueError("negative polynomial power")
    n = m * f.degree
    if n >= DEGREE_CAP:
        raise ValueError(f"degree {n} of the power exceeds the cap {DEGREE_CAP}")
    return n


class DensePoly:
    """Immutable dense polynomial; index = degree of the monomial."""

    __slots__ = ("ctx", "_c")

    def __init__(self, ctx: FieldCtx, raw_coeffs):
        coeffs = list(raw_coeffs)
        while coeffs and _is_rzero(ctx.ext_degree, coeffs[-1]):
            coeffs.pop()
        if len(coeffs) > DEGREE_CAP:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds the cap {DEGREE_CAP}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_c", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("DensePoly is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "DensePoly":
        return cls(ctx, [_rsmall(ctx.p, ctx.ext_degree, n) for n in ints])

    @classmethod
    def from_elements(cls, ctx: FieldCtx, elems) -> "DensePoly":
        return cls(ctx, [ctx.embed(e).raw for e in elems])

    @classmethod
    def from_roots(cls, ctx: FieldCtx, roots) -> "DensePoly":
        """The monic polynomial with the given roots (with multiplicity)."""
        f = cls.one(ctx)
        for r in roots:
            r = ctx.embed(r)
            f = f * cls.from_elements(ctx, [-r, ctx.one])
        return f

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "DensePoly":
        return cls(ctx, [])

    @classmethod
    def one(cls, ctx: FieldCtx) -> "DensePoly":
        return cls(ctx, [_rsmall(ctx.p, ctx.ext_degree, 1)])

    # -- inspection ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < len(self._c):
            return FieldElement(self.ctx, self._c[i])
        return self.ctx.zero

    def raw(self) -> tuple:
        return self._c

    def __eq__(self, other):
        return (
            isinstance(other, DensePoly)
            and self.ctx == other.ctx
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.ctx, self._c))

    def __str__(self):
        if self.is_zero:
            return "0"
        return ",".join(str(self.coeff(i)) for i in range(len(self._c)))

    def __repr__(self):
        return f"DensePoly({self.ctx!r}, [{self}])"

    def _check(self, other: "DensePoly"):
        if not isinstance(other, DensePoly):
            raise TypeError(f"expected DensePoly, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        p, ext = self.ctx.p, self.ctx.ext_degree
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = _radd(p, ext, out[i], x)
        return DensePoly(self.ctx, out)

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __neg__(self):
        p, ext = self.ctx.p, self.ctx.ext_degree
        return DensePoly(self.ctx, [_rneg(p, ext, x) for x in self._c])

    def __mul__(self, other):
        self._check(other)
        return DensePoly(self.ctx, _raw_mul(self.ctx, self._c, other._c))

    def scale(self, c: FieldElement) -> "DensePoly":
        raw = self.ctx.embed(c).raw
        p, nu, ext = self.ctx.p, self.ctx.nu, self.ctx.ext_degree
        return DensePoly(self.ctx, [_rmul(p, nu, ext, x, raw) for x in self._c])

    def __pow__(self, m: int):
        # every intermediate power has degree at most m * degree, so this one
        # check keeps the products below the constructor's cap
        _power_degree(self, m)
        result = DensePoly.one(self.ctx)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base if m > 1 else base
            m >>= 1
        return result

    def shift_x(self, k: int) -> "DensePoly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        pad = [_rzero(self.ctx.ext_degree)] * k
        return DensePoly(self.ctx, pad + list(self._c))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        return tuple(DensePoly(self.ctx, r) for r in _raw_divmod(self.ctx, self._c, other._c))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "DensePoly":
        if self.is_zero:
            return self
        p, nu, ext = self.ctx.p, self.ctx.nu, self.ctx.ext_degree
        inv = _rinv(p, nu, ext, self._c[-1])
        return DensePoly(self.ctx, [_rmul(p, nu, ext, x, inv) for x in self._c])

    def derivative(self) -> "DensePoly":
        p, nu, ext = self.ctx.p, self.ctx.nu, self.ctx.ext_degree
        c = self._c
        return DensePoly(
            self.ctx, [_rmul(p, nu, ext, _rsmall(p, ext, i), c[i]) for i in range(1, len(c))]
        )

    def reverse(self) -> "DensePoly":
        """x^deg * f(1/x); used for coefficient extraction near the top degree."""
        return DensePoly(self.ctx, list(reversed(self._c)))

    def evaluate(self, a: FieldElement) -> FieldElement:
        """Horner evaluation at a point of this field or its quadratic extension."""
        actx = a.ctx
        if actx.p != self.ctx.p:
            raise ValueError("incompatible characteristics")
        if actx.ext_degree < self.ctx.ext_degree:
            raise ValueError("evaluation point lies in a smaller field than the coefficients")
        acc = actx.zero
        for i in range(len(self._c) - 1, -1, -1):
            acc = acc * a + actx.embed(self.coeff(i))
        return acc

    def compose_linear(self, s: FieldElement) -> "DensePoly":
        """The substituted polynomial f(x + s)."""
        s = self.ctx.embed(s)
        xs = DensePoly.from_elements(self.ctx, [s, self.ctx.one])
        acc = DensePoly.zero(self.ctx)
        for i in range(len(self._c) - 1, -1, -1):
            acc = acc * xs + DensePoly.from_elements(self.ctx, [self.coeff(i)])
        return acc


# -- module-level operation names --------------------------------------------


def poly_pow_naive(f: DensePoly, m: int) -> DensePoly:
    """f^m by binary exponentiation.  No route of the package calls it: it
    stays public as the tests' oracle for the recurrence and the closed forms."""
    return f ** m


def _arrays_mul(a, b, p, nu):
    """Product of polynomials held as coordinate arrays, reduced mod p.

    Over GF(p^2) a product takes three convolutions, by Karatsuba's cross
    term (a0+a1)(b0+b1) - a0 b0 - a1 b1, and a square two:
    (a0 + a1 w)^2 = (a0+a1)(a0+nu a1) - (1+nu) a0 a1 + 2 a0 a1 w.  Each
    convolution's operands are residues mod p, and a0 a1 is reduced before
    it is scaled by 1 + nu <= p, so that term stays below p^2 in int64.
    Operands past the crossover `_FFT_MIN_LEN` that `_fft_exact` admits take
    `_fft_mul` instead."""
    la, lb = len(a[0]), len(b[0])
    if la >= _FFT_MIN_LEN <= lb and _fft_exact(la, lb, p):
        out = _fft_mul(a, b, p, nu)
        if out is not None:
            return out
    if len(a) == 1:
        return (_convolve(a[0], b[0]) % p,)
    if a is b:
        q01 = _convolve(a[0], a[1]) % p
        qs = _convolve((a[0] + a[1]) % p, (a[0] + nu * a[1]) % p)
        return ((qs - (1 + nu) * q01) % p, 2 * q01 % p)
    q00 = _convolve(a[0], b[0]) % p
    q11 = _convolve(a[1], b[1]) % p
    qs = _convolve((a[0] + a[1]) % p, (b[0] + b[1]) % p)
    return ((q00 + nu * q11) % p, (qs - q00 - q11) % p)


def pow_coeffs(f: DensePoly, m: int, indices) -> dict:
    """Coefficients of f^m at the given indices, without forming f^m.

    f is held as int64 coordinate arrays, one over GF(p) and two over
    GF(p^2), and squared up to A = f^(m//2); with B = A for even m and A*f
    for odd m, each coefficient c_k is the sum of A_i B_(k-i).  Every read
    takes one int64 correlation per run of consecutive indices and
    coordinate array.
    No sum has more than n + 1 = m deg(f) + 1 terms, so for m >= 1 and
    deg f >= 1 the power is refused with a ValueError, before any array is
    built, unless `_float_exact(n + 1, p)` holds; a constant f is answered
    directly.
    """
    n = _power_degree(f, m)
    ctx = f.ctx
    p, nu, ext = ctx.p, ctx.nu, ctx.ext_degree
    if f.degree < 1:  # f^m is the constant f(0)^m, with 0^0 = 1
        c = f.coeff(0) ** m
        return {k: c if k == 0 else ctx.zero for k in indices}
    if m and not _float_exact(n + 1, p):
        raise ValueError(
            f"degree {n} of the full expansion over p = {p} sums products "
            "of residues past the exact float64 bound 2^53"
        )

    def arrays(raw):
        if ext == 1:
            return (np.array(raw, dtype=np.int64),)
        return tuple(np.array([x[i] for x in raw], dtype=np.int64) for i in (0, 1))

    F = arrays(f.raw())
    A = F if m > 1 else arrays([_rsmall(p, ext, 1)])
    for bit in bin(m // 2)[3:]:
        A = _arrays_mul(A, A, p, nu)
        if bit == "1":
            A = _arrays_mul(A, F, p, nu)
    B = _arrays_mul(A, F, p, nu) if m % 2 else A
    if ext == 2:
        A = A + ((A[0] + A[1]) % p,)
        B = B + ((B[0] + B[1]) % p,)
    la, lb = len(A[0]), len(B[0])
    out = dict.fromkeys(indices, ctx.zero)  # an index outside A*B reads zero
    ks = sorted(k for k in out if 0 <= k <= la + lb - 2)
    # c_k = sum_i A_i B_(k-i) is entry k of the correlation of Bz, B with
    # la - 1 zeros on each side, with A reversed, so one `np.correlate` over
    # Bz[k0 : k1 + la] reads a whole run k0..k1.  It runs in int64, which
    # takes no BLAS path: its sums have at most la <= n + 1 terms below p^2,
    # below 2^53 by the check above.  Bz and the reversed A hold the
    # coordinate arrays as rows, each built in one step, and the sums of all
    # runs are reduced together
    Bz = np.zeros((len(B), lb + 2 * (la - 1)), dtype=np.int64)
    Bz[:, la - 1 : la - 1 + lb] = B
    Ar = np.array(A)[:, ::-1].copy()
    d = np.empty((len(B), len(ks)), dtype=np.int64)
    start = 0
    for end in range(1, len(ks) + 1):
        if end == len(ks) or ks[end] != ks[end - 1] + 1:  # ks[start:end] is a run
            k0, k1 = ks[start], ks[end - 1]
            for row, bz, ar in zip(d, Bz, Ar):
                row[start:end] = np.correlate(bz[k0 : k1 + la], ar, "valid")
            start = end
    if ext == 1:
        cs = (d[0] % p).tolist()
    else:  # nu d_1 may pass 2^63, so d_1 is reduced first
        real = (d[0] + nu * (d[1] % p)) % p
        cs = zip(real.tolist(), ((d[2] - d[0] - d[1]) % p).tolist())
    for k, c in zip(ks, cs):
        out[k] = FieldElement(ctx, c)
    return out


def _raw_divmod(ctx: FieldCtx, a, b):
    """Quotient and remainder of raw coefficient sequences, b with a nonzero
    top coefficient; the remainder is trimmed to canonical form."""
    p, nu, ext = ctx.p, ctx.nu, ctx.ext_degree
    rem = list(a)
    d = len(b) - 1
    lead_inv = _rinv(p, nu, ext, b[-1])
    low = b[:d]
    quo = [_rzero(ext)] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        if _is_rzero(ext, rem[i]):
            continue
        q = quo[i - d] = _rmul(p, nu, ext, rem[i], lead_inv)
        # the top term cancels: only the d below it change, and it is dropped
        rem[i - d : i] = _rrow_sub(p, nu, ext, rem[i - d : i], q, low)
    del rem[d:]
    while rem and _is_rzero(ext, rem[-1]):
        rem.pop()
    return quo, rem


def poly_gcd(a: DensePoly, b: DensePoly) -> DensePoly:
    """Monic gcd by the Euclidean algorithm on raw coefficients."""
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    x, y = a.raw(), b.raw()
    while y:
        x, y = y, _raw_divmod(a.ctx, x, y)[1]
    return DensePoly(a.ctx, x).monic()


# memo size of `is_squarefree`.  A `cmrank verify all` pass (seed 1) asks
# 1 325 times about 878 distinct polynomials: `cache_info()` reads 447 hits
# at 589 entries or more, 446 at 588 and 443 at 512, since its farthest
# repeat comes 589 distinct polynomials after the first ask (x^4 - 1 over
# GF(11), built by lemma43 and again by ss5-small's recheck).  1024 is the
# power of two above that.  An entry holds its key: at most a genus-128
# model's 259 coefficients, 11.5 kB with p near 2^31, or over GF(p^2) a
# genus-88 model's 179, 24 kB; 12 MB and 24 MB for a full memo
@lru_cache(maxsize=1024)
def is_squarefree(f: DensePoly) -> bool:
    """True iff gcd(f, f') is a nonzero constant; false when f' vanishes.
    Memoised by f, which hashes and compares by field and coefficients; a
    degree-0 f raises on every call."""
    if f.degree < 1:
        raise ValueError("squarefree test expects degree >= 1")
    return poly_gcd(f, f.derivative()).degree == 0


def parse_poly(ctx: FieldCtx, text: str) -> DensePoly:
    """Parse the CLI coefficient list c0,c1,...,cd.  An empty or blank slot
    is refused: dropping it would move every later coefficient down a degree."""
    parts = text.split(",")
    for i, s in enumerate(parts):
        if not s.strip():
            raise ValueError(f"coefficient c{i} of {text!r} is empty")
    return DensePoly.from_elements(ctx, [ctx.parse(s) for s in parts])
