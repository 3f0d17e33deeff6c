"""Dense univariate polynomials over a FieldCtx.

Coefficients are stored low-to-high as raw residues (an int for GF(p), an
(a, b) pair for GF(p^2)) in canonical form: the top coefficient is nonzero
and the zero polynomial is the empty tuple.  Products switch to an exact
numpy convolution once operands are long enough for it to pay.

`pow_coeffs` reads single coefficients of a power without forming it: it
keeps the polynomial as int64 coordinate arrays and squares up to f^(m//2).
Over GF(p^2) a square takes two convolutions and any other product three
(`_arrays_mul`).

Every numpy convolution goes through `_convolve`, which runs it in float64
(numpy convolves float64 through its SIMD dot kernel, int64 in a scalar
loop, about 4x slower) on int64 arrays, and is called only where that is
exact (`_FLOAT_EXACT`, which states the argument): past that bound a
product falls back to a schoolbook loop over Python ints, and `pow_coeffs`
refuses the power.
"""

from __future__ import annotations

import operator

import numpy as np

from .ff import FieldCtx, FieldElement

DEGREE_CAP = 1 << 24
# cost guard of `pow_coeffs`: its last squaring is about (n/2)^2 multiply-adds
# for a power of degree n, 4*10^9 at the guard, 18 times the n ~ 7*10^3 of a
# genus-6 Cartier-Manin expansion at p ~ 1100.  At the guard on a 2-core Xeon
# VM (range of three runs): 0.3 s over GF(p) and 0.9-1.1 s over GF(p^2)
EXPANSION_CAP = 1 << 17
_NUMPY_MIN_LEN = 32
# the one exactness bound of the numpy routes.  When no output sums more than
# `terms` products of residues, each product and every partial sum, in any
# order and with or without FMA, is a non-negative integer at most
# terms * (p-1)^2: float64 convolutions are exact while that is below 2^53,
# and so are the int64 arrays, reductions and dot products around them.
# Karatsuba's cross term and the GF(p^2) square's (a0+a1)(a0+nu a1) reduce
# their operands mod p first, so those are residues too.  A power of degree n
# sums at most n + 1 products per output, and `pow_coeffs` refuses one past
# this bound.  No Cartier-Manin expansion reaches it: those have m = (p-1)/2
# and deg f >= 3, so EXPANSION_CAP refuses every one with p >= 2^18, and
# below 2^18 the assert keeps them exact
_FLOAT_EXACT = 1 << 53
assert (EXPANSION_CAP + 1) * ((1 << 18) - 1) ** 2 < _FLOAT_EXACT


def _float_exact(terms, p):
    return terms * (p - 1) ** 2 < _FLOAT_EXACT


def _convolve(a, b):
    """np.convolve of int64 residue arrays, not reduced, run in float64;
    callers keep it exact by `_float_exact`.  The result is int64."""
    return np.convolve(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)


def _rzero(ext):
    return 0 if ext == 1 else (0, 0)


def _is_rzero(ext, x):
    return x == 0 if ext == 1 else x == (0, 0)


def _radd(p, ext, x, y):
    if ext == 1:
        return (x + y) % p
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def _rsub(p, ext, x, y):
    if ext == 1:
        return (x - y) % p
    return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)


def _rneg(p, ext, x):
    if ext == 1:
        return (-x) % p
    return ((-x[0]) % p, (-x[1]) % p)


def _rmul(p, nu, ext, x, y):
    if ext == 1:
        return x * y % p
    a, b = x
    c, d = y
    return ((a * c + nu * b * d) % p, (a * d + b * c) % p)


def _rdot(p, nu, ext, xs, ys):
    """The sum of x*y over paired raw residues, reduced once."""
    if ext == 1:
        return sum(map(operator.mul, xs, ys)) % p
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c + nu * b * d
        im += a * d + b * c
    return (re % p, im % p)


def _rinv(p, nu, ext, x):
    if ext == 1:
        return pow(x, p - 2, p)
    a, b = x
    n = (a * a - nu * b * b) % p
    ninv = pow(n, p - 2, p)
    return (a * ninv % p, (-b) * ninv % p)


def _rsmall(p, ext, n):
    """The raw image of the integer n."""
    return n % p if ext == 1 else (n % p, 0)


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
        raw = []
        for e in elems:
            e = ctx.embed(e)
            raw.append(e.coords[0] if ctx.ext_degree == 1 else e.coords)
        return cls(ctx, raw)

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

    @classmethod
    def x(cls, ctx: FieldCtx) -> "DensePoly":
        return cls.from_ints(ctx, [0, 1])

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
            raw = self._c[i]
            return self.ctx.from_coords((raw,) if self.ctx.ext_degree == 1 else raw)
        return self.ctx.zero

    @property
    def coeffs(self) -> tuple:
        return tuple(self.coeff(i) for i in range(len(self._c)))

    def raw(self) -> tuple:
        return self._c

    @property
    def leading(self) -> FieldElement:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

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
        c = self.ctx.embed(c)
        raw = c.coords[0] if self.ctx.ext_degree == 1 else c.coords
        p, nu, ext = self.ctx.p, self.ctx.nu, self.ctx.ext_degree
        return DensePoly(self.ctx, [_rmul(p, nu, ext, x, raw) for x in self._c])

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative polynomial power")
        # every intermediate power has degree at most m * degree, so this one
        # check keeps the products below the constructor's cap
        if m * self.degree >= DEGREE_CAP:
            raise ValueError(
                f"degree {m * self.degree} of the power exceeds the cap {DEGREE_CAP}"
            )
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

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "DensePoly":
        if self.is_zero:
            return self
        p, nu, ext = self.ctx.p, self.ctx.nu, self.ctx.ext_degree
        inv = _rinv(p, nu, ext, self._c[-1])
        return DensePoly(self.ctx, [_rmul(p, nu, ext, x, inv) for x in self._c])

    def derivative(self) -> "DensePoly":
        p, ext = self.ctx.p, self.ctx.ext_degree
        out = []
        for i in range(1, len(self._c)):
            x = self._c[i]
            if ext == 1:
                out.append(i * x % p)
            else:
                out.append((i * x[0] % p, i * x[1] % p))
        return DensePoly(self.ctx, out)

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
    it is scaled by 1 + nu <= p, so that term stays below p^2 in int64."""
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
    for odd m, each coefficient c_k is the dot product of A_i and B_(k-i).
    No sum has more than n + 1 = m deg(f) + 1 terms, so for m >= 1 and
    deg f >= 1 the power is refused with a ValueError, before any array is
    built, unless `_float_exact(n + 1, p)` holds; a constant f is answered
    directly.
    """
    if m < 0:
        raise ValueError("negative polynomial power")
    n = m * f.degree
    if n >= DEGREE_CAP:
        raise ValueError(f"degree {n} of the power exceeds the cap {DEGREE_CAP}")
    if n > EXPANSION_CAP:
        raise ValueError(
            f"degree {n} of the full expansion exceeds the cost guard {EXPANSION_CAP}"
        )
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
    out = {}
    for k in indices:
        lo, hi = max(0, k - lb + 1), min(k, la - 1)
        if lo > hi:
            out[k] = ctx.zero
            continue
        d = [int(np.dot(a[lo : hi + 1], b[k - hi : k - lo + 1][::-1])) for a, b in zip(A, B)]
        c = (d[0] % p,) if ext == 1 else ((d[0] + nu * d[1]) % p, (d[2] - d[0] - d[1]) % p)
        out[k] = ctx.from_coords(c)
    return out


def _raw_divmod(ctx: FieldCtx, a, b):
    """Quotient and remainder of raw coefficient sequences, b with a nonzero
    top coefficient; the remainder is trimmed to canonical form."""
    p, nu, ext = ctx.p, ctx.nu, ctx.ext_degree
    rem = list(a)
    d = len(b) - 1
    lead_inv = _rinv(p, nu, ext, b[-1])
    quo = [_rzero(ext)] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        if _is_rzero(ext, rem[i]):
            continue
        q = quo[i - d] = _rmul(p, nu, ext, rem[i], lead_inv)
        # the top term cancels: only the d below it change, and it is dropped
        for j in range(d):
            rem[i - d + j] = _rsub(p, ext, rem[i - d + j], _rmul(p, nu, ext, q, b[j]))
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


def is_squarefree(f: DensePoly) -> bool:
    """True iff gcd(f, f') is a nonzero constant; false when f' vanishes."""
    if f.degree < 1:
        raise ValueError("squarefree test expects degree >= 1")
    return poly_gcd(f, f.derivative()).degree == 0


def parse_poly(ctx: FieldCtx, text: str) -> DensePoly:
    """Parse the CLI coefficient list c0,c1,...,cd."""
    parts = [s for s in text.split(",") if s.strip()]
    if not parts:
        return DensePoly.zero(ctx)
    return DensePoly.from_elements(ctx, [ctx.parse(s) for s in parts])
