"""Exact arithmetic in GF(p) and its quadratic extension GF(p^2), p an odd prime.

A scalar has one form, its raw residue: an int in [0, p) for GF(p), and a
pair (a, b) of them for a + b w in GF(p^2).  The formulas on raw residues,
`_radd`, `_rsub`, `_rneg`, `_rmul`, `_rdot`, `_rrow_sub`, `_rinv`, `_rsmall`
and `_is_rzero`, live here once: `poly`, `cartier` and `search` call them on
raw coefficient lists and matrices, and FieldElement, an immutable raw
residue with its context, implements its operators with them.

A context (FieldCtx) fixes the modulus and, for the quadratic extension, the
defining polynomial w^2 = nu.  The modulus is chosen deterministically so
that results are byte-reproducible: w^2 = -1 when p = 3 (mod 4), otherwise
w^2 = nu with nu the smallest non-residue.
"""

from __future__ import annotations

import operator
import re
from array import array
from functools import lru_cache

MAX_PRIME = 1 << 31

_ELEM2_RE = re.compile(r"(?P<a>[+-]?\d+(?=[+-]))?(?P<sign>[+-])?(?:(?P<bnum>\d+)\*)?w")

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inverse_table(p: int, upto: int) -> array:
    """[0, 1/1, 1/2, ..., 1/upto] mod p for upto < p, by the recurrence
    1/k = -(p // k) / (p mod k), as a compact int64 array (8 bytes an entry,
    where a list of ints holds about 36)."""
    inv = array("q", [0, 1][: upto + 1])
    for k in range(2, upto + 1):
        inv.append(-(p // k) * inv[p % k] % p)
    return inv


# -- formulas on raw residues: x, y are ints for ext = 1, (a, b) pairs for ext = 2


def _rzero(ext):
    return 0 if ext == 1 else (0, 0)


def _is_rzero(ext, x):
    return x == 0 if ext == 1 else x == (0, 0)


def _rsmall(p, ext, n):
    """The raw image of the integer n."""
    return n % p if ext == 1 else (n % p, 0)


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
    real = imag = 0
    for (a, b), (c, d) in zip(xs, ys):
        real += a * c + nu * b * d
        imag += a * d + b * c
    return (real % p, imag % p)


def _rrow_sub(p, nu, ext, xs, c, ys):
    """[x - c*y] over paired raw residues, each reduced once: the row update
    of an elimination or a division step."""
    if ext == 1:
        return [(x - c * y) % p for x, y in zip(xs, ys)]
    a, b = c
    nb = nu * b
    return [
        ((x0 - a * y0 - nb * y1) % p, (x1 - a * y1 - b * y0) % p)
        for (x0, x1), (y0, y1) in zip(xs, ys)
    ]


def _rinv(p, nu, ext, x):
    """1/x for nonzero x: x^(p-2) over GF(p), and over GF(p^2) the conjugate
    a - b w divided by the norm a^2 - nu b^2."""
    if ext == 1:
        return pow(x, p - 2, p)
    a, b = x
    n = (a * a - nu * b * b) % p
    ninv = pow(n, p - 2, p)
    return (a * ninv % p, (-b) * ninv % p)


def _smallest_nonresidue(p: int) -> int:
    a = 2
    while pow(a, (p - 1) // 2, p) == 1:
        a += 1
    return a


class FieldCtx:
    """GF(p) (ext_degree 1) or GF(p^2) (ext_degree 2) with a fixed modulus."""

    __slots__ = ("p", "ext_degree", "nu")

    def __init__(self, p: int, ext_degree: int = 1):
        if ext_degree not in (1, 2):
            raise ValueError(f"unsupported extension degree {ext_degree}")
        if p % 2 == 0:
            raise ValueError(f"p = {p} is even")
        if p >= MAX_PRIME:
            raise ValueError(f"p = {p} exceeds the 2^31 bound")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ext_degree", ext_degree)
        nu = (p - 1) if p % 4 == 3 else _smallest_nonresidue(p)
        object.__setattr__(self, "nu", nu if ext_degree == 2 else None)

    def __setattr__(self, name, value):
        raise AttributeError("FieldCtx is immutable")

    @property
    def order(self) -> int:
        return self.p ** self.ext_degree

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.ext_degree == other.ext_degree
        )

    def __hash__(self):
        return hash((self.p, self.ext_degree))

    def __repr__(self):
        if self.ext_degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^2; w^2={self.nu})"

    # -- element constructors -------------------------------------------------

    def elem(self, value: int) -> "FieldElement":
        """The image of an integer in this field."""
        return FieldElement(self, _rsmall(self.p, self.ext_degree, value))

    def from_coords(self, coords) -> "FieldElement":
        """The element with these coordinates, (a,) for GF(p) or (a, b) for
        a + b w in GF(p^2), reduced mod p."""
        coords = tuple(c % self.p for c in coords)
        if len(coords) != self.ext_degree:
            raise ValueError("coordinate count does not match extension degree")
        return FieldElement(self, coords[0] if self.ext_degree == 1 else coords)

    @property
    def zero(self) -> "FieldElement":
        return self.elem(0)

    @property
    def one(self) -> "FieldElement":
        return self.elem(1)

    def elements(self):
        """All field elements, in the deterministic (a, b) lexicographic order."""
        if self.ext_degree == 1:
            for a in range(self.p):
                yield FieldElement(self, a)
        else:
            for a in range(self.p):
                for b in range(self.p):
                    yield FieldElement(self, (a, b))

    def embed(self, a: "FieldElement") -> "FieldElement":
        """Coerce an element of GF(p) or GF(p^2) over the same p into this field."""
        if a.ctx == self:
            return a
        if a.ctx.p != self.p:
            raise ValueError("incompatible characteristics")
        if a.ctx.ext_degree == 1 and self.ext_degree == 2:
            return FieldElement(self, (a.raw, 0))
        if a.ctx.ext_degree == 2 and self.ext_degree == 1:
            if a.raw[1] != 0:
                raise ValueError(f"{a} does not lie in the prime field")
            return FieldElement(self, a.raw[0])
        return a

    def parse(self, text: str) -> "FieldElement":
        """Parse the CLI syntax: a decimal integer, or "a+b*w" over GF(p^2)."""
        s = text.strip().replace(" ", "")
        if "w" not in s:
            try:
                return self.elem(int(s))
            except ValueError:
                raise ValueError(f"cannot parse field element {text!r}") from None
        if self.ext_degree != 2:
            raise ValueError(f"{text!r} names the extension generator but field is GF({self.p})")
        m = _ELEM2_RE.fullmatch(s)
        if m is None:
            raise ValueError(f"cannot parse field element {text!r}")
        a = int(m.group("a")) if m.group("a") else 0
        b = int(m.group("bnum")) if m.group("bnum") else 1
        if m.group("sign") == "-":
            b = -b
        return self.from_coords((a, b))


# typed: p = 5.0 equals and hashes like 5, and an untyped memo would hand a
# context built from one to callers of the other
@lru_cache(maxsize=None, typed=True)
def field(p: int, ext_degree: int = 1) -> FieldCtx:
    """The field context, built once per argument tuple in a process;
    validates p odd prime and ext_degree in {1, 2}.  The memo keeps no
    exception, so invalid arguments raise on every call."""
    return FieldCtx(p, ext_degree)


class FieldElement:
    """An element of GF(p) or GF(p^2): its raw residue with its context."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FieldCtx, raw):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")

    @property
    def coords(self) -> tuple:
        """(a,) over GF(p), (a, b) for a + b w over GF(p^2)."""
        return (self.raw,) if self.ctx.ext_degree == 1 else self.raw

    @property
    def is_zero(self) -> bool:
        return _is_rzero(self.ctx.ext_degree, self.raw)

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        self._check(other)
        ctx = self.ctx
        return FieldElement(ctx, _radd(ctx.p, ctx.ext_degree, self.raw, other.raw))

    def __sub__(self, other):
        self._check(other)
        ctx = self.ctx
        return FieldElement(ctx, _rsub(ctx.p, ctx.ext_degree, self.raw, other.raw))

    def __neg__(self):
        ctx = self.ctx
        return FieldElement(ctx, _rneg(ctx.p, ctx.ext_degree, self.raw))

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        return FieldElement(ctx, _rmul(ctx.p, ctx.nu, ctx.ext_degree, self.raw, other.raw))

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("division by zero in " + repr(self.ctx))
        ctx = self.ctx
        return FieldElement(ctx, _rinv(ctx.p, ctx.nu, ctx.ext_degree, self.raw))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        ctx = self.ctx
        p, nu, ext = ctx.p, ctx.nu, ctx.ext_degree
        if ext == 1:
            return FieldElement(ctx, pow(self.raw, e, p))
        result, base = _rsmall(p, ext, 1), self.raw
        while e:
            if e & 1:
                result = _rmul(p, nu, ext, result, base)
            base = _rmul(p, nu, ext, base, base)
            e >>= 1
        return FieldElement(ctx, result)

    def frobenius(self) -> "FieldElement":
        """The p-power map: identity on GF(p), the conjugation a+bw -> a-bw on GF(p^2)."""
        if self.ctx.ext_degree == 1:
            return self
        a, b = self.raw
        return FieldElement(self.ctx, (a, (-b) % self.ctx.p))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.ctx, self.raw))

    def __str__(self):
        if self.ctx.ext_degree == 1:
            return str(self.raw)
        return "{}+{}*w".format(*self.raw)

    def __repr__(self):
        return f"{self} in {self.ctx!r}"
