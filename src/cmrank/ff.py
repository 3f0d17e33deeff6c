"""Exact arithmetic in GF(p) and its quadratic extension GF(p^2), p an odd prime.

Elements are immutable; a context (FieldCtx) fixes the modulus and, for the
quadratic extension, the defining polynomial w^2 = nu.  The modulus is chosen
deterministically so that results are byte-reproducible: w^2 = -1 when
p = 3 (mod 4), otherwise w^2 = nu with nu the smallest non-residue.
"""

from __future__ import annotations

import re
from array import array

MAX_PRIME = 1 << 31

_ELEM2_RE = re.compile(r"(?P<a>[+-]?\d+(?=[+-]))?(?P<sign>[+-])?(?:(?P<bnum>\d+)\*)?w")

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
        v = value % self.p
        coords = (v,) if self.ext_degree == 1 else (v, 0)
        return FieldElement(self, coords)

    def from_coords(self, coords) -> "FieldElement":
        coords = tuple(c % self.p for c in coords)
        if len(coords) != self.ext_degree:
            raise ValueError("coordinate count does not match extension degree")
        return FieldElement(self, coords)

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
                yield FieldElement(self, (a,))
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
            return FieldElement(self, (a.coords[0], 0))
        if a.ctx.ext_degree == 2 and self.ext_degree == 1:
            if a.coords[1] != 0:
                raise ValueError(f"{a} does not lie in the prime field")
            return FieldElement(self, (a.coords[0],))
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


def field(p: int, ext_degree: int = 1) -> FieldCtx:
    """Build the field context; validates p odd prime and ext_degree in {1, 2}."""
    return FieldCtx(p, ext_degree)


class FieldElement:
    """An element of GF(p) or GF(p^2); coords are reduced residues."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: FieldCtx, coords: tuple):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(
            self.ctx, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(
            self.ctx, tuple((a - b) % p for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        p = self.ctx.p
        if self.ctx.ext_degree == 1:
            return FieldElement(self.ctx, (self.coords[0] * other.coords[0] % p,))
        a, b = self.coords
        c, d = other.coords
        nu = self.ctx.nu
        return FieldElement(self.ctx, ((a * c + nu * b * d) % p, (a * d + b * c) % p))

    def inverse(self) -> "FieldElement":
        p = self.ctx.p
        if self.is_zero:
            raise ZeroDivisionError("division by zero in " + repr(self.ctx))
        if self.ctx.ext_degree == 1:
            return FieldElement(self.ctx, (pow(self.coords[0], p - 2, p),))
        a, b = self.coords
        nu = self.ctx.nu
        n = (a * a - nu * b * b) % p
        ninv = pow(n, p - 2, p)
        return FieldElement(self.ctx, (a * ninv % p, (-b) * ninv % p))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if self.ctx.ext_degree == 1:
            return FieldElement(self.ctx, (pow(self.coords[0], e, self.ctx.p),))
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self) -> "FieldElement":
        """The p-power map: identity on GF(p), the conjugation a+bw -> a-bw on GF(p^2)."""
        if self.ctx.ext_degree == 1:
            return self
        a, b = self.coords
        return FieldElement(self.ctx, (a, (-b) % self.ctx.p))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ctx, self.coords))

    def __str__(self):
        if self.ctx.ext_degree == 1:
            return str(self.coords[0])
        return f"{self.coords[0]}+{self.coords[1]}*w"

    def __repr__(self):
        return f"{self} in {self.ctx!r}"
