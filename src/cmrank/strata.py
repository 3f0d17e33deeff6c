"""Dimension bookkeeping for p-rank strata of double-cover moduli.

Everything here is exact integer arithmetic with strict validity windows:
requests outside a formula's window raise instead of clamping, since the
purity statements behind the formulas say nothing out there.

Spaces:
  B_Eg - genus-g double covers of a fixed elliptic curve with p-rank f_E
  B_g  - the bielliptic locus
  H_g  - hyperelliptic curves

Closed p-rank-f stratum dimensions: g-2+f-f_E, g-2+f and g-1+f on the
respective spaces.  Boundary components of the reduced double-cover space
come in two families, unramified (Xi) and ramified (Delta) clutchings, all
of codimension one; the g1 = 1 unramified case splits into a compact-type
branch (two elliptic tails) and a non-compact-type branch (an etale double
cover glued to a hyperelliptic curve), whose p-rank strata behave
differently.  At g = 2 both branches are finite: exactly three curves of
the non-compact kind (one per nontrivial 2-torsion point of the base,
indexing its etale double covers) and one of the compact kind.

For reference, the reported Newton polygons of p-rank-0 double covers in
low genus (slopes with multiplicity); these are recorded facts, nothing
here computes them:

  genus 3: (1/2)^6 only (automatically supersingular)
  genus 4: (1/3, 1/3, 1/3, 1/2, 1/2, 2/3, 2/3, 2/3) or (1/2)^8
  genus 5: (1/4 x4, 1/2 x2, 3/4 x4), (1/3 x3, 1/2 x4, 2/3 x3) or (1/2)^10
"""

from __future__ import annotations

from dataclasses import dataclass

from .ff import is_prime

SPACES = ("B_Eg", "B_g", "H_g")

@dataclass(frozen=True)
class StratumQuery:
    g: int
    f: int
    f_E: int = 0
    space: str = "B_Eg"


def _check_g(g: int):
    if g < 2:
        raise ValueError(f"g = {g} < 2: no double-cover moduli")


def _check_fe(f_E: int):
    if f_E not in (0, 1):
        raise ValueError(f"f_E = {f_E} must be 0 or 1")


def stratum_dim(q: StratumQuery) -> int:
    """Dimension of the closed p-rank <= f stratum of the requested space."""
    g, f, f_E, space = q.g, q.f, q.f_E, q.space
    _check_g(g)
    if space == "B_Eg":
        _check_fe(f_E)
        if not f_E <= f <= g - 1 + f_E:
            raise ValueError(
                f"f = {f} outside the window [{f_E}, {g - 1 + f_E}] for B_Eg"
            )
        return g - 2 + f - f_E
    if space == "B_g":
        if not 0 <= f <= g:
            raise ValueError(f"f = {f} outside the window [0, {g}] for B_g")
        return g - 2 + f
    if space == "H_g":
        if not 0 <= f <= g:
            raise ValueError(f"f = {f} outside the window [0, {g}] for H_g")
        return g - 1 + f
    raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")


@dataclass(frozen=True)
class BoundaryComponent:
    """One clutching component of the boundary, of codimension 1.

    kind: "Xi" (unramified node, g1 >= 2), "Delta" (ramified node), or the
    two branches of the unramified g1 = 1 case: "delta_ct" (compact type)
    and "xi_nct" (toric rank 1).
    """

    kind: str
    g1: int
    g2: int
    dim: int
    contained_in: str
    note: str = ""

    @property
    def label(self) -> str:
        base = {
            "Xi": "Xi",
            "Delta": "Delta",
            "delta_ct": "delta",
            "xi_nct": "xi",
        }[self.kind]
        return f"{base}_{{{self.g1},{self.g2}}}"


def boundary_components(g: int) -> list:
    """All boundary components: Xi_{g1, g-1-g1} for g1 = 1..g-1 (the g1 = 1
    entry split into its compact-type and non-compact-type branches) and
    Delta_{g1, g-g1} for g1 = 2..g-1."""
    _check_g(g)
    dim = 2 * g - 4
    out = []
    note = "contained in Delta_2 as well" if g == 4 else ""
    out.append(
        BoundaryComponent(
            kind="delta_ct", g1=1, g2=g - 2, dim=dim, contained_in="Delta_1", note=note
        )
    )
    out.append(
        BoundaryComponent(kind="xi_nct", g1=1, g2=g - 2, dim=dim, contained_in="Delta_0")
    )
    for g1 in range(2, g):
        out.append(
            BoundaryComponent(
                kind="Xi", g1=g1, g2=g - 1 - g1, dim=dim, contained_in="Delta_0"
            )
        )
    for g1 in range(2, g):
        g2 = g - g1
        out.append(
            BoundaryComponent(
                kind="Delta",
                g1=g1,
                g2=g2,
                dim=dim,
                contained_in=f"Delta_{min(g1, g2)}",
            )
        )
    return out


def boundary_stratum_dim(comp: BoundaryComponent, f: int, f_E: int) -> int:
    """Dimension of the p-rank <= f stratum of a boundary component."""
    g = comp.g1 + comp.g2 + (1 if comp.kind in ("Xi", "delta_ct", "xi_nct") else 0)
    _check_g(g)
    _check_fe(f_E)
    if comp.kind == "delta_ct":
        lo, hi = 2 * f_E, g - 2 + 2 * f_E
        if not lo <= f <= hi:
            raise ValueError(f"f = {f} outside [{lo}, {hi}] for {comp.label}")
        return g - 2 + f - 2 * f_E
    if comp.kind == "xi_nct":
        lo, hi = f_E + 1, g - 1 + f_E
        if not lo <= f <= hi:
            raise ValueError(f"f = {f} outside [{lo}, {hi}] for {comp.label}")
        return g - 3 + f - f_E
    if comp.kind in ("Xi", "Delta"):
        lo, hi = f_E, g - 1 + f_E
        if not lo <= f <= hi:
            raise ValueError(f"f = {f} outside [{lo}, {hi}] for {comp.label}")
        return g - 3 + f - f_E
    raise ValueError(f"unknown component kind {comp.kind!r}")


def smooth_cover_exists(p: int, g: int, f: int, f_E: int) -> bool:
    """Whether a smooth genus-g double cover of an elliptic curve with p-rank
    f_E exists with total p-rank exactly f.  The single exception is
    (p, g, f) = (3, 2, 0) over a supersingular base."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    _check_g(g)
    _check_fe(f_E)
    if f_E == 1:
        return 1 <= f <= g
    if not 0 <= f <= g - 1:
        return False
    return (p, g, f) != (3, 2, 0)
