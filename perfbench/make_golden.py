"""Regenerate the golden files under perfbench/golden/.

    PYTHONPATH=src python3 perfbench/make_golden.py [census solutions prank verify]

Each golden is produced or cross-checked through a route the timed op does
not take:
- census: found / not-found per prime from a mode-first sweep; every first
  solution is rechecked with the scalar `ss5_check_pair(strategy="naive")`.
- solutions: the mode-all solution lists and counts; every solution is
  rechecked with the scalar naive route.
- prank: Cartier-Manin matrix digest and p-rank from `strategy="naive"`
  (full expansion); for genus <= 2 the recurrence must agree.
- verify: passed flag, check names and counts of each suite, which must not
  depend on the oracle seed.

Any disagreement aborts without writing.  Goldens record what the program
computes: regenerate them only when a change in expected output is intended.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from cmrank import cartier, ff, poly, search, verify


def _scalar_solution(p: int, u: int, v: int) -> bool:
    ctx = ff.field(p)
    return search.ss5_check_pair(p, ctx.elem(u), ctx.elem(v), strategy="naive").status == "solution"


def golden_census() -> dict:
    out = {}
    for p in wl.census_primes():
        r = search.ss5_sweep(search.SweepConfig(p=p, mode="first", threads=1))
        if r.solutions and not _scalar_solution(p, *r.solutions[0]):
            raise SystemExit(f"census p={p}: first solution fails the naive recheck")
        out[str(p)] = {"found": bool(r.solutions)}
    return out


def golden_solutions() -> dict:
    out = {}
    for p in wl.solutions_primes():
        r = search.ss5_sweep(search.SweepConfig(p=p, mode="all", threads=1))
        bad = [s for s in r.solutions if not _scalar_solution(p, *s)]
        if bad:
            raise SystemExit(f"solutions p={p}: {len(bad)} fail the naive recheck")
        out[str(p)] = {"solutions": [list(s) for s in r.solutions], "counts": r.counts}
    return out


def golden_prank() -> dict:
    slots = []
    for i, slot in enumerate(wl.prank_slots()):
        variants = []
        nonce = 0
        while len(variants) < wl.PRANK_VARIANTS:
            ctx, f = wl.prank_poly(i, slot, nonce)
            nonce += 1
            if not poly.is_squarefree(f):
                continue
            C = cartier.HyperellipticModel(ctx, f)
            data = cartier.cartier_matrix(C, strategy="naive")
            if C.genus <= 2 and f.coeff(0):
                rec = cartier.cartier_matrix(C, strategy="recurrence")
                if rec.M != data.M:
                    raise SystemExit(f"prank slot {i} nonce {nonce - 1}: recurrence disagrees")
            variants.append(
                {"nonce": nonce - 1, "digest": wl.matrix_digest(data.M), "p_rank": data.p_rank}
            )
        slots.append({**slot, "variants": variants})
    return {"slots": slots}


def golden_verify() -> dict:
    out = {}
    for name in wl.VERIFY_SUITES:
        sigs = [wl.verify_signature(verify.run_suite(name, seed=s)) for s in (None, 1, 2)]
        if any(s != sigs[0] for s in sigs) or not sigs[0]["passed"]:
            raise SystemExit(f"verify {name}: report depends on the seed or fails: {sigs}")
        out[name] = sigs[0]
    return out


def main(names) -> None:
    makers = {
        "census": golden_census,
        "solutions": golden_solutions,
        "prank": golden_prank,
        "verify": golden_verify,
    }
    for name in names or wl.WORKLOADS:
        data = makers[name]()
        wl.GOLDEN_DIR.mkdir(exist_ok=True)
        path = wl.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
