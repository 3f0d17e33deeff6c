"""The four benchmark workloads: their inputs, their timed ops and their golden checks.

Every workload is a list of ops built from the workload seed.  An op is one
call into cmrank (`run`), timed by the worker, and a check (`check`) that
compares the op's output with the golden files and runs after the timed
window.  All cmrank calls go through module attributes (`search.ss5_sweep`,
not a name bound at import time), so the spans that `tracing.install` puts on
those attributes see them.

Why these four:
- census: the researcher's range question, one cold `cmrank ss5 --mode first`
  per prime through `cli.main`.  Nearly all time is in the vectorised sweep;
  443 and 491 are solution-free and scan their whole grid.  The only workload
  that covers `cli` and the results-file write.
- solutions: the same sweep with `mode="all"` on small grids, where the
  re-verification of 3,353 solutions through `cartier`, `covers` and `poly`
  dominates.
- prank: single-curve Cartier-Manin queries, genus 2-6 over GF(p) and
  GF(p^2); the only workload where long `poly` products and the GF(p^2)
  branches run.  It bypasses `search` and `curves`.
- verify: every named verification suite, dominated by the scalar branch of
  `curves.supersingular_lambdas`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

WORKLOADS = ("census", "solutions", "prank", "verify")

CENSUS_BELOW = 500  # 25 primes; 443 and 491 scan their full grid
SOLUTIONS_UPTO = 167  # 9 primes, 3,353 solutions
PRANK_SLOTS = 300
PRANK_VARIANTS = 4  # golden coefficient sets per slot; the seed picks one
PRANK_GENUS = (2, 6)
PRANK_P_RANGE = (101, 1100)
VERIFY_SUITES = (
    "lemma43",
    "char3-genus3",
    "ekedahl3",
    "genus2-ss",
    "prop44",
    "prop45",
    "ss5-small",
    "oracle",
    "strata",
)
# the speed reference each workload's times are normalised by (worker.py)
REFERENCE = {"census": "numpy", "solutions": "objects", "prank": "objects", "verify": "objects"}
# ss5-small sums mode-first pair counts, which depend on the sweep's chunk
# size; like census counts they are not part of the golden contract.
VERIFY_UNSTABLE_COUNTS = {"ss5-small": ("pairs_tested",)}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output matches


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))


def census_primes() -> list:
    return [p for p in range(11, CENSUS_BELOW, 12) if _is_prime(p)]


def solutions_primes() -> list:
    return [p for p in range(11, SOLUTIONS_UPTO + 1, 12) if _is_prime(p)]


def load_golden(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())


# -- prank inputs ------------------------------------------------------------------


def prank_slots() -> list:
    """The fixed (p, ext, degree) of each query slot.  The seed only chooses
    which golden coefficient variant fills a slot, so the cost of a run hardly
    depends on the seed."""
    rng = random.Random("cmrank-prank-slots")
    primes = [q for q in range(*PRANK_P_RANGE) if _is_prime(q)]
    slots = []
    for i in range(PRANK_SLOTS):
        genus = rng.randint(*PRANK_GENUS)
        slots.append(
            {
                "p": rng.choice(primes),
                "ext": 1 + i % 2,
                "deg": 2 * genus + 1 + rng.randrange(2),
            }
        )
    return slots


def prank_coords(slot_index: int, slot: dict, nonce: int) -> list:
    """Coefficient coordinates c_0..c_deg of one variant; leading one nonzero."""
    rng = random.Random(f"cmrank-prank:{slot_index}:{nonce}")
    p, ext, deg = slot["p"], slot["ext"], slot["deg"]
    coords = [tuple(rng.randrange(p) for _ in range(ext)) for _ in range(deg)]
    lead = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(ext - 1))
    return coords + [lead]


def prank_poly(slot_index: int, slot: dict, nonce: int):
    from cmrank import ff, poly

    ctx = ff.field(slot["p"], slot["ext"])
    elems = [ctx.from_coords(c) for c in prank_coords(slot_index, slot, nonce)]
    return ctx, poly.DensePoly.from_elements(ctx, elems)


def matrix_digest(M) -> str:
    text = json.dumps([[str(x) for x in row] for row in M])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- op builders -------------------------------------------------------------------


def _census_ops(seed: int, limit: int | None, scratch: Path) -> list:
    from cmrank import cli, ff, search

    golden = load_golden("census")

    def make(p):
        results_dir = scratch / f"p{p}"  # fresh per op: every sweep is cold
        argv = ["ss5", "--p", str(p), "--mode", "first", "--threads", "1",
                "--results-dir", str(results_dir)]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(output):
            code, stdout = output
            if code != 0:
                return f"exit code {code}"
            record = json.loads(stdout)
            cached = search.result_path(results_dir, p)
            if not cached.exists() or json.loads(cached.read_text()) != record:
                return "results file missing or differs from stdout"
            found = bool(record["solutions"])
            if found != golden[str(p)]["found"]:
                return f"found = {found}, golden {golden[str(p)]['found']}"
            if found:
                u, v = record["solutions"][0]
                ctx = ff.field(p)
                r = search.ss5_check_pair(p, ctx.elem(u), ctx.elem(v), strategy="naive")
                if r.status != "solution":
                    return f"first solution ({u}, {v}) fails the naive recheck: {r.status}"
            return None

        return Op(f"p={p}", run, check)

    return [make(p) for p in census_primes()[:limit]]


def _solutions_ops(seed: int, limit: int | None, scratch: Path) -> list:
    from cmrank import search

    golden = load_golden("solutions")

    def make(p):
        def run():
            return search.ss5_sweep(search.SweepConfig(p=p, mode="all", threads=1))

        def check(result):
            want = golden[str(p)]
            got = [list(s) for s in result.solutions]
            if got != want["solutions"]:
                return f"{len(got)} solutions, golden {len(want['solutions'])} (or order differs)"
            if result.counts != want["counts"]:
                return f"counts {result.counts}, golden {want['counts']}"
            return None

        return Op(f"p={p}", run, check)

    return [make(p) for p in solutions_primes()[:limit]]


def _prank_ops(seed: int, limit: int | None, scratch: Path) -> list:
    from cmrank import cartier

    golden = load_golden("prank")["slots"]
    rng = random.Random(seed)

    def make(i, slot):
        variant = golden[i]["variants"][rng.randrange(len(golden[i]["variants"]))]
        ctx, f = prank_poly(i, slot, variant["nonce"])

        def run():
            return cartier.cartier_matrix(cartier.HyperellipticModel(ctx, f))

        def check(data):
            if any(golden[i][key] != slot[key] for key in slot):
                return "golden file was made for other slots; regenerate it"
            if matrix_digest(data.M) != variant["digest"]:
                return "Cartier-Manin matrix differs from the naive-expansion golden"
            if data.p_rank != variant["p_rank"]:
                return f"p-rank {data.p_rank}, golden {variant['p_rank']}"
            return None

        label = f"slot={i} p={slot['p']} ext={slot['ext']} deg={slot['deg']}"
        return Op(label, run, check)

    return [make(i, slot) for i, slot in enumerate(prank_slots()[:limit])]


def verify_signature(report: dict) -> dict:
    """The golden-relevant part of a suite report."""
    unstable = VERIFY_UNSTABLE_COUNTS.get(report["suite"], ())
    return {
        "passed": report["passed"],
        "checks": sorted(c["name"] for c in report["checks"]),
        "counts": {k: v for k, v in report["counts"].items() if k not in unstable},
    }


def _verify_ops(seed: int, limit: int | None, scratch: Path) -> list:
    from cmrank import verify

    golden = load_golden("verify")

    def make(name):
        def run():
            return verify.run_suite(name, seed=seed, threads=1)

        def check(report):
            got = verify_signature(report)
            if got != golden[name]:
                failed = [c["name"] for c in report["checks"] if not c["passed"]]
                return f"report {got} differs from golden {golden[name]}; failing checks {failed}"
            return None

        return Op(name, run, check)

    return [make(name) for name in VERIFY_SUITES[:limit]]


_BUILDERS = {
    "census": _census_ops,
    "solutions": _solutions_ops,
    "prank": _prank_ops,
    "verify": _verify_ops,
}


def build_ops(workload: str, seed: int, limit: int | None, scratch: Path) -> list:
    """The workload's ops in seed-permuted order.  `limit` keeps only the first
    ops of the canonical order (the smoke configuration)."""
    ops = _BUILDERS[workload](seed, limit, scratch)
    random.Random(f"order:{seed}").shuffle(ops)
    return ops


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A temporary directory inside the checkout, removed afterwards."""
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only when no concurrent run still uses it
