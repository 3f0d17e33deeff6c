"""Command-line front end.

Exit codes: 0 success (all checks passed for `verify`), 1 a verification
suite reported a failing check, 2 usage or input-validation error, or a
results path that cannot be read or written (an OSError), 3 an internal
error (any other exception, with its traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict
from functools import lru_cache

from .cartier import HyperellipticModel, cartier_matrix
from .covers import component_p_rank, kani_rosen_triple
from .curves import supersingular_lambdas
from .ff import field, is_prime
from .poly import parse_poly
from .search import (
    SweepConfig,
    result_text,
    ss5_sweep,
    ss5_sweep_ext,
    superspecial_g2_enumeration,
    sweep_with_cache,
    write_result,
)
from .strata import (
    StratumQuery,
    boundary_components,
    smooth_cover_exists,
    stratum_dim,
)
from .verify import DEFAULT_SEED, SUITES, run_suite


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


# built once per process: each build formats every argument to check it,
# and in-process callers (tests, the benchmark) call main many times
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cmrank",
        description="Cartier-Manin matrices, p-ranks of double covers, and superspecial searches",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_prank = sub.add_parser("prank", help="Cartier-Manin matrix and p-rank of y^2 = f(x)")
    p_prank.add_argument("--p", type=int, required=True)
    p_prank.add_argument("--ext", type=int, default=1, choices=(1, 2))
    p_prank.add_argument("--poly", required=True, help="coefficients c0,c1,...,cd")

    p_fiber = sub.add_parser("fiber", help="quotient decomposition of a fiber product")
    p_fiber.add_argument("--p", type=int, required=True)
    p_fiber.add_argument("--ext", type=int, default=1, choices=(1, 2))
    p_fiber.add_argument("--f1", required=True)
    p_fiber.add_argument("--f2", required=True)

    p_ssl = sub.add_parser("ss-lambdas", help="supersingular Legendre parameters in GF(p^2)")
    p_ssl.add_argument("--p", type=int, required=True)

    p_ss5 = sub.add_parser("ss5", help="genus-5 superspecial sweep for one prime")
    p_ss5.add_argument("--p", type=int, required=True)
    p_ss5.add_argument("--mode", default="first", choices=("first", "all"))
    # accepted and ignored, as is SweepConfig.threads: the sweep runs in one
    # thread, and the benchmark's workloads still pass --threads 1
    p_ss5.add_argument("--threads", type=int, default=1)
    p_ss5.add_argument("--results-dir", default="results")
    p_ss5.add_argument("--no-cache", action="store_true", help="do not persist the result")
    p_ss5.add_argument(
        "--ext-field",
        action="store_true",
        help="sweep (u, v) over GF(p^2) instead (exploratory; refused past "
        "search.EXT_ORACLE_GUARD oracle calls, every p < 512 admitted)",
    )

    p_range = sub.add_parser("ss5-range", help="sweep all p = 11 (mod 12) in a range, CSV summary")
    p_range.add_argument("--from", dest="start", type=int, required=True)
    p_range.add_argument("--to", dest="stop", type=int, required=True, help="exclusive bound")
    p_range.add_argument("--mode", default="first", choices=("first", "all"))
    p_range.add_argument("--force", action="store_true", help="recompute cached primes")
    p_range.add_argument("--results-dir", default="results")

    p_enum = sub.add_parser("enumerate-ss-g2", help="exhaustive genus-2 superspecial scan")
    p_enum.add_argument("--p", type=int, required=True)
    p_enum.add_argument("--q", type=int, default=None, help="field size, p or p^2 (default p)")

    p_strata = sub.add_parser("strata", help="stratum dimension formulas")
    strata_sub = p_strata.add_subparsers(dest="strata_cmd", required=True)
    s_dim = strata_sub.add_parser("dim")
    s_dim.add_argument("--g", type=int, required=True)
    s_dim.add_argument("--f", type=int, required=True)
    s_dim.add_argument("--f-e", dest="f_e", type=int, default=0, choices=(0, 1))
    s_dim.add_argument("--space", default="B_Eg", choices=("B_Eg", "B_g", "H_g"))
    s_bnd = strata_sub.add_parser("boundary")
    s_bnd.add_argument("--g", type=int, required=True)
    s_bnd.add_argument("--format", default="json", choices=("json", "table"))
    s_ex = strata_sub.add_parser("exists")
    s_ex.add_argument("--p", type=int, required=True)
    s_ex.add_argument("--g", type=int, required=True)
    s_ex.add_argument("--f", type=int, required=True)
    s_ex.add_argument("--f-e", dest="f_e", type=int, required=True, choices=(0, 1))

    p_verify = sub.add_parser("verify", help="re-run a named verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", default="json", choices=("json", "table"))

    return ap


def _cmd_prank(args) -> int:
    ctx = field(args.p, args.ext)
    f = parse_poly(ctx, args.poly)
    C = HyperellipticModel(ctx, f)
    data = cartier_matrix(C)
    _emit(
        {
            "p": args.p,
            "ext": args.ext,
            "genus": C.genus,
            "matrix": [[str(x) for x in row] for row in data.M],
            "p_rank": data.p_rank,
            "superspecial": all(x.is_zero for row in data.M for x in row),
            "strategy": data.strategy,
        }
    )
    return 0


def _cmd_fiber(args) -> int:
    ctx = field(args.p, args.ext)
    f1 = parse_poly(ctx, args.f1)
    f2 = parse_poly(ctx, args.f2)
    t = kani_rosen_triple(f1, f2)
    comps = [component_p_rank(t.fE), component_p_rank(t.f2), component_p_rank(t.f3)]
    _emit(
        {
            "p": args.p,
            "ext": args.ext,
            "genera": list(t.genera),
            "genus_total": t.genus_total,
            "p_rank_components": comps,
            "p_rank_total": sum(comps),
        }
    )
    return 0


def _cmd_ss_lambdas(args) -> int:
    _emit([str(lam) for lam in supersingular_lambdas(args.p)])
    return 0


def _cmd_ss5(args) -> int:
    # validated before the branch, so --ext-field checks --threads too
    cfg = SweepConfig(p=args.p, mode=args.mode, threads=args.threads)
    result = ss5_sweep_ext(cfg.p, mode=cfg.mode) if args.ext_field else ss5_sweep(cfg)
    # one serialisation serves the record and stdout
    text = result_text(result)
    if not (args.ext_field or args.no_cache):
        write_result(args.results_dir, result, text)
    sys.stdout.write(text)
    return 0


def _cmd_ss5_range(args) -> int:
    # every prime is validated before the first one is swept; SweepConfig
    # raises at the first prime past the bound, ending the scan there
    cfgs = [
        SweepConfig(p=p, mode=args.mode)
        for p in range(args.start, args.stop)
        if p % 12 == 11 and is_prime(p)
    ]
    # the header goes out with the first row, so a prime refused before it
    # leaves stdout empty; a range that holds no prime prints it alone
    header = "p,found,num_solutions,first_u,first_v,tested,elapsed_ms\n"
    for cfg in cfgs:
        result, _ = sweep_with_cache(cfg, args.results_dir, force=args.force)
        found = bool(result.solutions)
        first_u = result.solutions[0][0] if found else ""
        first_v = result.solutions[0][1] if found else ""
        print(
            f"{header}{cfg.p},{int(found)},{len(result.solutions)},{first_u},{first_v},"
            f"{result.counts['tested']},{result.elapsed_ms}"
        )
        header = ""
    print(header, end="")
    return 0


def _cmd_enumerate(args) -> int:
    q = args.q if args.q is not None else args.p
    models = superspecial_g2_enumeration(args.p, q)
    _emit(
        {
            "p": args.p,
            "q": q,
            "count": len(models),
            "models": [str(C.f) for C in models],
        }
    )
    return 0


def _cmd_strata(args) -> int:
    if args.strata_cmd == "dim":
        value = stratum_dim(StratumQuery(g=args.g, f=args.f, f_E=args.f_e, space=args.space))
        _emit({"space": args.space, "g": args.g, "f": args.f, "f_E": args.f_e, "dim": value})
        return 0
    if args.strata_cmd == "boundary":
        comps = boundary_components(args.g)
        rows = [{"label": c.label, **asdict(c)} for c in comps]
        if args.format == "table":
            for r in rows:
                note = f"  ({r['note']})" if r["note"] else ""
                print(
                    f"{r['label']:<14} dim {r['dim']:<3} in {r['contained_in']}{note}"
                )
        else:
            _emit({"g": args.g, "components": rows})
        return 0
    # argparse requires one of dim, boundary and exists
    value = smooth_cover_exists(args.p, args.g, args.f, args.f_e)
    _emit({"p": args.p, "g": args.g, "f": args.f, "f_E": args.f_e, "exists": value})
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    if args.format == "table":
        reports = report.get("reports", [report])
        for r in reports:
            for c in r["checks"]:
                mark = "PASS" if c["passed"] else "FAIL"
                detail = f"  {c['detail']}" if c["detail"] and not c["passed"] else ""
                print(f"[{mark}] {r['suite']}:{c['name']}{detail}")
        print(f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}")
    else:
        _emit(report)
    return 0 if report["passed"] else 1


_HANDLERS = {
    "prank": _cmd_prank,
    "fiber": _cmd_fiber,
    "ss-lambdas": _cmd_ss_lambdas,
    "ss5": _cmd_ss5,
    "ss5-range": _cmd_ss5_range,
    "enumerate-ss-g2": _cmd_enumerate,
    "strata": _cmd_strata,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, IndexError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
