"""Command-line driver: structured JSON in/out, deterministic given a seed.

Exit codes: 0 success, 1 invariant/acceptance failure, 2 parse or input
error, 3 cap violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import arithmetic_sets as ar
from . import covers as cv
from . import decomposition as dc
from . import group_ring as gr
from . import linear_maps as lm
from .acceptance import DEFAULT_SEED, run_all
from .errors import (
    CapExceededError,
    InvariantViolationError,
    PreconditionError,
    SearchBudgetExceededError,
)
from .fp_core import FpMultiset, FpVector, check_ring_cap

FORMAT_VERSION = 1


def _emit(payload: dict, args) -> None:
    payload = {"version": FORMAT_VERSION, **payload}
    if args.format == "rows":
        text = "\n".join(_rows(payload))
    else:
        text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _rows(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        val = payload[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            lines.extend(_rows(val, prefix=name + "."))
        elif isinstance(val, list) and val and isinstance(val[0], (dict, list)):
            for i, item in enumerate(val):
                if isinstance(item, dict):
                    lines.extend(_rows(item, prefix=f"{name}[{i}]."))
                else:
                    lines.append(f"{name}[{i}]: {item}")
        else:
            lines.append(f"{name}: {val}")
    return lines


def _parse_residues(text: str, p: int) -> list[int]:
    """Residue lists like "1,2,3" or ranges "1..10" (inclusive), mixed."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = chunk.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(chunk))
    return [x % p for x in out]


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _multiset_from_args(args) -> FpMultiset:
    if args.input:
        data = _load_json(args.input)
    elif args.vectors:
        data = {"p": args.p, "n": args.n, "vectors": json.loads(args.vectors)}
        if data["n"] is None:
            data["n"] = len(data["vectors"][0]) if data["vectors"] else 0
    else:
        raise PreconditionError("supply --input FILE or --vectors JSON")
    return FpMultiset.from_dict(data)


def _primes_in_range(spec: str) -> list[int]:
    lo, hi = spec.split(":")
    from .fp_core import is_prime

    return [p for p in range(int(lo), int(hi) + 1) if is_prime(p)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_arithmetic_set(args) -> int:
    r = args.r if args.r is not None else 1
    if args.p_range:
        rows = []
        for p in _primes_in_range(args.p_range):
            if p < 5 and not args.min:
                continue
            try:
                A = (
                    ar.min_arithmetic_set(p, r)
                    if args.min
                    else ar.find_small_arithmetic_set(p, seed=args.seed, budget=args.budget)
                )
                rows.append(A.to_dict())
            except SearchBudgetExceededError as exc:
                rows.append({"p": p, "error": str(exc)})
        _emit({"results": rows}, args)
        return 1 if any("error" in row for row in rows) else 0
    if args.p is None:
        raise PreconditionError("--p is required without --p-range")
    if args.min:
        A = ar.min_arithmetic_set(args.p, r)
        _emit(A.to_dict(), args)
        return 0
    if args.small:
        A = ar.find_small_arithmetic_set(args.p, seed=args.seed, budget=args.budget)
        _emit(A.to_dict(), args)
        return 0
    if not args.set:
        raise PreconditionError("supply --set, --min, or --small")
    elements = _parse_residues(args.set, args.p)
    check = ar.is_r_arithmetic(elements, r, args.p)
    payload = {
        "p": args.p,
        "r": r,
        "size": len(set(elements)),
        "elements": sorted(set(elements)),
        "verdict": bool(check),
    }
    if check:
        payload["witnesses"] = {str(a): b for a, b in sorted(check.witnesses.items())}
    else:
        payload["failing_element"] = check.failing
    _emit(payload, args)
    return 0


def _cmd_vanishing(args) -> int:
    V = _multiset_from_args(args)
    r = args.r if args.r is not None else 1
    if args.field == "fp":
        verdict = gr.is_fp_vanishing(V, r, cap=args.cap_ring)
        _emit({"field": "fp", "p": V.p, "n": V.n, "r": r, "vanishing": verdict}, args)
    else:
        check_ring_cap(V.p, V.n, args.cap_ring)
        witness = gr.is_c_vanishing(V, r)
        payload = {"field": "c", "p": V.p, "n": V.n, "r": r, "vanishing": witness is not None}
        if witness is not None:
            payload["twists"] = list(witness)
        _emit(payload, args)
    return 0


def _cmd_irredundant(args) -> int:
    V = _multiset_from_args(args)
    r = args.r if args.r is not None else 1
    W = gr.extract_irredundant_fp(V, r)
    _emit(
        {
            "p": V.p,
            "n": V.n,
            "r": r,
            "input_size": V.size,
            "kept_size": W.size,
            "vectors": [list(v.coords) for v in W.entries],
        },
        args,
    )
    return 0


def _cmd_decompose(args) -> int:
    data = _load_json(args.input)
    p, n = data["p"], data["n"]
    r = data.get("r", 1)
    A = ar.ArithmeticSet.verified(data["A"], r, p)
    plan = dc.DecompositionPlan(p, n, data["bases"], A, r)
    rows = []
    for target in data["targets"]:
        w = FpVector(p, tuple(int(c) % p for c in target))
        rep = plan.decompose(w)
        rows.append(
            {
                "target": list(w.coords),
                "coefficients": list(rep.coefficients),
                "descent_steps": rep.descent_steps,
            }
        )
    _emit({"p": p, "n": n, "r": r, "pool_size": plan.pool.size, "results": rows}, args)
    return 0


def _cmd_phi(args) -> int:
    group = cv.AbelianGroup.from_orders([int(x) for x in args.factors.split(",")])
    cap = args.cap_group
    if args.maximal:
        if len(set(group.factors)) != 1:
            raise PreconditionError("--maximal requires an elementary abelian group")
        p = group.factors[0]
        k, cover = cv.phi_pn_maximal(p, len(group.factors), cap=cap)
    else:
        k, cover = cv.phi_exact(group, cap=cap)
    _emit({"phi": k, "witness": cover.to_dict()["cosets"], "factors": list(group.factors)}, args)
    return 0


def _cmd_covers_check(args) -> int:
    data = _load_json(args.input)
    cover = cv.CosetCover.from_dict(data)
    payload = {
        "factors": list(cover.group.factors),
        "size": cover.size,
        "cover": cv.is_cover(cover),
        "irredundant": cv.is_irredundant_cover(cover),
        "intersection_index": cv.index(cover.group, cv.intersection_subgroup(cover)),
    }
    _emit(payload, args)
    return 0


def _cmd_ajt(args) -> int:
    if args.hunt:
        report = lm.hunt_counterexample(args.p, args.n, args.k, args.trials, seed=args.seed)
        _emit({"counterexample": report}, args)
        return 0
    data = _load_json(args.input)
    p, n = data["p"], data["n"]
    matrices = data["matrices"]
    X = data.get("X", "nonzero")
    if X == "nonzero":
        S = lm.ChoiceSystem.nonzero(p, matrices)
    else:
        S = lm.ChoiceSystem(p, matrices, X)
    witness = lm.find_witness(S, cap=args.cap_ring)
    if witness is not None:
        _emit({"p": p, "n": n, "witness": list(witness.coords)}, args)
        return 0
    cert = lm.failure_certificate(S, cap=args.cap_ring)
    _emit({"p": p, "n": n, "witness": None, "certificate": cert.to_dict()}, args)
    return 0


def _cmd_acceptance(args) -> int:
    numbers = [int(x) for x in args.only.split(",")] if args.only else None
    echo = lambda line: print(line, file=sys.stderr, flush=True)
    results = run_all(seed=args.seed, numbers=numbers, echo=echo)
    payload = {
        "seed": args.seed,
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit(payload, args)
    return 0 if payload["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpvanish",
        description="Exact vanishing products over F_p^n, arithmetic sets, "
        "additive-basis decomposition, coset covers, and non-vanishing maps.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--format", choices=("rows", "json-like"), default="json-like")
    common.add_argument("--out", type=str, default=None, help="write the report to a file")
    common.add_argument("--cap-ring", type=int, default=None, help="max dense table size p^n")
    common.add_argument("--cap-group", type=int, default=None, help="max group order for cover search")
    common.add_argument("--budget", type=int, default=None, help="search budget (verifier calls)")

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("arithmetic-set", parents=[common], help="verify or search arithmetic sets")
    sp.add_argument("--p", type=int)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--set", type=str, help='residues, e.g. "1..10" or "0,1,3"')
    sp.add_argument("--min", action="store_true", help="exhaustive minimal set")
    sp.add_argument("--small", action="store_true", help="randomized small-set search")
    sp.add_argument("--p-range", type=str, help='batch over primes, e.g. "5:199"')
    sp.set_defaults(fn=_cmd_arithmetic_set)

    for name, fn in (("vanishing", _cmd_vanishing), ("irredundant", _cmd_irredundant)):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--input", type=str, help="multiset JSON file")
        sp.add_argument("--vectors", type=str, help="inline JSON vector list")
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--r", type=int, default=None)
        if name == "vanishing":
            sp.add_argument("--field", choices=("fp", "c"), default="fp")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("decompose", parents=[common], help="additive-basis decomposition")
    sp.add_argument("--input", type=str, required=True, help="JSON: p, n, r, bases, A, targets")
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("phi", parents=[common], help="minimal irredundant trivial-intersection cover")
    sp.add_argument("--factors", type=str, required=True, help='cyclic orders, e.g. "2,2"')
    sp.add_argument("--maximal", action="store_true", help="maximal-subgroup cosets only")
    sp.set_defaults(fn=_cmd_phi)

    sp = sub.add_parser("covers", parents=[common], help="coset-cover utilities")
    covers_sub = sp.add_subparsers(dest="covers_command", required=True)
    spc = covers_sub.add_parser("check", parents=[common], help="validate a cover file")
    spc.add_argument("--input", type=str, required=True)
    spc.set_defaults(fn=_cmd_covers_check)

    sp = sub.add_parser("ajt", parents=[common], help="non-vanishing witness search")
    sp.add_argument("--input", type=str, help="JSON: p, n, matrices, X")
    sp.add_argument("--hunt", action="store_true", help="randomized counterexample probe")
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(fn=_cmd_ajt)

    sp = sub.add_parser("acceptance", parents=[common], help="run the acceptance suite")
    sp.add_argument("--only", type=str, default=None, help='criteria numbers, e.g. "1,4,9"')
    sp.set_defaults(fn=_cmd_acceptance)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, SearchBudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
