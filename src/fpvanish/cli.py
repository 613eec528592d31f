"""Command-line driver: structured JSON in/out, deterministic given a seed.

Exit codes: 0 success, 1 invariant/acceptance failure, 2 parse or input
error, 3 cap violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from typing import Optional, Sequence

from . import arithmetic_sets as ar
from . import config
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
from .fp_core import FpMultiset, FpVector, _as_prime, _probable_prime, check_ring_cap, is_prime

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
    """Residue lists like "1,2,3" or ranges "1..10" (inclusive), mixed, mod p.

    A range of at least p integers holds every residue, so it adds range(p)
    without listing its own integers.
    """
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = chunk.split("..")
            lo, hi = int(lo), int(hi)
            out.extend(range(p) if hi - lo + 1 >= p else range(lo, hi + 1))
        else:
            out.append(int(chunk))
    return [x % p for x in out]


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise PreconditionError(f"{path} nests its JSON too deeply") from None
    if not isinstance(data, dict):
        raise PreconditionError(f"{path} must hold a JSON object")
    return data


def _nested_ints(value, depth: int) -> bool:
    """True iff value is an int (depth 0) or a list of integers nested `depth` deep."""
    if depth == 0:
        return type(value) is int
    return isinstance(value, list) and all(_nested_ints(v, depth - 1) for v in value)


def _field(data: dict, key: str, depth: int = 0, default=None):
    """data[key] as an integer (depth 0) or a list of integers nested `depth` deep.

    Booleans and floats are refused; a missing key or any other value raises
    PreconditionError naming the key.
    """
    value = data.get(key, default)
    if not _nested_ints(value, depth):
        shape = "an integer" if depth == 0 else "a list of " + "lists of " * (depth - 1) + "integers"
        raise PreconditionError(f"{key} must be {shape}")
    return value


def _space(data: dict, cap: Optional[int]) -> tuple[int, int]:
    """The modulus p and dimension n of an input, p^n held to `cap` before any primality test."""
    p, n = _field(data, "p"), _field(data, "n")
    if p < 2 or n < 0:
        raise PreconditionError(f"need p >= 2 and n >= 0, got p = {p}, n = {n}")
    check_ring_cap(p, n, cap)
    return p, n


def _group(orders: list[int], cap: int) -> cv.AbelianGroup:
    """The group of the cyclic orders, refused above `cap` before from_orders
    trial-divides them; a non-positive order is left to from_orders' input error."""
    order = math.prod(orders)
    if order > cap and min(orders) >= 1:
        raise CapExceededError(f"group order {order} exceeds cap {cap}")
    return cv.AbelianGroup.from_orders(orders)


def _multiset_from_args(args) -> FpMultiset:
    if args.input:
        data = _load_json(args.input)
    elif args.vectors:
        if args.p is None:
            raise PreconditionError("--vectors needs --p")
        data = {"p": args.p, "n": args.n, "vectors": json.loads(args.vectors)}
    else:
        raise PreconditionError("supply --input FILE or --vectors JSON")
    vectors = _field(data, "vectors", 2)
    if not args.input and args.n is None:
        data["n"] = len(vectors[0]) if vectors else 0
    p, n = _space(data, args.cap_ring)
    return FpMultiset.from_coords(p, vectors, n=n)


def _split_range(spec: str, cap: int) -> tuple[range, Optional[int]]:
    """The integers of the inclusive range "lo:hi" up to `cap`, and the first
    integer of the range above `cap` that Miller-Rabin to the thirteen bases
    does not prove composite (None if there is none).

    Below 3.3 * 10^24 that integer is the least prime above `cap`; beyond,
    where primality would need trial division, the run still ends with the
    cap error that --p gives for it, so nothing past it is tested.
    """
    lo, hi = (int(x) for x in spec.split(":"))
    above = next((p for p in range(max(lo, cap + 1), hi + 1) if _probable_prime(p)), None)
    return range(lo, min(hi, cap) + 1), above


# ---------------------------------------------------------------------------
# subcommands


def _cmd_arithmetic_set(args) -> int:
    r = args.r if args.r is not None else 1
    if not args.min and (args.small or args.p_range) and r != 1:
        raise PreconditionError(f"--small searches r = 1 only, got --r {r}")
    if args.p_range:
        cap = config.MIN_ARITHMETIC_P_CAP if args.min else config.RING_SIZE_CAP
        below, above = _split_range(args.p_range, cap)
        if above is not None and not args.min:
            # a search below the cap reports its failure as a row, so the cap
            # error at `above` is the run's outcome whatever they find
            below = range(0)
        rows = []
        for p in [p for p in below if is_prime(p)] + ([] if above is None else [above]):
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
    # the modulus is checked before _parse_residues reduces by it
    elements = _parse_residues(args.set, _as_prime(args.p))
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
        witness = gr.is_c_vanishing(V, r)
        payload = {"field": "c", "p": V.p, "n": V.n, "r": r, "vanishing": witness is not None}
        if witness is not None:
            payload["twists"] = list(witness)
        _emit(payload, args)
    return 0


def _cmd_irredundant(args) -> int:
    V = _multiset_from_args(args)
    r = args.r if args.r is not None else 1
    W = gr.extract_irredundant_fp(V, r, cap=args.cap_ring)
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
    p, n = _space(data, None)
    r, elements = _field(data, "r", default=1), _field(data, "A", 1)
    bases, targets = _field(data, "bases", 3), _field(data, "targets", 2)
    A = ar.ArithmeticSet.verified(elements, r, p)
    plan = dc.DecompositionPlan(p, n, bases, A, r)
    rows = []
    for target in targets:
        w = FpVector(p, tuple(c % p for c in target))
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
    cap = config.GROUP_ORDER_CAP if args.cap_group is None else args.cap_group
    group = _group([int(x) for x in args.factors.split(",")], cap)
    if args.maximal:
        p = group.factors[0]
        if len(set(group.factors)) != 1 or not is_prime(p):
            raise PreconditionError("--maximal requires an elementary abelian group")
        k, cover = cv.phi_pn_maximal(p, len(group.factors), cap=cap)
    else:
        k, cover = cv.phi_exact(group, cap=cap)
    _emit({"phi": k, "witness": cover.to_dict()["cosets"], "factors": list(group.factors)}, args)
    return 0


def _cmd_covers_check(args) -> int:
    data = _load_json(args.input)
    # each coset is a |G|-bit mask: refuse a large group before any subgroup closure
    cap = config.RING_SIZE_CAP if args.cap_group is None else args.cap_group
    g = _group(_field(data, "factors", 1), cap)
    items = data.get("cosets")
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise PreconditionError("cosets must be a list of objects")
    cosets = [(_field(item, "subgroup_gens", 2), _field(item, "rep", 1)) for item in items]
    cover = cv.CosetCover(
        g, tuple((g.subgroup([g.encode(c) for c in gens]), g.encode(x)) for gens, x in cosets)
    )
    payload = {
        "factors": list(cover.group.factors),
        "size": cover.size,
        "cover": cv.is_cover(cover),
        "irredundant": cv.is_irredundant_cover(cover),
        "intersection_index": cv.intersection_subgroup(cover).index(),
    }
    _emit(payload, args)
    return 0


def _cmd_ajt(args) -> int:
    if args.hunt:
        report = lm.hunt_counterexample(
            args.p, args.n, args.k, args.trials, seed=args.seed, cap=args.cap_ring
        )
        _emit({"counterexample": report}, args)
        return 0
    if not args.input:
        raise PreconditionError("supply --input FILE or --hunt")
    data = _load_json(args.input)
    p, n = _space(data, args.cap_ring)
    matrices = _field(data, "matrices", 3)
    if any(len(M) != n or any(len(row) != n for row in M) for M in matrices):
        raise PreconditionError(f"matrices must be {n}x{n} integer matrices")
    # reduced here, so an entry past int64 never reaches numpy
    matrices = [[[c % p for c in row] for row in M] for M in matrices]
    if data.get("X", "nonzero") == "nonzero":
        S = lm.ChoiceSystem.nonzero(p, matrices)
    else:
        S = lm.ChoiceSystem(p, matrices, _field(data, "X", 3))
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
    # every handler reads `common`; each other option goes only where it is read
    common, seed, budget, cap_ring, cap_group = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    common.add_argument("--format", choices=("rows", "json-like"), default="json-like")
    common.add_argument("--out", type=str, default=None, help="write the report to a file")
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    budget.add_argument("--budget", type=int, default=None, help="search budget (verifier calls)")
    cap_ring.add_argument("--cap-ring", type=int, default=None, help="max dense table size p^n")
    cap_group.add_argument("--cap-group", type=int, default=None, help="max group order for cover search")

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "arithmetic-set", parents=[common, seed, budget], help="verify or search arithmetic sets"
    )
    sp.add_argument("--p", type=int)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--set", type=str, help='residues, e.g. "1..10" or "0,1,3"')
    sp.add_argument("--min", action="store_true", help="exhaustive minimal set")
    sp.add_argument("--small", action="store_true", help="randomized small-set search")
    sp.add_argument("--p-range", type=str, help='batch over primes, e.g. "5:199"')
    sp.set_defaults(fn=_cmd_arithmetic_set)

    for name, fn in (("vanishing", _cmd_vanishing), ("irredundant", _cmd_irredundant)):
        sp = sub.add_parser(name, parents=[common, cap_ring])
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

    sp = sub.add_parser(
        "phi", parents=[common, cap_group], help="minimal irredundant trivial-intersection cover"
    )
    sp.add_argument("--factors", type=str, required=True, help='cyclic orders, e.g. "2,2"')
    sp.add_argument("--maximal", action="store_true", help="maximal-subgroup cosets only")
    sp.set_defaults(fn=_cmd_phi)

    # the options go on `check`: given to the group parser too, the subparser's
    # defaults would overwrite them
    sp = sub.add_parser("covers", help="coset-cover utilities")
    covers_sub = sp.add_subparsers(dest="covers_command", required=True)
    spc = covers_sub.add_parser("check", parents=[common, cap_group], help="validate a cover file")
    spc.add_argument("--input", type=str, required=True)
    spc.set_defaults(fn=_cmd_covers_check)

    sp = sub.add_parser("ajt", parents=[common, seed, cap_ring], help="non-vanishing witness search")
    sp.add_argument("--input", type=str, help="JSON: p, n, matrices, X")
    sp.add_argument("--hunt", action="store_true", help="randomized counterexample probe")
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(fn=_cmd_ajt)

    sp = sub.add_parser("acceptance", parents=[common, seed], help="run the acceptance suite")
    sp.add_argument("--only", type=str, default=None, help='criteria numbers, e.g. "1,4,9"')
    sp.set_defaults(fn=_cmd_acceptance)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args fills a fresh namespace and leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
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
