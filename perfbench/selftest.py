"""Self-tests of the benchmark's checks: each must accept a real output of the
program and reject the same output after one corruption.

    PYTHONPATH=src python3 perfbench/selftest.py   (or: perfbench/run.py --selftest)

Exits 1 if any check accepts a corrupted output or rejects a good one.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import checks as ck
import workloads as wl
from fpvanish import cli
from fpvanish import group_ring as gr
from fpvanish import linear_maps as lm
from fpvanish.fp_core import FpMultiset


SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"


def _tmpdir() -> tempfile.TemporaryDirectory:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def _cli(argv: list[str]) -> dict:
    with _tmpdir() as tmp:
        path = os.path.join(tmp, "out.json")
        if cli.main(argv + ["--out", path]) != 0:
            raise RuntimeError(f"fpvanish {' '.join(argv)} failed")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def _cases():
    """(name, check, good output, corrupted output, words the rejection names)."""
    fs = (2, 2)
    phi = _cli(["phi", "--factors", "2,2"])
    uncovered = copy.deepcopy(phi)
    uncovered["witness"].pop()
    uncovered["phi"] -= 1
    yield "coset family with a point left uncovered", wl._check_phi(fs, False), phi, uncovered, "uncovered"

    redundant = copy.deepcopy(phi)
    redundant["witness"].append({"subgroup_gens": [], "rep": [1, 1]})
    redundant["phi"] += 1
    yield "redundant cover", wl._check_phi(fs, False), phi, redundant, "private point"

    meets = copy.deepcopy(phi)
    meets["witness"] = [{"subgroup_gens": [[0, 1]], "rep": [0, 0]}, {"subgroup_gens": [[0, 1]], "rep": [1, 0]}]
    meets["phi"] = 2
    yield "subgroups that meet non-trivially", wl._check_phi(fs, False), phi, meets, "non-trivially"

    amin = _cli(["arithmetic-set", "--p", "13", "--min"])
    broken = copy.deepcopy(amin)
    broken["elements"] = broken["elements"][:-1]
    broken["size"] -= 1
    yield "set failing the arithmetic property", wl._check_min(13), amin, broken, "fails the arithmetic property"

    p, n = 5, 2
    A = ck.min_arithmetic_set(p)
    bases = [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 2], [3, 2]], [[2, 0], [0, 3]], [[1, 4], [4, 0]]]
    targets = [[3, 4], [0, 2]]
    with _tmpdir() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"p": p, "n": n, "r": 1, "bases": bases, "A": list(A), "targets": targets}, fh)
        dec = _cli(["decompose", "--input", path])
    check_dec = wl._check_decompose(p, n, A, bases, targets, nonzero=False)
    outside = copy.deepcopy(dec)
    outside["results"][0]["coefficients"][0] = next(c for c in range(p) if c not in A)
    yield "coefficient outside A", check_dec, dec, outside, "outside A"
    wrong_sum = copy.deepcopy(dec)
    coeffs = wrong_sum["results"][1]["coefficients"]
    coeffs[0] = next(c for c in A if c != coeffs[0])
    yield "coefficients summing to the wrong target", check_dec, dec, wrong_sum, "target"

    rows = ((1,), (2,), (1,), (1,))
    V = FpMultiset.from_coords(3, rows, n=1)
    verdicts = gr.cover_twist_verdicts(V)
    flipped = verdicts.copy()
    flipped[len(flipped) // 2] ^= True
    yield "verdict table with one bit flipped", wl._check_verdicts(3, 1, rows), verdicts, flipped, "differs"

    least = _cli(["vanishing", "--field", "c", "--p", "3", "--n", "1", "--vectors", json.dumps([list(r) for r in rows])])
    missing = copy.deepcopy(least)
    missing["twists"] = [0, 0, 0, 0]
    yield "twist whose hyperplanes miss a point", wl._check_least_twist(3, 1, rows), least, missing, "uncovered"

    mats = [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]
    x = lm.find_witness(lm.ChoiceSystem.nonzero(5, mats))
    zero = SimpleNamespace(coords=(1, 4))  # first row of the second matrix: 1 + 4 = 0 mod 5
    yield "AJT witness with a zero coordinate", wl._check_ajt(5, 2, mats), (x, None), (zero, None), "with a zero"


def main() -> int:
    bad = 0
    for name, check, good, corrupted, reason in _cases():
        try:
            check(good)
        except ck.CheckFailed as exc:
            print(f"FAIL {name}: the good output was rejected: {exc}")
            bad += 1
            continue
        try:
            check(corrupted)
        except ck.CheckFailed as exc:
            if reason in str(exc):
                print(f"ok   {name}: rejected ({exc})")
            else:
                print(f"FAIL {name}: rejected for another reason: {exc}")
                bad += 1
        else:
            print(f"FAIL {name}: the corrupted output was accepted")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
