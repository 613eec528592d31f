from __future__ import annotations

import argparse
import ast
import copy
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import fpvanish
from fpvanish import cli, config
from fpvanish.cli import main

import reference as ref
from conftest import cyclic_garbage


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, timeout=None):
    """Run the CLI in a new interpreter: (exit code, stdout, stderr).

    With `timeout` (seconds), a run that does not finish raises
    subprocess.TimeoutExpired, so a hang fails the test instead of stalling it.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(fpvanish.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "fpvanish.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    return done.returncode, done.stdout, done.stderr


# `arithmetic-set` output recorded from the dense O(p^2 r) verifier and the
# apply-then-undo swap loop.  Stdout is pinned as its SHA-256 next to the
# elements, since the witness tables run to p entries.
# (p, seed): elements and stdout hash of `--p P --small --seed S`.
PINNED_SMALL = {
    (11, 1): ([0, 1, 2, 4, 7], "cec1118b0443c40cd32ea3a051af866b66c7696027bc24127d3ce8157172e578"),
    (11, 2): ([0, 1, 2, 4, 7], "cec1118b0443c40cd32ea3a051af866b66c7696027bc24127d3ce8157172e578"),
    (11, 3): ([0, 1, 2, 4, 7], "cec1118b0443c40cd32ea3a051af866b66c7696027bc24127d3ce8157172e578"),
    (11, 4): ([0, 1, 2, 4, 7], "cec1118b0443c40cd32ea3a051af866b66c7696027bc24127d3ce8157172e578"),
    (13, 1): ([0, 1, 2, 3, 5, 8], "5518f041cd1ae35c2a5d00b9e94acf8613669545f2aa97fd4d2c3ba429766942"),
    (13, 2): ([0, 1, 2, 3, 5, 8], "5518f041cd1ae35c2a5d00b9e94acf8613669545f2aa97fd4d2c3ba429766942"),
    (13, 3): ([0, 1, 2, 3, 5, 8], "5518f041cd1ae35c2a5d00b9e94acf8613669545f2aa97fd4d2c3ba429766942"),
    (13, 4): ([0, 1, 2, 3, 5, 8], "5518f041cd1ae35c2a5d00b9e94acf8613669545f2aa97fd4d2c3ba429766942"),
    (37, 1): ([1, 2, 4, 6, 8, 18, 19, 29, 35, 36], "2f00ceff6285484f2534d241b0a8b462ace93fcfa2e29689ceac313035fabb1d"),
    (37, 2): ([7, 11, 12, 13, 17, 19, 23, 25, 31, 34], "2720af201d5ddd6cbe67270848d469f3258e40d6e66768a6f3f7800a8213dd0c"),
    (37, 3): ([3, 7, 8, 10, 13, 20, 24, 26, 27, 36], "696ddd060bdb43a5de036e340977cde74999a045f3b2a0364f617a3f128cdf60"),
    (37, 4): ([0, 3, 10, 11, 14, 15, 20, 25, 33, 34], "e013f2eb06682bf885a0e65c0d1df1343f5a3400887f938156cd84e8abc4b26f"),
    (61, 1): ([3, 4, 9, 16, 20, 37, 42, 43, 51, 60], "b077a99831090e519967c038d3a893f3d6803776e463282d4498d5885f633b99"),
    (61, 2): ([1, 11, 24, 28, 32, 40, 43, 47, 51, 52], "22bcd57e045890d224c42f6870a633974f670ea0567d0d5bbcd428a5f5e67d22"),
    (61, 3): ([0, 11, 19, 20, 22, 25, 27, 28, 29, 36], "65744b0672293f6bcb463c3df766436541fe3f1207edb4f4f4838cad54ab0bcb"),
    (61, 4): ([0, 1, 2, 4, 7, 10, 16, 25, 43, 60], "7c8e7d4c781a0e2ba223152535b1281867cb28b3dea400336ae57c7ae0717683"),
    (97, 1): ([10, 17, 23, 25, 40, 45, 47, 51, 63, 77, 79, 80], "20bc0d61b5ee310470cd9edfcf21400f27d825b25293966ca815c7202c64f851"),
    (97, 2): ([0, 16, 27, 31, 32, 33, 39, 64, 65, 70, 81, 94], "9befdcbcae24be00a16f775f75d25ecd6d857bfe5fa4c286bb257d14f0a92954"),
    (97, 3): ([0, 13, 16, 19, 21, 26, 36, 39, 59, 66, 76, 93], "776d049e866c4fc4a8bf7cac1ec412f56afebd0760d8b01a59ee55006e253d47"),
    (97, 4): ([9, 22, 30, 31, 53, 54, 62, 70, 71, 75, 86, 88], "ad09bd111d9ea9360c17f803569051a0756add20717dcae2fd16a9d547981aa5"),
    (101, 1): ([1, 9, 20, 37, 44, 53, 66, 67, 73, 79, 88, 97], "6edced656764b1015e8142b8c66cc98b0e50c65ea6c82d17833a59a2beb98ebf"),
    (101, 2): ([17, 25, 26, 31, 33, 34, 35, 53, 81, 82, 83, 100], "0ea1fdee61be18679586422bedfe2b1a2673888d690876b9d0123118c46f8b51"),
    (101, 3): ([3, 16, 38, 44, 47, 63, 72, 82, 90, 95, 96, 100], "310976ccebc3d4d8a24bc5555294c5dd819ee8ec043ec4c5a2faf17bf320ea0d"),
    (101, 4): ([1, 29, 35, 39, 46, 51, 56, 57, 73, 79, 98, 100], "71d39365cee1c2b251452340ad3f1e4a3c120bc540dc22b90edb7ea3599ec358"),
    (151, 1): ([16, 31, 38, 42, 48, 85, 99, 110, 119, 128, 133, 135, 136, 137], "0aaeae0cc9e787d26f7f34bbdc0ff813d4cb0f3633053ba8acdc6d188a54177f"),
    (151, 2): ([21, 32, 35, 65, 79, 90, 101, 114, 115, 129, 131, 137, 138, 143], "fb1b93ce9413933d1f2334cae6519d33393c3649a2e37a9e8942ff08d5c81fdc"),
    (151, 3): ([0, 29, 35, 44, 58, 59, 70, 83, 84, 93, 116, 122, 139, 140], "e40e24a44aa55775720a72079e5f3d65a8217f1d4261c9e529e0657cc385e1ee"),
    (151, 4): ([17, 32, 34, 47, 48, 83, 84, 88, 91, 93, 109, 134, 136, 138], "12b397bfebefc4425319b570d66c5d01f53664e8f6feebc44b25f69b8e22c896"),
    (199, 1): ([17, 22, 88, 94, 105, 119, 145, 146, 153, 155, 158, 171, 187, 188], "9238627675610141d48bc417047f46696f6719566f1947e0c2a64fb9826b80b2"),
    (199, 2): ([5, 26, 31, 41, 44, 60, 77, 94, 128, 130, 149, 157, 166, 184], "8f4d0b86f759e418aca0e722661e677f587b2fb9a728873b8a9cc6a268efed6d"),
    (199, 3): ([6, 14, 68, 75, 83, 85, 104, 141, 144, 176, 189, 193, 194, 197], "08363bf882a2736fded85eb745ef2e378265c5cd57e2d5cf1e92833b9a66deb5"),
    (199, 4): ([0, 18, 36, 41, 61, 72, 82, 90, 103, 109, 124, 139, 154, 182], "92149aa90116c7796d01fcc9275b35eee50d2e50174629e1f0842bd96f1a5b97"),
}

# (p, r): elements and stdout hash of `--p P --min --r R`.
PINNED_MIN = {
    (2, 1): ([0, 1], "b896435ca55dc7e1519fada7cf8b5d586ee82b1afacf5340c921dfc45c36907f"),
    (3, 1): ([0, 1, 2], "f10bbf5b164c1777a29e3eb74ddda9119f16f5ce40bfa46649024362d46bad5e"),
    (5, 1): ([0, 1, 2, 3], "8882ee3835cf57872314d55fcbb502bec7523e030c21ed78b7a678cdb90661b2"),
    (7, 1): ([0, 1, 2, 3, 4], "aae83825a76909a1764959c9dcf2ac7033b73bfdf3ea63978358f4652840b7d0"),
    (11, 1): ([0, 1, 2, 4, 7], "cec1118b0443c40cd32ea3a051af866b66c7696027bc24127d3ce8157172e578"),
    (13, 1): ([0, 1, 2, 3, 5, 8], "5518f041cd1ae35c2a5d00b9e94acf8613669545f2aa97fd4d2c3ba429766942"),
    (17, 1): ([0, 1, 2, 3, 6, 11], "4eb0372f5088593953a4e5f16cdeda08d69298c7833eb414b6d1aab549643e1a"),
    (19, 1): ([0, 1, 2, 4, 7, 12], "76bbdb54470990327814b0e9c0e3dc1016401a4dd13ae70b6a98f5b3a358aa01"),
    (23, 1): ([0, 1, 2, 3, 4, 8, 15], "4ee2f149e06c422cc4981f352b73fac6ff97df0eec4371fdba4c003a1a97a714"),
    (29, 1): ([0, 1, 2, 3, 6, 10, 19], "ac8b22e298eaaad508d562d3b4bbe4cff8bb2f88d34ee17545b7f0a4c92e3a2d"),
    (31, 1): ([0, 1, 2, 3, 6, 11, 20], "c1f7322a06f8756081b6189c7c77b61dd64a1b56be84120206baadfa57a6992d"),
    (3, 2): ([0, 1, 2], "afbe9bdec818d5d4b5bcb22d2605bdabdf6330f847c244d5fd8f845fe0f4f09a"),
    (5, 2): ([0, 1, 2, 3, 4], "bf5260feadc86fdd9b3b5b029338933e985ba177007d8d2dbd96543499d2ecfc"),
    (7, 2): ([0, 1, 2, 3, 4, 5], "932604f0cc80eb44cc29961d23165be6955771a83ab083ee602b891d636122cc"),
    (11, 2): ([0, 1, 2, 3, 4, 5, 6, 7, 8], "d628f94b829c00c2524c976f01b4d4f88753737e5269b18f8ab6dd29c881aef9"),
    (13, 2): ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "536f90ce75ff1181315557c14a928012044614749afdc1f3a1c749ebb08b9359"),
    (17, 2): ([0, 1, 2, 3, 4, 5, 7, 8, 12, 13, 15], "c733339d9ed7e4f5fe8cb5b9650cbb1897e4bd684e7423585514acbd801609ab"),
    (19, 2): ([0, 1, 2, 3, 4, 5, 6, 7, 9, 12, 14, 17], "49877227dd79a9ed22ad9bbff43a5a800bb4e7402f22cef6e3447523ef032492"),
    (23, 2): ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 19], "00c05eea3a67dc6614e115d07dca0fd75bf0967369cc8c4842c9fddd0a170934"),
    (5, 3): ([0, 1, 2, 3, 4], "dbd42a4d957bf7a706895a61799b128d291d8d5bf0d86525d554afb9086d508c"),
    (7, 3): ([0, 1, 2, 3, 4, 5, 6], "90bdf058064d9df8ffc350f4345986e4cd5085babc84f3d78d72ed2dfe27a4a6"),
    (11, 3): ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "fcbb14272b560a6f38a29b5f9e55b31214173fd21ba4e490b16b44bb33bfb7a6"),
    (13, 3): ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "d036957045c4118d027150892769da1fd3d2f4582c3b4470707b42a1d7a70f1a"),
}

# (p, seed, budget, stderr) of `--p P --small --seed S --budget B` runs that
# run out of budget (exit 2).
PINNED_SMALL_BUDGET = [
    (61, 1, 5, "error: no verified arithmetic set of size <= 10 found in F_61 within 5 verifier calls (best candidate had 3 violations)\n"),
    (61, 2, 10, "error: no verified arithmetic set of size <= 10 found in F_61 within 10 verifier calls (best candidate had 3 violations)\n"),
    (97, 1, 10, "error: no verified arithmetic set of size <= 12 found in F_97 within 10 verifier calls (best candidate had 2 violations)\n"),
    (101, 3, 50, "error: no verified arithmetic set of size <= 12 found in F_101 within 50 verifier calls (best candidate had 2 violations)\n"),
    (151, 1, 100, "error: no verified arithmetic set of size <= 14 found in F_151 within 100 verifier calls (best candidate had 1 violations)\n"),
    (199, 4, 200, "error: no verified arithmetic set of size <= 14 found in F_199 within 200 verifier calls (best candidate had 1 violations)\n"),
    (37, 3, 2, "error: no verified arithmetic set of size <= 10 found in F_37 within 2 verifier calls (best candidate had 2 violations)\n"),
    (53, 2, 30, "error: no verified arithmetic set of size <= 10 found in F_53 within 30 verifier calls (best candidate had 1 violations)\n"),
]


class TestArithmeticSetCommand:
    def test_verify_fpstar(self, capsys):
        code, out, _ = run_cli(
            capsys, "arithmetic-set", "--p", "11", "--r", "4", "--set", "1..10"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["version"] == 1
        assert payload["size"] == 10

    def test_verify_fpstar_at_large_p(self, capsys):
        # the verifier's difference blocks keep memory bounded at any p
        code, out, _ = run_cli(capsys, "arithmetic-set", "--p", "100003", "--set", "1..100002")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["size"] == 100002

    def test_min_search(self, capsys):
        code, out, _ = run_cli(capsys, "arithmetic-set", "--p", "5", "--min")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 4
        assert payload["elements"] == [0, 1, 2, 3]

    def test_batch_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "arithmetic-set", "--p-range", "11:13", "--small"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["p"] for row in payload["results"]] == [11, 13]

    def test_missing_p_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "arithmetic-set", "--set", "1,2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("p", ["0", "4"])
    def test_set_checks_the_modulus_first(self, capsys, p):
        code, out, err = run_cli(capsys, "arithmetic-set", "--p", p, "--set", "1")
        assert (code, out) == (2, "")
        assert err == f"input error: modulus must be a prime >= 2, got {p}\n"

    def test_long_range_is_not_listed(self, capsys):
        # 10^12 integers could not be listed; a range of at least p adds all of F_p
        short, long = (
            run_cli(capsys, "arithmetic-set", "--p", "5", "--set", spec) for spec in ("0..4", "0..1000000000000")
        )
        assert short == long and short[0] == 0

    def test_reused_parser_matches_fresh_process(self, capsys):
        sequence = [
            ["arithmetic-set", "--p", "13", "--min"],
            ["arithmetic-set", "--p", "13", "--small", "--seed", "1"],
            ["arithmetic-set", "--p", "13", "--min"],
        ]
        for argv in sequence:
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == run_fresh(*argv)[:2]

    @pytest.mark.parametrize(
        "argv",
        [
            # 2^61 - 1 is prime; trial division to its square root would not end
            ["--p", "2305843009213693951", "--min"],
            # dense p-entry tables would not fit in memory
            ["--p", "1000000007", "--small"],
        ],
    )
    def test_huge_p_hits_the_cap_at_once(self, argv):
        code, out, err = run_fresh("arithmetic-set", *argv, timeout=30)
        assert code == 3
        assert out == ""
        assert err.startswith("cap exceeded:") and "Traceback" not in err

    def test_cap_comes_before_primality_for_min(self, capsys):
        code, _, err = run_cli(capsys, "arithmetic-set", "--p", "33", "--min")
        assert code == 3
        assert "capped at p <= 31, got 33" in err

    @pytest.mark.parametrize(
        "p_range,mode,got",
        [
            # 2^61 - 1 alone: the range holds one prime, past both caps
            ("2305843009213693951:2305843009213693951", "--min", "got 2305843009213693951"),
            ("2305843009213693951:2305843009213693951", "--small", "2305843009213693951 exceeds cap"),
            # the primes up to 31 are minimized, then 37 is past the cap
            ("5:100000000", "--min", "got 37"),
            # the primes below the ring cap are never searched
            ("5:100000000", "--small", "10000019 exceeds cap"),
            # 2^89 - 1 is prime and past 3.3e24, where is_prime trial-divides
            ("618970019642690137449562111:618970019642690137449562111", "--min",
             "got 618970019642690137449562111"),
            ("618970019642690137449562111:618970019642690137449562111", "--small",
             "618970019642690137449562111 exceeds cap"),
            # the least integer past the cap no base proves composite ends it
            ("618970019642690137449562100:618970019642690137449562200", "--min",
             "got 618970019642690137449562111"),
        ],
    )
    def test_p_range_past_the_cap_exits_at_once(self, p_range, mode, got):
        code, out, err = run_fresh("arithmetic-set", "--p-range", p_range, mode, timeout=30)
        assert code == 3
        assert out == ""
        assert err.startswith("cap exceeded:") and got in err and "Traceback" not in err

    @pytest.mark.parametrize("p_range", ["0:2", "2:13", "13:11", "20:23", "29:36", "32:36"])
    def test_min_p_range_reports_each_prime_as_p_does(self, capsys, p_range):
        """Up to the cap, including ranges that pass it only through composites."""
        lo, hi = (int(x) for x in p_range.split(":"))
        primes = [p for p in range(lo, hi + 1) if p > 1 and all(p % d for d in range(2, p))]
        rows = []
        for p in primes:
            row = json.loads(run_cli(capsys, "arithmetic-set", "--p", str(p), "--min")[1])
            del row["version"]
            rows.append(row)
        code, out, _ = run_cli(capsys, "arithmetic-set", "--p-range", p_range, "--min")
        assert code == 0
        assert out == json.dumps({"version": 1, "results": rows}, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            # the exponent check at p = 2 comes before the cap at 37
            (["--p-range", "2:40", "--min", "--r", "3"], 2, "r must lie in [1, p-1], got 3"),
            (["--p-range", "29:40", "--min"], 3, "capped at p <= 31, got 37"),
        ],
    )
    def test_p_range_keeps_the_first_error(self, capsys, argv, code, message):
        got, out, err = run_cli(capsys, "arithmetic-set", *argv)
        assert (got, out) == (code, "")
        assert message in err

    def test_reused_parser_carries_nothing_over(self):
        sequence = [
            ["arithmetic-set", "--p", "13", "--min"],
            ["arithmetic-set", "--p", "13", "--small", "--seed", "1"],
            ["phi", "--factors", "2,2", "--maximal"],
            ["arithmetic-set", "--p", "13", "--min"],
        ]
        for argv in sequence:
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("where", [["--p", "13"], ["--p-range", "11:13"]])
    def test_small_search_takes_r_1_only(self, capsys, where):
        # the randomized search finds 1-arithmetic sets; it used to print one for any --r
        code, out, err = run_cli(capsys, "arithmetic-set", *where, "--small", "--r", "3")
        assert (code, out) == (2, "")
        assert "--small searches r = 1 only, got --r 3" in err
        assert run_cli(capsys, "arithmetic-set", *where, "--small", "--r", "1")[0] == 0

    @pytest.mark.parametrize("p,seed", list(PINNED_SMALL), ids=[f"p{p}s{s}" for p, s in PINNED_SMALL])
    def test_pinned_small(self, capsys, p, seed):
        elements, digest = PINNED_SMALL[p, seed]
        code, out, err = run_cli(capsys, "arithmetic-set", "--p", str(p), "--small", "--seed", str(seed))
        assert (code, err) == (0, "")
        assert json.loads(out)["elements"] == elements
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p,r", list(PINNED_MIN), ids=[f"p{p}r{r}" for p, r in PINNED_MIN])
    def test_pinned_min(self, capsys, p, r):
        elements, digest = PINNED_MIN[p, r]
        code, out, err = run_cli(capsys, "arithmetic-set", "--p", str(p), "--min", "--r", str(r))
        assert (code, err) == (0, "")
        assert json.loads(out)["elements"] == elements
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p,seed,budget,message", PINNED_SMALL_BUDGET)
    def test_pinned_budget_exhaustion(self, capsys, p, seed, budget, message):
        argv = ["--p", str(p), "--small", "--seed", str(seed), "--budget", str(budget)]
        assert run_cli(capsys, "arithmetic-set", *argv) == (2, "", message)

    def test_determinism(self, capsys):
        a = run_cli(capsys, "arithmetic-set", "--p", "31", "--small", "--seed", "5")
        b = run_cli(capsys, "arithmetic-set", "--p", "31", "--small", "--seed", "5")
        assert a == b


class TestVanishingCommands:
    def test_fp_vanishing_inline(self, capsys):
        code, out, _ = run_cli(
            capsys, "vanishing", "--vectors", "[[1],[1],[1]]", "--p", "3", "--n", "1"
        )
        assert code == 0
        assert json.loads(out)["vanishing"] is True

    def test_c_vanishing_with_witness(self, capsys, tmp_path):
        path = tmp_path / "ms.json"
        path.write_text(json.dumps({"p": 3, "n": 1, "vectors": [[1], [1], [1]]}))
        code, out, _ = run_cli(capsys, "vanishing", "--input", str(path), "--field", "c")
        assert code == 0
        payload = json.loads(out)
        assert payload["vanishing"] is True and payload["twists"] == [0, 1, 2]

    def test_irredundant(self, capsys):
        code, out, _ = run_cli(
            capsys, "irredundant", "--vectors", "[[1],[1],[1],[1]]", "--p", "3", "--n", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kept_size"] == 3

    def test_irredundant_cap_ring_lowered(self, capsys):
        code, out, err = run_cli(
            capsys, "irredundant", "--p", "3", "--n", "3",
            "--vectors", "[[1,0,0],[1,0,0],[1,0,0]]", "--cap-ring", "10",
        )
        assert code == 3
        assert out == ""
        assert err == "cap exceeded: p^n = 3^3 = 27 exceeds cap 10\n"

    def test_cap_message_does_not_print_a_huge_p_to_the_n(self, capsys, tmp_path):
        # (10^200 + 1)^24 has 4,801 digits, past Python's int-to-str limit;
        # n = 24 is within the default cap's bit length, so p^n is built
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"p": 10**200 + 1, "n": 24, "vectors": []}))
        code, out, err = run_cli(capsys, "vanishing", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == f"cap exceeded: p^n = {10**200 + 1}^24 exceeds cap 10000000\n"

    def test_irredundant_cap_ring_raised(self, capsys, monkeypatch):
        monkeypatch.setattr(config, "RING_SIZE_CAP", 4)
        code, out, _ = run_cli(
            capsys, "irredundant", "--p", "3", "--n", "3",
            "--vectors", "[[1,0,0],[1,0,0],[1,0,0],[0,1,0]]", "--cap-ring", "100",
        )
        assert code == 0
        assert json.loads(out)["vectors"] == [[1, 0, 0]] * 3

    def test_failed_certification_exits_1(self, capsys, monkeypatch):
        from fpvanish import group_ring as gr

        # a product that does not vanish for the cover oracle's witness
        monkeypatch.setattr(gr, "binomial_product_cyc", lambda V, t, r=1, cap=None: ref.cyc_unit(V.p, V.n))
        code, out, err = run_cli(
            capsys, "vanishing", "--field", "c", "--p", "3", "--n", "1", "--vectors", "[[1],[1],[1]]"
        )
        assert code == 1
        assert out == ""
        assert "invariant violation" in err and "Traceback" not in err

    def test_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "vanishing",
            "--vectors",
            "[[1,1]]",
            "--p",
            "5",
            "--n",
            "2",
            "--cap-ring",
            "3",
        )
        assert code == 3
        assert "cap" in err

    def test_large_n_hits_the_cap_at_once(self, capsys):
        # 3^(10^8) has 47 million digits: the cap must not build it
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "vanishing", "--p", "3", "--n", "100000000", "--vectors", "[]")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"cap exceeded: p^n = 3^100000000 exceeds cap {config.RING_SIZE_CAP}\n"

    @pytest.mark.parametrize("field", ["fp", "c"])
    def test_cap_comes_before_primality(self, field):
        # 2^89 - 1 is prime and past 3.3e24, where is_prime trial-divides
        code, out, err = run_fresh(
            "vanishing", "--field", field, "--p", "618970019642690137449562111", "--vectors", "[[1]]", timeout=30
        )
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded: p^n = 618970019642690137449562111^1") and "Traceback" not in err

    @pytest.mark.parametrize("r", ["0", "3"])
    @pytest.mark.parametrize("vectors", ["[[1],[1]]", "[[1],[1],[1]]"])
    def test_c_vanishing_exponent_out_of_range(self, capsys, vectors, r):
        # r used to be checked only when a witness was certified
        code, out, err = run_cli(
            capsys, "vanishing", "--field", "c", "--p", "3", "--n", "1", "--r", r, "--vectors", vectors
        )
        assert code == 2
        assert out == ""
        assert f"got r={r} for p=3" in err and "Traceback" not in err

    def test_c_vanishing_cap_ring_caps_the_space(self, capsys):
        code, out, err = run_cli(
            capsys, "vanishing", "--field", "c", "--p", "3", "--n", "3",
            "--vectors", "[[1,0,0]]", "--cap-ring", "10",
        )
        assert code == 3
        assert out == ""
        assert "p^n = 3^3 = 27 exceeds cap 10" in err and "Traceback" not in err

    def test_c_vanishing_cap_ring_is_not_the_twist_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "vanishing", "--field", "c", "--p", "3", "--n", "1",
            "--vectors", "[[1],[1],[1]]", "--cap-ring", "20",
        )
        assert code == 0
        assert json.loads(out)["twists"] == [0, 1, 2]
        assert "Traceback" not in err


# decompose inputs drawn with numpy default_rng(1), (2), (3): F_5^3 and F_7^2
# with r = 1 over a least arithmetic set, F_11^2 with r = 4 over F_11^*.
# Their plans have one level.  The fourth, F_5^2 with (1, 0) in every basis,
# has two, and its second level's coefficients enter the first level's
# T-part.  Each expected row is (coefficients, descent_steps) per target,
# recorded from the FpVector-based descent; stdout must stay byte-identical.
PINNED_DECOMPOSE = [
    (
        {"p": 5, "n": 3, "r": 1, "A": [0, 1, 2, 3],
         "bases": [[[0, 0, 4], [3, 4, 2], [4, 1, 2]], [[4, 1, 2], [1, 0, 3], [0, 1, 2]],
                   [[4, 1, 3], [0, 1, 4], [2, 2, 1]], [[0, 2, 3], [2, 3, 1], [3, 3, 4]],
                   [[2, 0, 3], [2, 4, 2], [1, 0, 2]]],
         "targets": [[3, 3, 4], [1, 2, 4], [1, 1, 4], [2, 2, 3]]},
        [([0, 0, 0, 0, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 2], 0),
         ([0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 2, 3, 1], 1),
         ([0, 0, 0, 0, 3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3], 0),
         ([0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1], 0)],
    ),
    (
        {"p": 7, "n": 2, "r": 1, "A": [0, 1, 2, 3, 4],
         "bases": [[[5, 1], [0, 2]], [[2, 5], [3, 0]], [[2, 4], [5, 5]], [[6, 1], [6, 0]],
                   [[3, 1], [1, 4]], [[2, 3], [1, 1]], [[5, 3], [4, 4]]],
         "targets": [[6, 2], [1, 4], [6, 6], [6, 4]]},
        [([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0], 1),
         ([0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], 0),
         ([0, 0, 4, 0, 0, 0, 0, 0, 0, 4, 4, 0, 0, 0], 1),
         ([0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 2, 0, 0], 0)],
    ),
    (
        {"p": 11, "n": 2, "r": 4, "A": list(range(1, 11)),
         "bases": [[[8, 0], [1, 2]], [[0, 1], [3, 4]], [[6, 5], [2, 1]]],
         "targets": [[7, 8], [0, 1], [4, 4], [9, 5]]},
        [([1, 6, 6, 1, 1, 3], 4), ([1, 9, 9, 1, 1, 9], 3), ([1, 7, 2, 1, 1, 1], 4), ([1, 3, 6, 10, 1, 3], 3)],
    ),
    (
        {"p": 5, "n": 2, "r": 1, "A": [0, 1, 2, 3],
         "bases": [[[2, 4], [1, 0]], [[1, 0], [2, 2]], [[4, 2], [1, 0]], [[1, 0], [4, 1]], [[0, 2], [1, 0]]],
         "targets": [[4, 4], [2, 2], [0, 1], [3, 1]]},
        [([0, 0, 0, 2, 0, 0, 0, 0, 0, 0], 1),
         ([0, 0, 2, 0, 0, 2, 0, 2, 0, 0], 1),
         ([0, 1, 0, 0, 0, 0, 0, 1, 0, 0], 0),
         ([0, 0, 2, 0, 0, 2, 0, 1, 0, 0], 1)],
    ),
]


# decompose inputs at the shapes where the relation search runs the most
# reachability levels: F_7^5, F_5^6 and F_13^3 with r = 1 over a least
# arithmetic set, F_11^4 with r = 4 over F_11^*.  Bases and targets were drawn
# with numpy default_rng(71), (56), (133), (114); every target needs at least
# one descent step.  Rows are (coefficients, descent_steps) as above.
PINNED_DECOMPOSE_LARGE = [
    (
        {"p": 7, "n": 5, "r": 1, "A": [0, 1, 2, 3, 4],
         "bases": [
             [[6, 1, 3, 3, 3], [5, 2, 4, 4, 1], [0, 0, 6, 3, 3], [1, 1, 4, 2, 0], [4, 5, 0, 2, 1]],
             [[2, 3, 4, 2, 6], [3, 1, 5, 3, 6], [6, 2, 1, 6, 1], [0, 2, 1, 1, 6], [4, 1, 2, 1, 6]],
             [[0, 3, 3, 2, 0], [5, 5, 6, 6, 3], [5, 3, 0, 4, 1], [3, 6, 4, 1, 1], [6, 5, 4, 4, 4]],
             [[6, 0, 6, 5, 1], [4, 6, 2, 1, 5], [4, 5, 5, 5, 3], [3, 6, 1, 3, 6], [1, 6, 0, 2, 5]],
             [[4, 3, 5, 6, 3], [2, 0, 4, 2, 4], [5, 0, 5, 3, 5], [5, 2, 1, 2, 4], [3, 5, 1, 0, 2]],
             [[4, 0, 0, 2, 2], [6, 1, 0, 4, 3], [0, 4, 6, 1, 2], [2, 6, 2, 1, 1], [1, 2, 0, 4, 1]],
             [[1, 0, 2, 3, 5], [2, 2, 6, 4, 5], [3, 2, 4, 1, 2], [3, 1, 6, 4, 0], [4, 4, 6, 1, 1]],
         ],
         "targets": [[6, 5, 2, 6, 0], [6, 0, 3, 1, 5], [6, 0, 5, 6, 0]]},
        [
            ([0, 0, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 4, 0, 4, 0], 2),
            ([0, 0, 0, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 2, 0, 4, 0], 1),
            ([0, 0, 0, 4, 0, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 3, 2, 4, 0, 1, 0], 2),
        ],
    ),
    (
        {"p": 5, "n": 6, "r": 1, "A": [0, 1, 2, 3],
         "bases": [
             [[2, 1, 1, 3, 1, 1], [3, 2, 4, 2, 3, 1], [4, 3, 0, 3, 1, 2], [2, 3, 4, 4, 1, 4], [3, 4, 3, 2, 0, 2], [0, 4, 0, 0, 1, 2]],
             [[3, 3, 2, 1, 4, 2], [1, 3, 0, 2, 2, 1], [3, 0, 2, 4, 2, 2], [1, 2, 0, 3, 2, 3], [4, 3, 2, 2, 0, 2], [2, 4, 4, 1, 0, 1]],
             [[1, 1, 2, 1, 3, 4], [3, 2, 4, 4, 0, 1], [3, 1, 3, 0, 0, 4], [4, 3, 0, 2, 0, 3], [0, 0, 4, 3, 3, 3], [1, 0, 4, 2, 2, 1]],
             [[4, 4, 1, 3, 0, 0], [0, 4, 2, 2, 0, 4], [1, 3, 1, 2, 0, 1], [0, 3, 4, 0, 1, 2], [3, 2, 3, 1, 4, 1], [1, 1, 0, 2, 1, 1]],
             [[2, 4, 4, 0, 3, 4], [2, 1, 1, 0, 4, 3], [2, 3, 4, 4, 2, 1], [4, 2, 2, 4, 4, 1], [0, 1, 4, 0, 2, 1], [3, 2, 1, 0, 1, 2]],
         ],
         "targets": [[3, 0, 4, 0, 0, 1], [2, 1, 2, 2, 3, 4], [3, 2, 4, 1, 2, 4]]},
        [
            ([2, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0], 1),
            ([1, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 3, 0, 2, 0, 0, 0], 2),
            ([0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 3, 0, 0, 0], 1),
        ],
    ),
    (
        {"p": 13, "n": 3, "r": 1, "A": [0, 1, 2, 3, 5, 8],
         "bases": [
             [[6, 12, 0], [6, 3, 4], [10, 7, 9]],
             [[7, 4, 3], [6, 10, 9], [11, 10, 7]],
             [[3, 7, 7], [9, 9, 8], [0, 2, 10]],
             [[8, 10, 2], [7, 6, 1], [10, 7, 3]],
             [[1, 1, 9], [8, 5, 11], [5, 9, 0]],
             [[3, 2, 4], [8, 7, 9], [9, 1, 2]],
             [[12, 1, 0], [10, 9, 10], [8, 9, 5]],
             [[2, 3, 0], [9, 7, 3], [6, 4, 10]],
             [[3, 0, 3], [10, 1, 6], [8, 4, 4]],
             [[12, 12, 8], [1, 7, 2], [10, 4, 0]],
             [[6, 11, 8], [3, 3, 3], [8, 8, 10]],
             [[10, 3, 10], [1, 0, 3], [2, 2, 11]],
             [[9, 11, 7], [7, 0, 10], [8, 11, 1]],
         ],
         "targets": [[9, 11, 1], [12, 6, 11], [3, 10, 2]]},
        [
            ([0, 8, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 3, 0, 0, 0], 2),
            ([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 8, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0], 1),
            ([0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 5, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0], 2),
        ],
    ),
    (
        {"p": 11, "n": 4, "r": 4, "A": list(range(1, 11)),
         "bases": [
             [[1, 8, 9, 1], [0, 4, 4, 7], [9, 6, 4, 7], [6, 4, 3, 5]],
             [[0, 9, 7, 1], [4, 1, 1, 0], [8, 6, 7, 1], [0, 3, 2, 10]],
             [[7, 9, 3, 0], [4, 10, 0, 4], [4, 5, 6, 9], [2, 4, 8, 1]],
         ],
         "targets": [[2, 2, 3, 3], [8, 5, 6, 0], [7, 0, 6, 8]]},
        [
            ([10, 1, 1, 1, 6, 2, 1, 1, 1, 3, 1, 2], 5),
            ([6, 1, 1, 10, 3, 2, 1, 1, 1, 1, 2, 4], 5),
            ([6, 1, 1, 1, 1, 10, 1, 1, 1, 1, 6, 1], 6),
        ],
    ),
]


# Exact `phi --factors F` and `phi --factors F --maximal` output as
# (factors, phi, [(subgroup_gens, rep), ...]): every group of order <= 16, and
# every elementary group.

PINNED_PHI = [
    ("2", 2, [([], [0]), ([], [1])]),
    ("3", 3, [([], [0]), ([], [1]), ([], [2])]),
    ("4", 3, [([], [0]), ([[2]], [1]), ([], [2])]),
    ("2,2", 3, [([], [0, 0]), ([], [0, 1]), ([[0, 1]], [1, 0])]),
    ("5", 5, [([], [0]), ([], [1]), ([], [2]), ([], [3]), ([], [4])]),
    ("2,3", 4, [([], [0, 0]), ([], [0, 1]), ([], [0, 2]), ([[0, 1]], [1, 0])]),
    ("7", 7, [([], [0]), ([], [1]), ([], [2]), ([], [3]), ([], [4]), ([], [5]), ([], [6])]),
    ("8", 4, [([], [0]), ([[2]], [1]), ([[4]], [2]), ([], [4])]),
    ("2,4", 4, [([], [0, 0]), ([[0, 2]], [0, 1]), ([], [0, 2]), ([[0, 1]], [1, 0])]),
    ("2,2,2", 4, [([], [0, 0, 0]), ([], [0, 0, 1]), ([[0, 0, 1]], [0, 1, 0]), ([[0, 0, 1], [0, 1, 0]], [1, 0, 0])]),
    ("9", 5, [([], [0]), ([[3]], [1]), ([[3]], [2]), ([], [3]), ([], [6])]),
    ("3,3", 4, [([[0, 1]], [0, 0]), ([[1, 0]], [0, 0]), ([[1, 1]], [0, 0]), ([[1, 2]], [0, 0])]),
    ("2,5", 6, [([], [0, 0]), ([], [0, 1]), ([], [0, 2]), ([], [0, 3]), ([], [0, 4]), ([[0, 1]], [1, 0])]),
    ("11", 11, [([], [0]), ([], [1]), ([], [2]), ([], [3]), ([], [4]), ([], [5]), ([], [6]), ([], [7]), ([], [8]), ([], [9]), ([], [10])]),
    ("3,4", 5, [([], [0, 0]), ([[0, 2]], [0, 1]), ([], [0, 2]), ([[0, 1]], [1, 0]), ([[0, 1]], [2, 0])]),
    ("2,2,3", 5, [([], [0, 0, 0]), ([], [0, 0, 1]), ([], [0, 0, 2]), ([[0, 0, 1]], [0, 1, 0]), ([[0, 0, 1], [0, 1, 0]], [1, 0, 0])]),
    ("13", 13, [([], [0]), ([], [1]), ([], [2]), ([], [3]), ([], [4]), ([], [5]), ([], [6]), ([], [7]), ([], [8]), ([], [9]), ([], [10]), ([], [11]), ([], [12])]),
    ("2,7", 8, [([], [0, 0]), ([], [0, 1]), ([], [0, 2]), ([], [0, 3]), ([], [0, 4]), ([], [0, 5]), ([], [0, 6]), ([[0, 1]], [1, 0])]),
    ("3,5", 7, [([], [0, 0]), ([], [0, 1]), ([], [0, 2]), ([], [0, 3]), ([], [0, 4]), ([[0, 1]], [1, 0]), ([[0, 1]], [2, 0])]),
    ("16", 5, [([], [0]), ([[2]], [1]), ([[4]], [2]), ([[8]], [4]), ([], [8])]),
    ("2,8", 5, [([], [0, 0]), ([[0, 2]], [0, 1]), ([[0, 4]], [0, 2]), ([], [0, 4]), ([[0, 1]], [1, 0])]),
    ("4,4", 5, [([], [0, 0]), ([[0, 2]], [0, 1]), ([], [0, 2]), ([[0, 1], [2, 0]], [1, 0]), ([[0, 1]], [2, 0])]),
    ("2,2,4", 5, [([], [0, 0, 0]), ([[0, 0, 2]], [0, 0, 1]), ([], [0, 0, 2]), ([[0, 0, 1]], [0, 1, 0]), ([[0, 0, 1], [0, 1, 0]], [1, 0, 0])]),
    ("2,2,2,2", 5, [([], [0, 0, 0, 0]), ([], [0, 0, 0, 1]), ([[0, 0, 0, 1]], [0, 0, 1, 0]), ([[0, 0, 0, 1], [0, 0, 1, 0]], [0, 1, 0, 0]), ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], [1, 0, 0, 0])]),
]

PINNED_PHI_MAXIMAL = [
    ("2", 2, [([], [0]), ([], [1])]),
    ("3", 3, [([], [0]), ([], [1]), ([], [2])]),
    ("2,2", 3, [([[0, 1]], [0, 0]), ([[1, 0]], [0, 0]), ([[1, 1]], [0, 0])]),
    ("5", 5, [([], [0]), ([], [1]), ([], [2]), ([], [3]), ([], [4])]),
    ("7", 7, [([], [0]), ([], [1]), ([], [2]), ([], [3]), ([], [4]), ([], [5]), ([], [6])]),
    ("2,2,2", 4, [([[0, 0, 1], [0, 1, 0]], [0, 0, 0]), ([[0, 0, 1], [1, 0, 0]], [0, 0, 0]), ([[0, 1, 0], [1, 0, 0]], [0, 0, 0]), ([[0, 1, 1], [1, 0, 1]], [0, 0, 1])]),
    ("3,3", 4, [([[0, 1]], [0, 0]), ([[1, 0]], [0, 0]), ([[1, 1]], [0, 0]), ([[1, 2]], [0, 0])]),
    ("11", 11, [([], [0]), ([], [1]), ([], [2]), ([], [3]), ([], [4]), ([], [5]), ([], [6]), ([], [7]), ([], [8]), ([], [9]), ([], [10])]),
    ("13", 13, [([], [0]), ([], [1]), ([], [2]), ([], [3]), ([], [4]), ([], [5]), ([], [6]), ([], [7]), ([], [8]), ([], [9]), ([], [10]), ([], [11]), ([], [12])]),
    ("2,2,2,2", 5, [([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], [0, 0, 0, 0]), ([[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0]], [0, 0, 0, 0]), ([[0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]], [0, 0, 0, 0]), ([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], [0, 0, 0, 0]), ([[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1]], [0, 0, 0, 0])]),
]


class TestDecomposeCommand:
    def test_fixture(self, capsys, tmp_path):
        path = tmp_path / "dec.json"
        path.write_text(
            json.dumps(
                {
                    "p": 5,
                    "n": 1,
                    "r": 1,
                    "bases": [[[1]], [[2]], [[1]], [[3]], [[1]]],
                    "A": [1, 2, 3, 4],
                    "targets": [[t] for t in range(5)],
                }
            )
        )
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 5
        for row in payload["results"]:
            assert all(c in {1, 2, 3, 4} for c in row["coefficients"])

    @pytest.mark.parametrize(
        "data,rows",
        PINNED_DECOMPOSE + PINNED_DECOMPOSE_LARGE,
        ids=["p5n3", "p7n2", "p11n2r4", "p5n2two_levels", "p7n5", "p5n6", "p13n3", "p11n4r4"],
    )
    def test_pinned_output(self, capsys, tmp_path, data, rows):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 0
        results = [
            {"coefficients": coeffs, "descent_steps": steps, "target": target}
            for (coeffs, steps), target in zip(rows, data["targets"])
        ]
        payload = {"n": data["n"], "p": data["p"], "pool_size": len(rows[0][0]),
                   "r": data["r"], "results": results, "version": 1}
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_wrong_vector_length_exits_2(self, capsys, tmp_path):
        path = tmp_path / "dec.json"
        bases = [[[1, 0], [0, 1]]] * 4 + [[[0, 1, 3], [1, 0]]]
        path.write_text(json.dumps({"p": 5, "n": 2, "bases": bases, "A": [0, 1, 2, 3], "targets": [[1, 1]]}))
        code, out, err = run_cli(capsys, "decompose", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: basis 4 has a vector with 3 coordinates, expected 2\n"


class TestPhiAndCovers:
    def test_phi_klein_four(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--factors", "2,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"] == 3
        assert len(payload["witness"]) == 3

    def test_phi_group_cap_before_factoring(self, capsys):
        # 2^61 - 1 is prime: splitting it by trial division would take minutes
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "phi", "--factors", "2305843009213693951")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "group order 2305843009213693951 exceeds cap 16" in err

    @pytest.mark.parametrize("flags", [[], ["--maximal"]])
    def test_phi_group_cap(self, capsys, flags):
        code, out, err = run_cli(capsys, "phi", "--factors", "17", *flags)
        assert code == 3
        assert out == ""
        assert err == "cap exceeded: group order 17 exceeds cap 16\n"

    def test_phi_non_positive_order_is_input_error(self, capsys):
        # the product 34 exceeds the cap, but the input error comes first
        code, out, err = run_cli(capsys, "phi", "--factors=-2,-17")
        assert code == 2
        assert out == ""
        assert "cyclic order must be positive, got -2" in err

    @pytest.mark.parametrize("factors", ["4,4", "9", "1", "6", "2,3"])
    def test_phi_maximal_needs_elementary_group(self, capsys, factors):
        # prime powers and the trivial group are refused like composite orders
        code, out, err = run_cli(capsys, "phi", "--factors", factors, "--maximal")
        assert code == 2
        assert out == ""
        assert err == "error: --maximal requires an elementary abelian group\n"

    @pytest.mark.parametrize(
        "flags,pin",
        [([], pin) for pin in PINNED_PHI] + [(["--maximal"], pin) for pin in PINNED_PHI_MAXIMAL],
        ids=[f"phi_{pin[0]}" for pin in PINNED_PHI] + [f"maximal_{pin[0]}" for pin in PINNED_PHI_MAXIMAL],
    )
    def test_pinned_phi(self, capsys, flags, pin):
        factors, k, witness = pin
        code, out, _ = run_cli(capsys, "phi", "--factors", factors, *flags)
        assert code == 0
        payload = {
            "factors": [int(d) for d in factors.split(",")],
            "phi": k,
            "version": 1,
            "witness": [{"rep": rep, "subgroup_gens": gens} for gens, rep in witness],
        }
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "cosets,index",
        [
            # one coset of the 2^16-element subgroup on the first 16 coordinates
            ([{"subgroup_gens": [[int(i == j) for j in range(23)] for i in range(16)],
               "rep": [0] * 16 + [1, 0, 1, 1, 0, 0, 1]}], 128),
            # one coset of the 2-element subgroup of the all-ones element
            ([{"subgroup_gens": [[1] * 23], "rep": [0, 1] * 11 + [1]}], 2**22),
        ],
        ids=["subgroup_2^16", "subgroup_2"],
    )
    def test_covers_check_large_group_memory(self, capsys, tmp_path, cosets, index):
        # Z_2^23 is inside the default cap: each coset is an 8M-bit mask, and
        # no step may list the group's or the subgroup's elements one by one
        import tracemalloc

        path = tmp_path / "cover.json"
        path.write_text(json.dumps({"factors": [2] * 23, "cosets": cosets}))
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "covers", "check", "--input", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = {"cover": False, "factors": [2] * 23, "intersection_index": index,
                   "irredundant": False, "size": 1, "version": 1}
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert peak < 64 * 2**20

    def test_covers_check(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        path.write_text(
            json.dumps(
                {
                    "factors": [2, 2],
                    "cosets": [
                        {"subgroup_gens": [[0, 1]], "rep": [0, 0]},
                        {"subgroup_gens": [[1, 0]], "rep": [0, 1]},
                        {"subgroup_gens": [[1, 1]], "rep": [0, 1]},
                    ],
                }
            )
        )
        code, out, _ = run_cli(capsys, "covers", "check", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["cover"] is True
        assert payload["irredundant"] is True
        assert payload["intersection_index"] == 4

    @pytest.mark.parametrize(
        "rank,flags", [(14, ["--cap-group", "16"]), (24, [])]  # 2^24 > RING_SIZE_CAP
    )
    def test_covers_check_group_cap(self, capsys, tmp_path, rank, flags):
        path = tmp_path / "cover.json"
        path.write_text(
            json.dumps({"factors": [2] * rank, "cosets": [{"subgroup_gens": [], "rep": [0] * rank}]})
        )
        code, out, err = run_cli(capsys, "covers", "check", "--input", str(path), *flags)
        assert code == 3
        assert out == ""
        assert f"group order {2**rank} exceeds cap" in err

    @pytest.mark.parametrize(
        "factors,code,message",
        [
            ([-2, -10000000], 2, "cyclic order must be positive"),
            ([2, 10000000], 3, "group order 20000000 exceeds cap 10000000"),
        ],
    )
    def test_covers_check_input_error_before_cap(self, capsys, tmp_path, factors, code, message):
        path = tmp_path / "cover.json"
        path.write_text(json.dumps({"factors": factors, "cosets": []}))
        got, out, err = run_cli(capsys, "covers", "check", "--input", str(path))
        assert got == code
        assert out == ""
        assert message in err and "Traceback" not in err

    def test_covers_check_cap_group_before_check(self, tmp_path):
        # the options belong to `check`: parsed at group level, check's
        # defaults would overwrite them and the cap would be dropped
        path = tmp_path / "cover.json"
        path.write_text(json.dumps({"factors": [2, 2], "cosets": [{"subgroup_gens": [], "rep": [0, 0]}]}))
        code, out, err = run_fresh("covers", "--cap-group", "2", "check", "--input", str(path))
        assert (code, out) == (2, "")
        assert "fpvanish covers: error:" in err
        code, out, err = run_fresh("covers", "check", "--cap-group", "2", "--input", str(path))
        assert (code, out) == (3, "")
        assert "group order 4 exceeds cap 2" in err

    def test_covers_check_wrong_coordinate_length(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        path.write_text(
            json.dumps(
                {
                    "factors": [2, 2],
                    "cosets": [
                        {"subgroup_gens": [[1]], "rep": [0]},
                        {"subgroup_gens": [[1]], "rep": [1]},
                    ],
                }
            )
        )
        code, out, err = run_cli(capsys, "covers", "check", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "coordinates" in err


class TestAjtCommand:
    def test_witness_path(self, capsys, tmp_path):
        path = tmp_path / "ajt.json"
        path.write_text(json.dumps({"p": 5, "n": 2, "matrices": [[[1, 0], [0, 1]]], "X": "nonzero"}))
        code, out, _ = run_cli(capsys, "ajt", "--input", str(path))
        assert code == 0
        assert json.loads(out)["witness"] == [1, 1]

    def test_certificate_path(self, capsys, tmp_path):
        path = tmp_path / "ajt.json"
        path.write_text(
            json.dumps(
                {"p": 2, "n": 1, "matrices": [[[1]], [[1]]], "X": [[[0]], [[1]]]}
            )
        )
        code, out, _ = run_cli(capsys, "ajt", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"] is None
        assert len(payload["certificate"]["J"]) == 2

    @pytest.mark.parametrize("X,witness", [("nonzero", 1), ([[[0]]] * 3, 0)], ids=["nonzero", "zero_only"])
    def test_large_p_memory(self, capsys, tmp_path, X, witness):
        # each allowed set is a row of p booleans, not a set of up to p - 1
        # residues, whether X is F_p^* or a single value
        import tracemalloc

        path = tmp_path / "ajt.json"
        path.write_text(json.dumps({"p": 1000003, "n": 1, "matrices": [[[2]], [[3]], [[5]]], "X": X}))
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "ajt", "--input", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = {"n": 1, "p": 1000003, "version": 1, "witness": [witness]}
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert peak < 64 * 2**20

    def test_matrices_must_be_n_by_n(self, capsys, tmp_path):
        # the file's n used to be printed beside a witness of another length
        path = tmp_path / "ajt.json"
        path.write_text(json.dumps({"p": 5, "n": 3, "matrices": [[[1, 0], [0, 1]]]}))
        code, out, err = run_cli(capsys, "ajt", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: matrices must be 3x3 integer matrices\n"

    def test_cap_comes_before_primality(self, tmp_path):
        # 2^89 - 1: is_prime trial-divides it, and range(1, p) overflows
        path = tmp_path / "ajt.json"
        path.write_text(json.dumps({"p": 618970019642690137449562111, "n": 1, "matrices": [[[1]]]}))
        code, out, err = run_fresh("ajt", "--input", str(path), timeout=30)
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded: p^n = 618970019642690137449562111^1") and "Traceback" not in err

    def test_hunt_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "ajt", "--hunt", "--p", "5", "--n", "2", "--k", "2", "--trials", "5"
        )
        assert code == 0
        assert json.loads(out)["counterexample"] is None

    @pytest.mark.parametrize("argv", [["--n", "800", "--trials", "1"], ["--n", "2", "--cap-ring", "5"]])
    def test_hunt_checks_the_ring_cap_before_drawing(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("a matrix was drawn before the ring-cap check")

        monkeypatch.setattr(cli.lm, "random_invertible", refuse)
        code, out, err = run_cli(capsys, "ajt", "--hunt", "--p", "3", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded: p^n = 3^")

    def test_hunt_rejects_p_1(self):
        # over F_1 every matrix is zero, so drawing an invertible one never ends
        code, out, err = run_fresh(
            "ajt", "--hunt", "--p", "1", "--n", "2", "--k", "2", "--trials", "5", timeout=30
        )
        assert code == 2
        assert out == ""
        assert "modulus must be a prime" in err and "Traceback" not in err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv,content,message",
        [
            (["vanishing", "--p", "3", "--vectors", "5"], None, "vectors must be"),
            (["vanishing", "--p", "3", "--vectors", "[1, 2]"], None, "vectors must be"),
            (["vanishing", "--vectors", "[[1, 2]]"], None, "--vectors needs --p"),
            (["vanishing", "--input"], [[1, 0], [0, 1]], "must hold a JSON object"),
            (
                ["decompose", "--input"],
                {"p": 5, "n": 1, "r": 1, "A": [0, 1, 2, 3], "bases": 5, "targets": [[1]]},
                "bases must be",
            ),
            (["ajt", "--hunt", "--k", "0"], None, "at least one matrix required"),
            (["ajt"], None, "supply --input FILE or --hunt"),
        ],
        ids=["vectors_int", "vectors_flat", "vectors_no_p", "input_list", "bases_int", "hunt_k0", "ajt_no_input"],
    )
    def test_exits_2_without_traceback(self, capsys, tmp_path, argv, content, message):
        if content is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(content))
            argv = argv + [str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err

    def test_deep_nesting_exits_2(self, capsys, tmp_path):
        # json.load recurses once per level of nesting
        path = tmp_path / "deep.json"
        path.write_text('{"factors": ' + "[" * 100000 + "]" * 100000 + "}")
        code, out, err = run_cli(capsys, "covers", "check", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path} nests its JSON too deeply\n"


# One valid input per file reader and the exact stdout recorded for it.
MULTISET = {"p": 3, "n": 2, "vectors": [[1, 0], [0, 1], [1, 0], [1, 1], [1, 0], [2, 1]]}
KLEIN_COVER = {
    "factors": [2, 2],
    "cosets": [
        {"subgroup_gens": [[0, 1]], "rep": [0, 0]},
        {"subgroup_gens": [[1, 0]], "rep": [0, 1]},
        {"subgroup_gens": [[1, 1]], "rep": [0, 1]},
    ],
}
AJT_WITNESS = {"p": 5, "n": 2, "matrices": [[[1, 0], [0, 1]], [[1, 1], [0, 1]]], "X": "nonzero"}
AJT_CERTIFICATE = {"p": 2, "n": 1, "matrices": [[[1]], [[1]]], "X": [[[0]], [[1]]]}
PINNED_READERS = [
    (["vanishing"], MULTISET, {"field": "fp", "n": 2, "p": 3, "r": 1, "vanishing": True}),
    (
        ["vanishing", "--field", "c"],
        {"p": 3, "n": 2, "vectors": [[1, 1], [0, 1], [1, 0], [2, 0], [1, 0]]},
        {"field": "c", "n": 2, "p": 3, "r": 1, "twists": [0, 0, 0, 1, 1], "vanishing": True},
    ),
    (
        ["irredundant"],
        MULTISET,
        {"input_size": 6, "kept_size": 3, "n": 2, "p": 3, "r": 1, "vectors": [[1, 0], [1, 0], [1, 0]]},
    ),
    (
        ["covers", "check"],
        KLEIN_COVER,
        {"cover": True, "factors": [2, 2], "intersection_index": 4, "irredundant": True, "size": 3},
    ),
    (["ajt"], AJT_WITNESS, {"n": 2, "p": 5, "witness": [1, 1]}),
    (
        ["ajt"],
        AJT_CERTIFICATE,
        {
            "certificate": {"J": [[0, 0, 1], [1, 0, 0]], "normals": [[1], [1]], "offsets": [1, 0]},
            "n": 1, "p": 2, "witness": None,
        },
    ),
]


class TestReaders:
    @pytest.mark.parametrize(
        "argv,data,payload", PINNED_READERS,
        ids=["vanishing_fp", "vanishing_c", "irredundant", "covers_check", "ajt_witness", "ajt_certificate"],
    )
    def test_pinned_output(self, capsys, tmp_path, argv, data, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, *argv, "--input", str(path))
        assert code == 0
        assert out == json.dumps({**payload, "version": 1}, sort_keys=True, indent=2) + "\n"

    def test_fuzzed_leaves_exit_cleanly(self, capsys, tmp_path):
        """Every node of one valid file per reader, replaced by each junk value.

        Exhaustive, so it is the same run every time: no exception may leave
        main, the exit code is 0, 2 or 3, and no traceback reaches stderr.
        """
        junk = [5, -1, 0, 1.5, "x", None, [], [5], [[]], {}, True, [[1.5]], 10**30]
        files = [
            (["vanishing"], MULTISET),
            (["irredundant"], MULTISET),
            (["decompose"], {"p": 5, "n": 1, "r": 1, "bases": [[[1]], [[2]], [[1]], [[3]], [[1]]],
                             "A": [1, 2, 3, 4], "targets": [[0], [3]]}),
            (["covers", "check"], KLEIN_COVER),
            (["ajt"], AJT_WITNESS),
            (["ajt"], AJT_CERTIFICATE),
        ]
        path = tmp_path / "input.json"
        failures = []
        runs = 0
        for argv, data in files:
            for where in _node_paths(data):
                for value in junk:
                    mutated = copy.deepcopy(data)
                    node = mutated
                    for key in where[:-1]:
                        node = node[key]
                    node[where[-1]] = value
                    path.write_text(json.dumps(mutated))
                    runs += 1
                    try:
                        code, _, err = run_cli(capsys, *argv, "--input", str(path))
                    except BaseException as exc:  # noqa: BLE001  (any escape is the failure)
                        capsys.readouterr()
                        failures.append((argv, where, value, type(exc).__name__))
                        continue
                    if code not in (0, 2, 3) or "Traceback" in err:
                        failures.append((argv, where, value, code))
        assert runs > 1000
        assert failures == []

    def test_field_leaves_no_reference_cycle(self):
        assert cyclic_garbage(lambda: cli._field({"vectors": [[1, 0], [0, 1]]}, "vectors", 2)) == 0


def _node_paths(node, prefix=()):
    """Key paths of every node of a JSON value below the root, leaves included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _subcommands(parser):
    """Name -> parser of every leaf subcommand ("covers check" for nested ones)."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                inner = _subcommands(sp)
                out.update({f"{name} {k}": v for k, v in inner.items()} if inner else {name: sp})
    return out


def _reads(fn):
    """Attributes of `args` that fn reads, following the cli helpers it passes `args` to."""
    names = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
                names |= _reads(getattr(cli, node.func.id))
    return names


class TestOptions:
    def test_each_subcommand_takes_the_options_its_handler_reads(self):
        parsers = _subcommands(cli.build_parser())
        assert len(parsers) == 8
        for name, sp in parsers.items():
            options = {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
            assert options == _reads(sp.get_default("fn")), name

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--input", "x.json", "--cap-ring", "1"],
            ["acceptance", "--budget", "1", "--cap-group", "1"],
            ["phi", "--factors", "2,2", "--seed", "1"],
            ["vanishing", "--vectors", "[[1]]", "--p", "3", "--cap-group", "1"],
        ],
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        # an option the handler does not read is refused, not dropped
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "unrecognized arguments" in captured.err


class TestOutputModes:
    def test_rows_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "arithmetic-set", "--p", "5", "--min", "--format", "rows"
        )
        assert code == 0
        assert "size: 4" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "arithmetic-set", "--p", "5", "--min", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["size"] == 4

    def test_acceptance_single_criterion(self, capsys):
        code, out, err = run_cli(capsys, "acceptance", "--only", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert "PASS" in err

    def test_bad_json_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 2
