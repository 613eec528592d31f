from __future__ import annotations

import json

import pytest

from fpvanish.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_failed_certification_exits_1(self, capsys, monkeypatch):
        from fpvanish import group_ring as gr

        # a product that does not vanish for the cover oracle's witness
        monkeypatch.setattr(gr, "binomial_product_cyc", lambda V, t, r=1, cap=None: gr.GroupRingCyc.unit(V.p, V.n))
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


class TestPhiAndCovers:
    def test_phi_klein_four(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--factors", "2,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"] == 3
        assert len(payload["witness"]) == 3

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

    def test_hunt_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "ajt", "--hunt", "--p", "5", "--n", "2", "--k", "2", "--trials", "5"
        )
        assert code == 0
        assert json.loads(out)["counterexample"] is None


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
