import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import greenring
from greenring import core_ring
from greenring.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestTensor:
    def test_text(self, run):
        code, out, _ = run("tensor", "--p", "5", "--alpha", "3", "2", "11")
        assert code == 0
        assert out == "V12 + V10\n"

    def test_trivial(self, run):
        code, out, _ = run("tensor", "--p", "2", "--alpha", "1", "1", "2")
        assert (code, out) == (0, "V2\n")

    def test_json(self, run):
        code, out, _ = run(
            "tensor", "--p", "3", "--alpha", "2", "--format", "json", "2", "2"
        )
        assert code == 0
        assert json.loads(out) == {"p": 3, "alpha": 2, "coeffs": {"1": 1, "3": 1}}

    def test_usage_error_is_exit_2(self, run):
        code, _, err = run("tensor", "--p", "4", "--alpha", "1", "1", "1")
        assert code == 2
        assert "prime" in err

    def test_argparse_error_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tensor", "--p", "5", "2"])
        assert exc.value.code == 2


class TestUbasisAndCousins:
    def test_ubasis_text(self, run):
        code, out, _ = run("ubasis", "--p", "5", "--alpha", "3", "12")
        assert (code, out) == (0, "V12 - V8 + V2\n")

    def test_cousins_text(self, run):
        code, out, _ = run("cousins", "63", "--base", "5")
        assert (code, out) == (0, "37 43 57 63\n")

    def test_cousins_json(self, run):
        code, out, _ = run("cousins", "63", "--base", "5", "--format", "json")
        assert json.loads(out) == {"n": 63, "base": 5, "cousins": [37, 43, 57, 63]}


class TestMatrix:
    def test_pbm(self, run):
        code, out, _ = run(
            "matrix", "--p", "3", "--alpha", "3", "--direction", "v-to-u",
            "--format", "pbm",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "P1"
        assert lines[1] == "27 27"

    def test_csv_u_to_v(self, run):
        code, out, _ = run(
            "matrix", "--p", "5", "--alpha", "2", "--direction", "u-to-v",
            "--format", "csv",
        )
        assert code == 0
        row12 = out.splitlines()[11].split(",")
        assert row12[11] == "1" and row12[7] == "-1" and row12[1] == "1"

    def test_pbm_rejects_u_to_v(self, run):
        code, _, err = run(
            "matrix", "--p", "5", "--alpha", "2", "--direction", "u-to-v",
            "--format", "pbm",
        )
        assert code == 2
        assert "0/1" in err


class TestTrick:
    def test_worked_example(self, run):
        code, out, _ = run("trick", "62", "--base", "5")
        assert code == 0
        assert out == "62 = (3)(3)(2) + (3)(2)(3) + (2)(3)(3) + (2)(2)(2)\n"

    def test_single_digit(self, run):
        assert run("trick", "7")[:2] == (0, "7 = 7\n")

    def test_power_of_ten(self, run):
        assert run("trick", "100")[:2] == (0, "100 = (10)(10)\n")

    def test_json_deterministic(self, run):
        first = run("trick", "62", "--base", "5", "--format", "json")
        second = run("trick", "62", "--base", "5", "--format", "json")
        assert first == second
        assert json.loads(first[1])["sum"] == 62


class TestRankVerifyRelations:
    def test_rank_text(self, run):
        code, out, _ = run("rank", "12", "--p", "2")
        assert (code, out) == (0, "quotient_rank 4, phi 4\n")

    def test_rank_json(self, run):
        code, out, _ = run("rank", "12", "--p", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["quotient_rank"] == payload["phi_n"] == 4
        assert payload["invariant_factors"] == [1] * 8

    def test_verify_clean(self, run):
        code, out, _ = run("verify", "--p", "3", "--alpha", "2")
        assert (code, out) == (0, "0 mismatches\n")

    def test_verify_json(self, run):
        code, out, _ = run("verify", "--p", "2", "--alpha", "2", "--format", "json")
        assert (code, json.loads(out)) == (0, [])

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_verify_rejects_budget_below_one(self, run, budget):
        code, out, err = run("verify", "--p", "3", "--alpha", "2", "--budget", budget)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "budget" in err

    def test_verify_rejects_int64_unsafe_prime(self, run):
        code, out, err = run("verify", "--p", "4294967311", "--alpha", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "int64" in err
        assert "Traceback" not in err

    def test_verify_large_prime_reaches_int64_guard(self, run):
        # 10^18 + 3 is prime; deciding that must not trial-divide to 10^9
        code, out, err = run("verify", "--p", "1000000000000000003", "--alpha", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "int64" in err

    def test_tensor_large_prime(self, run):
        code, out, _ = run("tensor", "--p", "1000000000000000003", "--alpha", "1", "1", "1")
        assert (code, out) == (0, "V1\n")

    def test_rank_headline_2310(self, run):
        code, out, _ = run("rank", "2310", "--p", "11")
        assert (code, out) == (0, "quotient_rank 480, phi 480\n")
        code, out, _ = run("rank", "2310", "--p", "11", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["ideal_rank"] == 1830
        assert payload["invariant_factors"] == [1] * 1830

    def test_relations_text(self, run):
        code, out, _ = run("relations", "--p", "5", "--alpha", "3")
        assert (code, out) == (0, "F0 F1 F2 all vanish\n")

    def test_relations_json(self, run):
        code, out, _ = run("relations", "--p", "3", "--alpha", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["all_vanish"] is True
        assert payload["vanishes"] == {"F0": True, "F1": True, "F2": True}


class TestOutFile:
    def test_writes_file(self, run, tmp_path):
        target = tmp_path / "matrix.csv"
        code, out, _ = run(
            "matrix", "--p", "2", "--alpha", "2", "--format", "csv",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_bytes().splitlines()[0] == b"1,0,0,0"

    def test_byte_identical_json(self, run, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("tensor", "--p", "5", "--alpha", "3", "--format", "json",
            "--out", str(a), "7", "11")
        run("tensor", "--p", "5", "--alpha", "3", "--format", "json",
            "--out", str(b), "7", "11")
        assert a.read_bytes() == b.read_bytes()


class TestVerificationFailure:
    """A failed internal invariant is a verification failure: exit 1, no
    traceback, and the check survives ``python -O``."""

    def test_exit_1_without_traceback(self, run, monkeypatch):
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(core_ring, "_tensor_reduce", lambda p, r, s: {s: r - 1})
        code, out, err = run("tensor", "--p", "5", "--alpha", "1", "2", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: dimension lost")
        assert "Traceback" not in err

    def test_raises_under_optimize(self):
        script = (
            "from greenring import core_ring, digits\n"
            "core_ring._TENSOR_CACHE.clear()\n"
            "core_ring._tensor_reduce = lambda p, r, s: {s: r - 1}\n"
            "try:\n"
            "    core_ring.tensor(core_ring.GroupSpec(5, 1), 2, 3)\n"
            "except digits.VerificationError:\n"
            "    print('raised')\n"
        )
        src = str(Path(greenring.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "raised\n"), done.stderr
