import concurrent.futures
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import greenring
from greenring import cli, core_ring, ideals, quantum
from greenring.cli import main


def _run_capped(*argv):
    """Run the CLI in a child process whose address space is capped at
    2 GiB, so an oversized allocation fails there, not in the test run."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    src = str(Path(greenring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "greenring.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap,
    )


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("tensor", "1", "1", "--p", "3", "--alpha", "1000000000"),
            ("tensor", "1", "1", "--p", "2", "--alpha", "10000000000"),
            ("matrix", "--p", "2", "--alpha", "100000000"),
        ],
    )
    def test_oversized_order_refused_before_forming_q(self, argv):
        # p^alpha of billions of bits is refused from alpha log2 p alone
        start = time.monotonic()
        done = _run_capped(*argv)
        assert time.monotonic() - start < 30
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: q = ")
        assert f"more than {core_ring.MAX_ORDER_BITS} bits" in done.stderr

    def test_deep_digit_chain_answers_exactly(self):
        # 900 and 4,095 digit levels at p = 2, the second at the order cap
        for alpha in (901, 4096):
            s = 2 ** (alpha - 1) - 1
            done = _run_capped(
                "tensor", "3", str(s), "--p", "2", "--alpha", str(alpha), "--format", "json"
            )
            assert (done.returncode, done.stderr) == (0, "")
            coeffs = {int(k): v for k, v in json.loads(done.stdout)["coeffs"].items()}
            assert sum(k * v for k, v in coeffs.items()) == 3 * s
            assert min(coeffs.values()) > 0

    def test_argparse_error_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tensor", "--p", "5", "2"])
        assert exc.value.code == 2


class TestUbasisAndCousins:
    def test_ubasis_text(self, run):
        code, out, _ = run("ubasis", "--p", "5", "--alpha", "3", "12")
        assert (code, out) == (0, "V12 - V8 + V2\n")

    def test_ubasis_support_above_cap_is_exit_2(self):
        # 99999999998 has 24 binary ones above level 0: up to 2^24 terms
        start = time.monotonic()
        done = _run_capped("ubasis", "99999999999", "--p", "2", "--alpha", "60")
        assert time.monotonic() - start < 30
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

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

    def test_oversized_group_is_exit_2(self):
        # q = 2^30 would be a 2^60-entry matrix; it is refused up front
        start = time.monotonic()
        done = _run_capped("matrix", "--p", "2", "--alpha", "30")
        assert time.monotonic() - start < 30
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

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

    def test_oversized_verify_sweep_is_exit_2(self):
        # about 7e12 pairs; counting them must not visit them
        start = time.monotonic()
        done = _run_capped("verify", "--p", "2", "--alpha", "30", "--budget", "1000000000000")
        assert time.monotonic() - start < 30
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_verify_rejects_budget_below_one(self, run, budget):
        code, out, err = run("verify", "--p", "3", "--alpha", "2", "--budget", budget)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "budget" in err

    def test_verify_reports_a_wrong_pair(self, run, monkeypatch):
        # an engine wrong at (3, 4) for p = 5 only: exit 1, and the JSON
        # entry lists the expected blocks descending
        real = core_ring._tensor_level
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(
            core_ring,
            "_tensor_level",
            lambda p, pb, r, s, idx, vals: (
                ([4, 2], [2, 2]) if (r, s) == (3, 4) else real(p, pb, r, s, idx, vals)
            ),
        )
        code, out, _ = run("verify", "--p", "5", "--alpha", "1", "--format", "json")
        assert (code, out) == (
            1,
            '[{"r":3,"s":4,"expected":[5,5,2],"got":{"p":5,"alpha":1,"coeffs":{"2":2,"4":2}}}]\n',
        )
        assert run("verify", "--p", "5", "--alpha", "1") == (1, "1 mismatches\n", "")

    def test_verify_prime_beyond_int64(self, run):
        # p (p - 1) >= 2^63: the oracle works in Python ints
        got = run("verify", "--p", "4294967311", "--alpha", "1", "--budget", "400")
        assert got == (0, "0 mismatches\n", "")

    def test_verify_large_prime_decided_fast(self, run):
        # 10^18 + 3 is prime; deciding that must not trial-divide to 10^9
        got = run("verify", "--p", "1000000000000000003", "--alpha", "1", "--budget", "400")
        assert got == (0, "0 mismatches\n", "")

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

    def test_rank_reach_30030(self):
        # n = 2*3*5*7*11*13; one n-wide lattice would need ~1.1e9 entries
        done = _run_capped("rank", "30030", "--p", "13")
        assert (done.returncode, done.stdout) == (0, "quotient_rank 5760, phi 5760\n")
        done = _run_capped("rank", "30030", "--p", "13", "--format", "json")
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert payload["ideal_rank"] == 24270
        assert payload["invariant_factors"] == [1] * 24270

    def test_rank_out_of_memory_is_exit_2(self):
        # 10^12 + 39 is prime, so its factor is a 10^12-wide vector
        done = _run_capped("rank", "1000000000039", "--p", "2")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

    def test_rank_reach_65536(self):
        # one 2^16-wide factor: sparse rows keep it linear in the factor
        done = _run_capped("rank", "65536", "--p", "3")
        assert (done.returncode, done.stdout) == (0, "quotient_rank 32768, phi 32768\n")

    @pytest.mark.parametrize(
        "argv",
        [("rank", "2097152", "--p", "3"), ("rank", "1000000000000000003", "--p", "2")],
    )
    def test_rank_factor_above_cap_is_exit_2(self, argv):
        # a 2^21 factor, and a prime n whose factoring stops at the cap
        start = time.monotonic()
        done = _run_capped(*argv)
        assert time.monotonic() - start < 30
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

    def test_rank_caps_the_p_part_rows_not_q(self):
        # q = 1048583 > 2^20, but its induced ideal is one row
        done = _run_capped("rank", "1048583", "--p", "1048583")
        assert (done.returncode, done.stdout) == (0, "quotient_rank 1048582, phi 1048582\n")
        done = _run_capped("rank", "4194304", "--p", "2")  # 2^21 rows
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

    def test_rank_huge_prime_p_answers_at_once(self):
        # q = p near 10^18: phi(n) comes from the factorization of m = 1,
        # not from trial division of n up to sqrt(p)
        p = "1000000000000000003"
        start = time.monotonic()
        done = _run_capped("rank", p, "--p", p)
        assert time.monotonic() - start < 30
        assert (done.returncode, done.stdout) == (
            0, "quotient_rank 1000000000000000002, phi 1000000000000000002\n"
        )
        # n = 2p would list p + 1 invariant factors: refused before building
        done = _run_capped("rank", "2000000000000000006", "--p", p)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: the report would list")

    def test_memory_error_is_exit_2(self, run, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(ideals, "rank_report", exhausted)
        code, out, err = run("rank", "12", "--p", "2")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_relations_text(self, run):
        code, out, _ = run("relations", "--p", "5", "--alpha", "3")
        assert (code, out) == (0, "F0 F1 F2 all vanish\n")

    @pytest.mark.parametrize("p,alpha", [("2", "1000"), ("3001", "2"), ("1000003", "2")])
    def test_oversized_relations_refused_before_any_product(self, p, alpha):
        start = time.monotonic()
        done = _run_capped("relations", "--p", p, "--alpha", alpha)
        assert time.monotonic() - start < 30
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"error: relations at p = {p}, alpha = {alpha}")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("p,alpha", [("1117", "2"), ("2", "135")])
    def test_largest_relations_under_the_cap(self, run, p, alpha):
        # 8 * 1117^2 = 9,981,512 and 4 * 135^3 = 9,841,500: both let through
        code, out, _ = run("relations", "--p", p, "--alpha", alpha)
        assert code == 0
        assert out.endswith(" all vanish\n")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("tensor", "--p", "2", "--alpha", "3", "1", "2"),
            ("matrix", "--p", "2", "--alpha", "2", "--format", "csv"),
            ("rank", "12", "--p", "5"),
        ],
    )
    def test_missing_directory_is_exit_2(self, run, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(*argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "No such file or directory" in err
        assert "Traceback" not in err

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
        monkeypatch.setattr(core_ring, "_tensor_level", lambda p, pb, r, s, idx, vals: ([s], [r - 1]))
        code, out, err = run("tensor", "--p", "5", "--alpha", "1", "2", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: dimension lost")
        assert "Traceback" not in err

    _SCRIPT = (
        "from greenring import core_ring, digits\n"
        "core_ring._TENSOR_CACHE.clear()\n"
        "core_ring._tensor_level = lambda p, pb, r, s, idx, vals: {level}\n"
        "try:\n"
        "    core_ring.tensor(core_ring.GroupSpec(5, 1), 2, 3)\n"
        "except digits.VerificationError as exc:\n"
        "    print(exc)\n"
    )

    @staticmethod
    def _run_optimized(level):
        """stdout of V_2 (x) V_3 at p = 5 with the level patched to return
        level, in a child interpreter under python -O."""
        src = str(Path(greenring.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", TestVerificationFailure._SCRIPT.format(level=level)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_raises_under_optimize(self):
        out = self._run_optimized("([s], [r - 1])")
        assert out.startswith("dimension lost at (5, 2, 3)"), out

    def test_index_fault_is_exit_1_also_under_optimize(self, run, monkeypatch):
        # V_6 is positive and has dimension 2 * 3, but P(3) = 5 at p = 5
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(core_ring, "_tensor_level", lambda p, pb, r, s, idx, vals: ([6], [1]))
        code, out, err = run("tensor", "--p", "5", "--alpha", "1", "2", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: index 6 exceeds 5 at (5, 2, 3)")
        assert "Traceback" not in err
        out = self._run_optimized("([6], [1])")
        assert out.startswith("index 6 exceeds 5 at (5, 2, 3)"), out


# Index sets of these inputs would outgrow memory: |J| of the alternating
# binary number grows like a Fibonacci number, and the 40-digit number has
# 2^39 cousins.  Both stop at digits.MAX_INDEX_SET.
@pytest.mark.parametrize(
    "argv",
    [
        ("trick", "6148914691236517205", "--base", "2"),
        ("cousins", "1" * 40),
    ],
)
def test_oversized_index_set_is_exit_2(argv):
    start = time.monotonic()
    done = _run_capped(*argv)
    assert time.monotonic() - start < 30
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def _fresh_children(commands):
    """(exit code, stdout bytes, stderr bytes) of one fresh
    ``python -m greenring.cli`` per command, at 80 columns, four at a time."""
    src = str(Path(greenring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}

    def child(argv):
        done = subprocess.run(
            [sys.executable, "-m", "greenring.cli", *argv],
            env=env, capture_output=True, timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        return list(pool.map(child, commands))


@pytest.fixture
def run_in_process(capsysbinary, monkeypatch):
    """``main`` in this process at 80 columns; SystemExit becomes its code."""
    monkeypatch.setenv("COLUMNS", "80")

    def invoke(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsysbinary.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestParserReuse:
    """The parser is built once per process; every call reuses it, and
    the output is the same as a fresh process gives."""

    COMMANDS = [
        ("tensor", "--p", "5", "--alpha", "3", "2", "11"),
        ("ubasis", "--p", "5", "--alpha", "3", "12"),
        ("cousins", "63", "--base", "5"),
        ("matrix", "--p", "3", "--alpha", "2", "--format", "text"),
        ("matrix", "--p", "3", "--alpha", "2", "--direction", "u-to-v"),
        ("trick", "62", "--base", "5"),
        ("rank", "12", "--p", "2"),
        ("verify", "--p", "2", "--alpha", "2"),
        ("relations", "--p", "3", "--alpha", "2"),
    ]

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_every_subcommand_matches_a_fresh_process(self, run_in_process):
        commands = self.COMMANDS + [
            (*argv, "--format", "json")
            for argv in self.COMMANDS
            if argv[0] != "matrix"
        ]
        got = [run_in_process(argv) for argv in commands]
        assert got == _fresh_children(commands)
        assert all(code == 0 for code, _, _ in got)

    def test_usage_error_then_valid_call(self, run_in_process):
        code, out, err = run_in_process(["tensor", "--p", "5", "2"])
        assert (code, out) == (2, b"")
        assert b"arguments are required: s, --alpha" in err
        code, out, err = run_in_process(["trick", "62", "--base", "5", "--format", "bogus"])
        assert (code, out) == (2, b"")
        assert b"invalid choice" in err
        code, out, _ = run_in_process(["tensor", "--p", "5", "--alpha", "3", "2", "11"])
        assert (code, out) == (0, b"V12 + V10\n")
        code, out, _ = run_in_process(["trick", "62", "--base", "5"])
        assert (code, out) == (0, b"62 = (3)(3)(2) + (3)(2)(3) + (2)(3)(3) + (2)(2)(2)\n")

    def test_threads_share_the_parser(self):
        argvs = [cmd for argv in self.COMMANDS for cmd in (argv, (*argv, "--out", "x"))]
        parser = cli._build_parser()
        want = [vars(parser.parse_args(list(argv))) for argv in argvs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                futures = [
                    pool.submit(lambda: [vars(parser.parse_args(list(a))) for a in argvs])
                    for _ in range(16)
                ]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 16
        assert cli._build_parser() is parser

    def test_help_matches_a_fresh_process(self, run_in_process):
        commands = [("--help",)] + [
            (name, "--help")
            for name in (
                "tensor", "ubasis", "cousins", "matrix", "trick", "rank",
                "verify", "relations",
            )
        ]
        got = [run_in_process(argv) for argv in commands]
        assert got == _fresh_children(commands)
        assert all(code == 0 and out.startswith(b"usage: greenring") for code, out, _ in got)


def _wrong_pair_at_3_4(monkeypatch):
    """An engine wrong at (3, 4) only, as in ``test_verify_reports_a_wrong_pair``."""
    real = core_ring._tensor_level
    monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
    monkeypatch.setattr(
        core_ring,
        "_tensor_level",
        lambda p, pb, r, s, idx, vals: (
            ([4, 2], [2, 2]) if (r, s) == (3, 4) else real(p, pb, r, s, idx, vals)
        ),
    )


def _f1_nonzero(monkeypatch):
    """Relations whose F1 comes out V1, so they fail."""
    monkeypatch.setattr(
        quantum,
        "relations",
        lambda group: [
            core_ring.zero(group), core_ring.basis_element(group, 1), core_ring.zero(group)
        ],
    )


# (argv, patch, exit code, sha256 of stdout) for every subcommand in every
# format, taken from the per-subcommand output code.  The CLI promises
# byte-identical output, so a changed digest is a failure, not a new baseline.
PINNED_OUTPUTS = [
    (("tensor", "--p", "5", "--alpha", "3", "2", "11"), None, 0,
     "bf175252ab9a6ad2e38f716cc381cdfb8baf30b713fadb4b55106a7e6eed2bdf"),
    (("tensor", "--p", "5", "--alpha", "3", "7", "11", "--format", "json"), None, 0,
     "a2dedd074ee447db6b5130b4f29974096bc94a2108e28dcd69414cd5598e9200"),
    (("ubasis", "--p", "5", "--alpha", "3", "12"), None, 0,
     "4d5b048772206f04c56d5a12e561fc68fb8a053b6184b440605fcd37e014f5ea"),
    (("ubasis", "--p", "5", "--alpha", "3", "12", "--format", "json"), None, 0,
     "066bf933c53a977de03b67963a599605212c22e13d623108f7564ee5a18573f6"),
    (("cousins", "63", "--base", "5"), None, 0,
     "29d78c12b202e2ad7c44aaed0a958cd1e958710961f5d5f0a7fb1dc3fda23f2a"),
    (("cousins", "63", "--base", "5", "--format", "json"), None, 0,
     "4bc8a7bfd742dbb7fe74c9f96f776e3994e3d21346373d90bb38567528c3118d"),
    (("matrix", "--p", "3", "--alpha", "2", "--format", "text"), None, 0,
     "8f561a9aca9f0a559c2aa37cdd493db5d8c1020d8d36b8151d152dd4a95ab094"),
    (("matrix", "--p", "3", "--alpha", "2", "--direction", "u-to-v"), None, 0,
     "bad2ff61bf9397b4df55c44518c4d0fecb4861235d13265963b1f06080430c5c"),
    (("matrix", "--p", "3", "--alpha", "2", "--format", "pbm"), None, 0,
     "d93eac9a15f08a35c1ae14371515fe7228355b14d1e612f6675f9de37696c448"),
    (("trick", "62", "--base", "5"), None, 0,
     "d82de4687cbba8aae11b6560b34b65dfef7634021e595fb63141d9030dde8416"),
    (("trick", "62", "--base", "5", "--format", "json"), None, 0,
     "ad5b3a2d25e880c48ec3a2ca4fba77d3591bc646c4da5a3b51343250569da6a1"),
    (("rank", "12", "--p", "2"), None, 0,
     "732c9653d021cf180a62bad0ddf1594720d676079ceeafc80b8b920e2c4932cb"),
    (("rank", "12", "--p", "2", "--format", "json"), None, 0,
     "3e9c7793d378051a41812fd4b58022dcef64bc6f27a7f663cad8aa6f8d7b2176"),
    (("verify", "--p", "3", "--alpha", "2"), None, 0,
     "72ff0a36e424e0022fc90ed9bb06c22cc42d80cf39b7f8ae5b7a6a69f8171012"),
    (("verify", "--p", "3", "--alpha", "2", "--format", "json"), None, 0,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    (("verify", "--p", "5", "--alpha", "1"), _wrong_pair_at_3_4, 1,
     "3637a6c8ff1a2421578d77b0aae18eb2902a11f502ff2e22c3029d93684b4717"),
    (("verify", "--p", "5", "--alpha", "1", "--format", "json"), _wrong_pair_at_3_4, 1,
     "9b67e419c9afd24f6142311a3ba663d9f04df4ab57b53df507d1eca68c6ab0fa"),
    (("relations", "--p", "3", "--alpha", "3"), None, 0,
     "d3aee318fb3c34b7300b3f45b63f529acb3c5998db96147f78637041fe9dac74"),
    (("relations", "--p", "3", "--alpha", "3", "--format", "json"), None, 0,
     "0459055a60fa7e2aeeeac76f55ad51439d2c1939d15651ab5994ee29eb4a9fbd"),
    (("relations", "--p", "3", "--alpha", "3"), _f1_nonzero, 1,
     "5a979ab236275f853d74ee92db0f5d77e01a3bffd6a4763d3bad93740210cf31"),
    (("relations", "--p", "3", "--alpha", "3", "--format", "json"), _f1_nonzero, 1,
     "9e54a03ad99e3010c3b4e55f8ea4702d44d9e22111fc0338e07232070a8fe4eb"),
]


@pytest.mark.parametrize(
    "argv,patch,code,digest",
    PINNED_OUTPUTS,
    ids=[
        " ".join(argv) + (f" [{patch.__name__}]" if patch else "")
        for argv, patch, _, _ in PINNED_OUTPUTS
    ],
)
def test_pinned_output(run_in_process, monkeypatch, tmp_path, argv, patch, code, digest):
    """Exit code and stdout digest are pinned; --out writes the same bytes."""
    if patch:
        patch(monkeypatch)
    got_code, out, err = run_in_process(argv)
    assert (got_code, hashlib.sha256(out).hexdigest(), err) == (code, digest, b"")
    target = tmp_path / "out"
    assert run_in_process((*argv, "--out", str(target))) == (code, b"", b"")
    assert target.read_bytes() == out
