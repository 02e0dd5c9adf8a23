"""One timed pass of a benchmark workload, run in a fresh interpreter.

    python3 bench/workloads.py --workload NAME --seed N --size full|smoke \
        [--spans PATH]

``run.py`` starts this file once per pass, so the engine's tensor memo
starts cold in every pass without the benchmark reaching into it.  The
pass draws its inputs from the seed, times the calls into greenring's
public functions, then checks every output outside the timed window.
An operation that raises, or whose output fails a check, counts as
failed; the pass goes on.  With ``--spans`` the pass is traced (see
tracing.py) and the spans are written to PATH.  The last line of stdout is
one JSON object with the pass's measurements, among them the time of
every operation, grouped by phase in the order the operations ran.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402
from greenring import cli, core_ring, oracle, ubasis  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402

# sha256 of the CLI's stdout for the fixed basis_cli commands, taken at the
# commit that introduced the benchmark.  The CLI promises byte-identical
# output, so any change here is a failure, not a new baseline.
PINNED_SHA256 = {
    "matrix --p 5 --alpha 3 --direction v-to-u --format pbm":
        "c71976f32438f7d4ce0115b64d999a73d109307e72e4a5334a04190e6176c3fe",
    "matrix --p 5 --alpha 3 --direction u-to-v --format csv":
        "03b08b2c377ed002de686a6ecb3777c09d2deac6b59009e0edd24a60bb621770",
    "rank 2310 --p 11": "bb57e9b97929895b1222e22d36b9a5cca6300315a31854abc734797bbe2cae21",
    "relations --p 5 --alpha 3": "d3aee318fb3c34b7300b3f45b63f529acb3c5998db96147f78637041fe9dac74",
}


class Pass:
    """Timing and outcome bookkeeping for the operations of one pass."""

    def __init__(self, tracer: tracing.Tracer | None, speed: hostspeed.Sampler | None):
        self.tracer = tracer
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # phase -> {"times": seconds per operation, "work": operations done,
        #           "spans": (start, end) per operation}
        self.phases: dict[str, dict] = {}
        self._current: dict | None = None
        self.digests: dict[str, str] = {}  # CLI command -> sha256 of its stdout
        self.stdout_bytes = 0

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time the operations called inside as phase ``name``."""
        self._current = self.phases.setdefault(name, {"times": [], "work": 0, "spans": []})
        with self.tracer.span("bench." + name) if self.tracer else contextlib.nullcontext():
            yield
        self._current = None

    def call(self, fn, *args, weight: int = 1):
        """Run one operation and return its result, or None if it raised.

        ``weight`` is how many operations the call stands for, e.g. the
        pairs of a verification sweep.  Inside a phase, the call's time and
        weight are recorded; outside, as in checks, they are not.
        """
        self.attempted += weight
        sampled = self.speed.spent if self.speed else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{fn.__name__}: {type(exc).__name__}: {exc}", weight)
            result = None
        end = time.perf_counter()
        if self._current is not None:
            sampled = (self.speed.spent if self.speed else 0.0) - sampled
            self._current["times"].append(end - start - sampled)
            self._current["spans"].append((start, end))
            self._current["work"] += weight
        return result

    def timings(self) -> dict[str, dict]:
        """Per phase: operation times, work, and the reference-loop time
        around each operation (absent when the host was not sampled)."""
        out = {}
        for name, phase in self.phases.items():
            out[name] = {"times": phase["times"], "work": phase["work"]}
            if self.speed:
                out[name]["ref"] = [self.speed.cost_during(a, b) for a, b in phase["spans"]]
        return out

    def fail(self, message: str, weight: int = 1) -> None:
        self.failed += weight
        if len(self.errors) < 10:
            self.errors.append(message[:300])

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _euler_phi(n: int) -> int:
    return math.prod(f - 1 for f in _prime_factors(n)) * n // math.prod(_prime_factors(n))


# --------------------------------------------------------------- verify_sweep

# Dense spot checks: p = 5, r <= s <= 25, 200 <= r*s <= 250.  Every pair has
# dimension within 25% of the others and its largest block bounded by 25,
# so any three cost about the same.
SPOT_POOL = [(5, r, s) for r in range(9, 16) for s in range(r, 26) if 200 <= r * s <= 250]


def _pairs_within_budget(q: int, budget: int) -> int:
    return sum(min(s, budget // s) for s in range(1, q + 1))


def verify_sweep(p: Pass, seed: int, size: str):
    """The paper's verification job: engine against the F_p oracle."""
    rng = random.Random(seed)
    if size == "full":
        groups, spots = ((3, 4), (7, 2)), rng.sample(SPOT_POOL, 3)
    else:
        groups, spots = ((2, 3), (3, 2)), [(3, 4, 5)]
    sweeps = []
    with p.phase("verify_sweep"):
        for prime, alpha in groups:
            pairs = _pairs_within_budget(prime**alpha, oracle.DEFAULT_BUDGET)
            sweeps.append((prime, alpha, p.call(oracle.verify_engine, prime, alpha, weight=pairs)))
    outcomes = []
    with p.phase("spot_checks"):
        for prime, r, s in spots:
            dense = p.call(oracle.jordan_type_dense, prime, r, s)
            chain = p.call(oracle.jordan_type, prime, r, s)
            outcomes.append(((prime, r, s), dense, chain))

    def check():
        for prime, alpha, mismatches in sweeps:
            if mismatches:
                p.fail(f"verify_engine({prime},{alpha}): {len(mismatches)} mismatches", len(mismatches))
        for key, dense, chain in outcomes:
            if dense is not None and chain is not None:
                p.check(dense == chain, f"dense != chain at {key}")

    return check


# -------------------------------------------------------------- ring_products

# The 24 U-indices r at (5,5) whose r-1 has digits (d0, a, b, c, 2), with
# d0 < 4 and (a, b, c) a permutation of (1, 2, 3).  Every such U_r has 72
# V-terms, the same top digit and dimension 72*(d0+1).  Products run along a
# seeded ordering of them, each element times the next: the memo work they
# share, which sets their cost, then varies far less with the seed than
# for factors drawn independently.
PRODUCT_POOL = [1 + sum(d * 5**i for i, d in enumerate((d0, *perm, 2)))
                for d0 in range(4) for perm in itertools.permutations((1, 2, 3))]


def _u_dim(r: int, p: int) -> int:
    out, n = 1, r - 1
    while n:
        n, d = divmod(n, p)
        out *= d + 1
    return out


def ring_products(p: Pass, seed: int, size: str):
    """Bulk engine arithmetic with no oracle in the timed window."""
    rng = random.Random(seed)
    full = size == "full"
    big, small = core_ring.GroupSpec(5, 7), core_ring.GroupSpec(5, 5)
    queries = [(rng.randint(1, big.q), rng.randint(1, big.q)) for _ in range(20000 if full else 300)]
    plain = [rng.randint(1, small.q) for _ in range(179 if full else 6)]
    path = rng.sample(PRODUCT_POOL, 21 if full else 3)
    sample = []  # pairs with r*s <= 16384, checked against the oracle
    for _ in range(40 if full else 4):
        r = rng.randint(2, 128)
        sample.append((r, rng.randint(r, 16384 // r)))

    with p.phase("tensor_cold"):
        cold = [p.call(core_ring.tensor, big, r, s) for r, s in queries]
    with p.phase("tensor_warm"):
        warm = [p.call(core_ring.tensor, big, r, s) for r, s in queries]
    indices = plain + path
    with p.phase("u_elements"):
        units = [p.call(ubasis.u_element, small, r) for r in indices]
    products = []
    with p.phase("products"):
        for a, b in zip(units[len(plain):], units[len(plain) + 1:]):
            if a is None or b is None:
                p.attempted += 1
                p.fail("product skipped: a factor failed")
                continue
            products.append((a, b, p.call(core_ring.mul, a, b)))

    def check():
        for (r, s), c, w in zip(queries, cold, warm):
            if c is not None:
                p.check(c.dim() == r * s and all(v > 0 for v in c.coeffs.values()),
                        f"tensor({r},{s}) is not a module of dimension {r * s}")
            if c is not None and w is not None:
                p.check(w.coeffs == c.coeffs, f"warm tensor({r},{s}) differs from cold")
        for r, u in zip(indices, units):
            if u is not None:
                p.check(u.top_index() == r and u.coeffs[r] == 1 and u.dim() == _u_dim(r, 5),
                        f"U_{r} has the wrong top term or dimension")
        for a, b, out in products:
            if out is not None:
                p.check(out.dim() == a.dim() * b.dim(), "dim(a*b) != dim a * dim b")
        for r, s in sample:
            got = p.call(core_ring.tensor, big, r, s)
            want = p.call(oracle.jordan_type, 5, r, s)
            if got is not None and want is not None:
                p.check(got.coeffs == want.multiplicities(), f"engine != oracle at (5,{r},{s})")

    return check


# ------------------------------------------------------------------ basis_cli

def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    """cli.main(argv) with stdout captured as bytes."""
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stream):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        stream.flush()
    return code, buffer.getvalue()


def _rank_pool(lo: int, hi: int) -> list[int]:
    """n = l1*l2 in [lo, hi) with primes 11 <= l1 < l2.  The cost of rank n
    swings by orders of magnitude with the factorisation of n (small prime
    factors are the expensive ones; ``rank 2310`` covers them); within this
    shape it stays within a few percent."""
    return [n for n in range(lo, hi)
            if len(fs := _prime_factors(n)) == 2 and fs[0] >= 11 and fs[0] * fs[1] == n]


def _parse_matrix(data: bytes, sep: str, skip: int) -> list[list[int]]:
    lines = data.decode().splitlines()[skip:]
    return [[int(v) for v in line.split(sep)] for line in lines]


def _trick_sum(text: str) -> tuple[int, int]:
    """(n, sum of terms) from 'n = (a)(b) + c + ...'."""
    head, _, body = text.strip().partition(" = ")
    total = 0
    for term in body.split(" + "):
        if term.startswith("("):
            total += math.prod(int(f) for f in term[1:-1].split(")("))
        else:
            total += int(term)
    return int(head), total


def basis_cli(p: Pass, seed: int, size: str):
    """User-facing CLI paths for basis, ideals and digits; no oracle."""
    rng = random.Random(seed)
    full = size == "full"
    prime, alpha = (5, 3) if full else (3, 2)
    group = ["--p", str(prime), "--alpha", str(alpha)]
    matrices = [
        ["matrix", *group, "--direction", "v-to-u", "--format", "pbm"],
        ["matrix", *group, "--direction", "u-to-v", "--format", "csv"],
    ]
    # One n from each of 30 consecutive slices of the pool.  p never divides
    # n, so every p gives the same lattice and the same cost.
    pool, slices = (_rank_pool(300, 1200), 30) if full else (_rank_pool(100, 300), 1)
    ranks = [["rank", str(rng.choice(pool[len(pool) * i // slices:len(pool) * (i + 1) // slices])),
              "--p", str(rng.choice((2, 3, 5, 7)))] for i in range(slices)]
    ranks.append(["rank", "2310", "--p", "11"] if full else ["rank", "30", "--p", "5"])
    tricks = [["trick", str(rng.randint(1, 100000)), "--base", str(rng.randint(2, 10))]
              for _ in range(300 if full else 5)]
    relations = [["relations", *group]]

    outputs: dict[str, tuple[int, bytes] | None] = {}
    for phase, commands in (("matrix", matrices), ("rank", ranks),
                            ("trick", tricks), ("relations", relations)):
        with p.phase(phase):
            for argv in commands:
                outputs[" ".join(argv)] = p.call(_run_cli, argv)

    def check():
        good = {}
        for key, out in outputs.items():
            if out is not None:
                p.digests[key] = hashlib.sha256(out[1]).hexdigest()
                p.stdout_bytes += len(out[1])
                p.check(out[0] == 0, f"{key}: exit code {out[0]}")
                if out[0] == 0:
                    good[key] = out[1]
        for key, want in PINNED_SHA256.items():
            if full and key in good:
                p.check(p.digests[key] == want, f"{key}: output changed")
        vu_key, uv_key = (" ".join(a) for a in matrices)
        if vu_key in good and uv_key in good:
            q = prime**alpha
            header = f"P1\n{q} {q}\n".encode()
            p.check(good[vu_key].startswith(header), "pbm header is not P1 with q x q")
            v_to_u = np.array(_parse_matrix(good[vu_key], " ", 2), dtype=np.int64)
            u_to_v = np.array(_parse_matrix(good[uv_key], ",", 0), dtype=np.int64)
            p.check(v_to_u.shape == u_to_v.shape == (q, q)
                    and np.array_equal(v_to_u @ u_to_v, np.eye(q, dtype=np.int64)),
                    "V->U times U->V is not the identity")
        for argv in ranks:
            key = " ".join(argv)
            if key in good:
                n = int(argv[1])
                p.check(good[key].decode() == f"quotient_rank {_euler_phi(n)}, phi {_euler_phi(n)}\n",
                        f"{key}: quotient rank is not phi(n)")
        for argv in tricks:
            key = " ".join(argv)
            if key in good:
                n, total = _trick_sum(good[key].decode())
                p.check(n == int(argv[1]) and total == n, f"{key}: terms do not sum to n")
        key = " ".join(relations[0])
        if key in good:
            names = " ".join(["F0"] + [f"F{j}" for j in range(1, alpha)])
            p.check(good[key] == f"{names} all vanish\n".encode(), f"{key}: a relation is nonzero")

    return check


WORKLOADS = {"verify_sweep": verify_sweep, "ring_products": ring_products, "basis_cli": basis_cli}


# ---------------------------------------------------------------- the pass

def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _layer_metrics(tracer: tracing.Tracer, stdout_bytes: int) -> dict[str, float]:
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def pct_ms(name, q):
        return tracing.percentile(spans.get(name, {}).get("durations", []), q) * 1e3

    cold = tracer.time_under("core_ring.tensor", "bench.tensor_cold")
    warm = tracer.time_under("core_ring.tensor", "bench.tensor_warm")
    out = {
        "oracle.jordan_type.calls": calls("oracle.jordan_type"),
        "oracle.jordan_type.self_s": self_s("oracle.jordan_type"),
        "oracle.jordan_type.p50_ms": pct_ms("oracle.jordan_type", 50),
        "oracle.jordan_type.p99_ms": pct_ms("oracle.jordan_type", 99),
        "oracle.jordan_type_dense.calls": calls("oracle.jordan_type_dense"),
        "oracle.jordan_type_dense.self_s": self_s("oracle.jordan_type_dense"),
        "oracle.verify_engine.self_s": self_s("oracle.verify_engine"),
        "core_ring.tensor.calls": calls("core_ring.tensor"),
        "core_ring.tensor.self_s": self_s("core_ring.tensor"),
        "core_ring.tensor.warm_over_cold": warm / cold if cold else 0.0,
        "core_ring.mul.calls": calls("core_ring.mul"),
        "core_ring.mul.self_s": self_s("core_ring.mul"),
        "quantum.eval_at_element.calls": calls("quantum.eval_at_element"),
        "quantum.eval_at_element.self_s": self_s("quantum.eval_at_element"),
        "ubasis.u_element.calls": calls("ubasis.u_element"),
        "ubasis.u_element.self_s": self_s("ubasis.u_element"),
        "ubasis.change_of_basis.self_s": self_s("ubasis.change_of_basis"),
        "ubasis.v_in_u.calls": calls("ubasis.v_in_u"),
        "ubasis.v_in_u.self_s": self_s("ubasis.v_in_u"),
        "ubasis.render_matrix.self_s": self_s("ubasis.render_matrix"),
        "ideals.rank_report.calls": calls("ideals.rank_report"),
        "ideals.invariant_factors.self_s": self_s("ideals.invariant_factors"),
        "ideals.ideal_lattice.self_s": self_s("ideals.ideal_lattice"),
        "digits.trick_certificate.calls": calls("digits.trick_certificate"),
        "digits.trick_certificate.self_s": self_s("digits.trick_certificate"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
    }
    out.update(tracer.counters)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", help="trace the pass and write its spans here")
    args = parser.parse_args(argv)

    # A traced pass is not sampled: the sampler would run inside spans.
    tracer = tracing.Tracer() if args.spans else None
    speed = None if tracer else hostspeed.Sampler()
    p = Pass(tracer, speed)
    if tracer:
        tracer.install()
    rss_start = _rss_mb()
    start = time.perf_counter()
    with speed or contextlib.nullcontext():
        check = WORKLOADS[args.workload](p, args.seed, args.size)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    check()

    result = {
        "wall_s": wall,
        "peak_rss_mb": peak,
        "rss_growth_mb": peak - rss_start,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
        "digests": p.digests,
        "phases": p.timings(),
    }
    if tracer:
        result["layers"] = _layer_metrics(tracer, p.stdout_bytes)
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
