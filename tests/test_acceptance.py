"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Tolerances are exact integer equality throughout; the
oracle sweeps bound their runtime via the stated dimension budget.
"""

import numpy as np

from greenring.core_ring import GroupSpec, tensor
from greenring.digits import is_prime, split_indices, trick_certificate
from greenring.ideals import (
    CyclicGroupSpec,
    ideal_lattice,
    invariant_factors,
    principal_generation_check,
    rank_report,
)
from greenring.oracle import verify_engine
from greenring.quantum import relations
from greenring.ubasis import change_of_basis, u_element, v_in_u

from crosschecks import evaluate, quantum_closed_form, quantum_number

SWEEPS = ((2, 3), (3, 3), (5, 3))
BUDGET = 16384
RELATION_GROUPS = ((2, 3), (3, 3), (5, 2), (5, 3))


def _criterion(number: int, description: str, ok: bool) -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {description}"
    print(line)
    assert ok, line


def test_criterion_01_oracle_equivalence():
    mismatches = {}
    for p, alpha in SWEEPS:
        found = verify_engine(p, alpha, budget=BUDGET)
        if found:
            mismatches[(p, alpha)] = found[:3]
    _criterion(
        1,
        f"tensor engine equals oracle Jordan types for q in (8, 27, 125), "
        f"budget {BUDGET}: mismatches {mismatches or 'none'}",
        not mismatches,
    )


def test_criterion_02_u12_worked_example():
    group = GroupSpec(5, 3)
    element = u_element(group, 12)
    ok = element.coeffs == {12: 1, 8: -1, 2: 1} and element.dim() == 6
    _criterion(2, f"U_12 over p=5 is {element} with dimension {element.dim()}", ok)


def test_criterion_03_index_62_and_certificate():
    group = GroupSpec(5, 3)
    closed = v_in_u(group, 62)
    recursive = tuple(sorted(split_indices(62, 5, 3)))
    cert = trick_certificate(62, 5)
    products = sorted((prod for _, _, prod in cert.terms), reverse=True)
    ok = (
        closed == recursive == (32, 38, 58, 62)
        and products == [18, 18, 18, 8]
        and sum(products) == 62
    )
    _criterion(
        3,
        f"index set of 62 is {set(closed)} both ways; products {products} sum 62",
        ok,
    )


def test_criterion_04_change_of_basis_soundness():
    failures = []
    for p, alpha in ((2, 3), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2)):
        group = GroupSpec(p, alpha)
        q = group.q
        forward = change_of_basis(group, "v_to_u")
        backward = change_of_basis(group, "u_to_v")
        fwd = np.array(forward.entries, dtype=np.int64)
        bwd = np.array(backward.entries, dtype=np.int64)
        identity = np.eye(q, dtype=np.int64)
        for i, row in enumerate(forward.entries):
            if row[i] != 1 or any(v for v in row[i + 1 :]):
                failures.append((p, alpha, "triangularity", i))
            if any(v not in (0, 1) for v in row):
                failures.append((p, alpha, "entries", i))
        if not (
            np.array_equal(fwd @ bwd, identity) and np.array_equal(bwd @ fwd, identity)
        ):
            failures.append((p, alpha, "inverse"))
        powers = {q} | {
            a * p**k
            for k in range(alpha + 1)
            for a in range(1, p)
            if a * p**k <= q
        }
        for i in powers:
            expected = tuple(1 if j == i else 0 for j in range(1, q + 1))
            if forward.entries[i - 1] != expected:
                failures.append((p, alpha, "power row", i))
    _criterion(
        4,
        f"V-to-U matrices triangular/unit/0-1 and invertible against U-to-V; "
        f"failures {failures or 'none'}",
        not failures,
    )


def test_criterion_05_relations_vanish():
    failures = []
    for p, alpha in RELATION_GROUPS:
        values = relations(GroupSpec(p, alpha))
        if not values[0].is_zero():
            failures.append((p, alpha, 0))
        for j in range(1, alpha):
            if not values[j].is_zero():
                failures.append((p, alpha, j))
    _criterion(
        5,
        f"presentation relations evaluate to zero for {RELATION_GROUPS}: "
        f"failures {failures or 'none'}",
        not failures,
    )


def test_criterion_06_principal_ideal():
    failures = [
        (p, alpha)
        for p, alpha in RELATION_GROUPS
        if not principal_generation_check(GroupSpec(p, alpha))
    ]
    _criterion(
        6,
        f"induced ideal principally generated for {RELATION_GROUPS}: "
        f"failures {failures or 'none'}",
        not failures,
    )


def _smallest_coprime_prime(n: int) -> int:
    p = 2
    while n % p == 0 or not is_prime(p):
        p += 1
    return p


def test_criterion_07_rank_theorems():
    failures = []
    for n in range(1, 361):
        characteristics = [
            p
            for p in range(2, n + 1)
            if n % p == 0 and is_prime(p)
        ]
        characteristics.append(_smallest_coprime_prime(n))
        for p in characteristics:
            spec = CyclicGroupSpec(n, p)
            report = rank_report(spec)
            if report["quotient_rank"] != report["phi_n"]:
                failures.append((n, p, "rank"))
            if any(f != 1 for f in report["invariant_factors"]):
                failures.append((n, p, "torsion"))
            # Cross-check: one Smith form of the whole n-wide induced ideal.
            factors = invariant_factors(ideal_lattice(spec))
            if spec.n - len(factors) != report["quotient_rank"]:
                failures.append((n, p, "n-wide rank"))
            if any(f != 1 for f in factors):
                failures.append((n, p, "n-wide torsion"))
    _criterion(
        7,
        "quotient rank equals phi(n) for n <= 360 under every valid "
        "characteristic, torsion-free lattices, cross-checked against the "
        f"n-wide lattice; failures {failures[:5] or 'none'}",
        not failures,
    )


def test_criterion_08_digit_identity():
    failures = []
    for base in (2, 3, 5, 7, 10):
        for n in range(1, 10001):
            cert = trick_certificate(n, base)  # raises on sum mismatch
            if sum(prod for _, _, prod in cert.terms) != n:
                failures.append((n, base))
    _criterion(
        8,
        "digit certificates hold for 1 <= n <= 10000, bases {2,3,5,7,10}: "
        f"failures {failures[:5] or 'none'}",
        not failures,
    )


def test_criterion_09_quantum_numbers():
    table = {
        0: (),
        1: (1,),
        2: (0, 1),
        3: (-1, 0, 1),
        4: (0, -2, 0, 1),
        5: (1, 0, -3, 0, 1),
        6: (0, 3, 0, -4, 0, 1),
        7: (-1, 0, 6, 0, -5, 0, 1),
    }
    ok_table = all(quantum_number(n) == poly for n, poly in table.items())
    ok_closed = all(quantum_closed_form(n) == quantum_number(n) for n in range(1, 101))
    ok_eval = all(evaluate(quantum_number(n), 2) == n for n in range(201))
    _criterion(
        9,
        f"quantum numbers: table rows {ok_table}, closed form {ok_closed}, "
        f"[n]_2 = n {ok_eval}",
        ok_table and ok_closed and ok_eval,
    )


def test_criterion_10_dimension_homomorphism():
    failures = []
    for p, alpha in SWEEPS:
        group = GroupSpec(p, alpha)
        q = group.q
        for s in range(1, q + 1):
            for r in range(1, s + 1):
                if r * s > BUDGET:
                    continue
                if tensor(group, r, s).dim() != r * s:
                    failures.append((p, r, s))
    _criterion(
        10,
        "dim(tensor(r, s)) = r*s over the full criterion-1 sweep: "
        f"failures {failures[:5] or 'none'}",
        not failures,
    )
