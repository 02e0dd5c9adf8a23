"""Exact arithmetic in the representation ring of cyclic groups in
characteristic p, validated against a brute-force linear-algebra oracle.

The modules split along the mathematics:

* ``core_ring``  - ring elements in the V-basis and the tensor engine
* ``quantum``    - quantum-number polynomials and presentation relations
* ``ubasis``     - the U-basis and the change of basis
* ``ideals``     - induced ideals, Smith normal forms, totient ranks
* ``oracle``     - independent Jordan types over F_p
* ``digits``     - the pick-a-number digit identity, prime factorization
* ``cli``        - command-line front end
"""

from .core_ring import (
    GroupSpec,
    RingElement,
    basis_element,
    chi,
    chi_power,
    induce,
    mul,
    mul_chi_V,
    one,
    tensor,
    zero,
)
from .digits import (
    TrickCertificate,
    VerificationError,
    to_digits,
    trick_certificate,
    trick_set,
)
from .ideals import (
    CyclicGroupSpec,
    LatticeBasis,
    cyclotomic,
    euler_phi,
    smith_normal_form,
)
from .oracle import JordanType, jordan_type, rank_fp, verify_engine
from .quantum import (
    IntPolynomial,
    eval_at_element,
    quantum_closed_form,
    quantum_number,
    relations,
)
from .ubasis import IntMatrix, change_of_basis, cousins, u_element, v_in_u

__all__ = [
    "GroupSpec", "RingElement", "basis_element", "chi", "chi_power",
    "induce", "mul", "mul_chi_V", "one", "tensor", "zero",
    "TrickCertificate", "VerificationError", "to_digits", "trick_certificate",
    "trick_set",
    "CyclicGroupSpec", "LatticeBasis", "cyclotomic", "euler_phi",
    "smith_normal_form",
    "JordanType", "jordan_type", "rank_fp", "verify_engine",
    "IntPolynomial", "eval_at_element", "quantum_closed_form",
    "quantum_number", "relations",
    "IntMatrix", "change_of_basis", "cousins", "u_element", "v_in_u",
]

__version__ = "0.1.0"
