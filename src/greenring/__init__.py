"""Exact arithmetic in the representation ring of cyclic groups in
characteristic p, validated against a brute-force linear-algebra oracle.

The modules split along the mathematics:

* ``core_ring``  - ring elements in the V-basis and the tensor engine
* ``quantum``    - presentation relations, quantum numbers at an element
* ``ubasis``     - the U-basis and the change of basis
* ``ideals``     - induced ideals, certified free ranks, totient ranks
* ``oracle``     - independent Jordan types over F_p
* ``digits``     - the pick-a-number digit identity, prime factorization
* ``cli``        - command-line front end

The package holds what the library and the command line run.  The
closed forms that only cross-check it (quantum numbers as polynomials,
chi powers, the chi column rule) live with the tests, in
``tests/crosschecks.py``.
"""

from .core_ring import (
    GroupSpec,
    RingElement,
    basis_element,
    chi,
    induce,
    mul,
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
from .ideals import LatticeBasis, smith_normal_form
from .oracle import JordanType, jordan_type, rank_fp, verify_engine
from .quantum import relations
from .ubasis import IntMatrix, change_of_basis, cousins, u_element

__all__ = [
    "GroupSpec", "RingElement", "basis_element", "chi", "induce", "mul",
    "one", "tensor", "zero",
    "TrickCertificate", "VerificationError", "to_digits", "trick_certificate",
    "trick_set",
    "LatticeBasis", "smith_normal_form",
    "JordanType", "jordan_type", "rank_fp", "verify_engine",
    "relations",
    "IntMatrix", "change_of_basis", "cousins", "u_element",
]

__version__ = "0.1.0"
