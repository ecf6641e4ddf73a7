"""Indexing, enumeration and minimal-entropy sampling of quadratic residues.

The central object is a bijection between the integer interval
[1, |QR(N)|] and the quadratic residues modulo N, computable in both
directions in polynomial time given N's prime factorization:

    >>> from qrindex import parse_factorization, decode_index, encode_residue
    >>> m = parse_factorization("3 * 5")
    >>> decode_index(m, 2)
    4
    >>> encode_residue(m, 4)
    2

The mixed-radix codec lives in ``qrindex.mixedradix``; everything else
is re-exported here.
"""

from .bruteforce import (
    CertificationReport,
    certify_bijection,
    enumerate_qr,
    factor_trial_division,
)
from .errors import (
    FactorizationError,
    IndexRangeError,
    NotAResidueError,
    NotCoprimeError,
)
from .indexing import (
    FactoredModulus,
    PrimePower,
    RootProfile,
    decode_index,
    encode_residue,
    index_space_size,
    index_to_profile,
    is_quadratic_residue,
    parse_factorization,
    profile_to_index,
    profile_to_residue,
    radix_schedule,
    residue_to_profile,
)
from .numbertheory import (
    crt_combine,
    hensel_lift_sqrt,
    is_prime,
    sqrt_mod_2k,
    sqrt_mod_prime,
)
from .sampling import (
    BitSource,
    BitSourceExhaustedError,
    RandomBitLedger,
    RejectionLimitError,
    SampleReport,
    ScriptedBitSource,
    SeededBitSource,
    SystemBitSource,
    compare_bit_budgets,
    draw_uniform,
    sample_residue_by_index,
    sample_residue_classical,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationReport",
    "certify_bijection",
    "enumerate_qr",
    "factor_trial_division",
    "FactorizationError",
    "IndexRangeError",
    "NotAResidueError",
    "NotCoprimeError",
    "FactoredModulus",
    "PrimePower",
    "RootProfile",
    "decode_index",
    "encode_residue",
    "index_space_size",
    "index_to_profile",
    "is_quadratic_residue",
    "parse_factorization",
    "profile_to_index",
    "profile_to_residue",
    "radix_schedule",
    "residue_to_profile",
    "crt_combine",
    "hensel_lift_sqrt",
    "is_prime",
    "sqrt_mod_2k",
    "sqrt_mod_prime",
    "BitSource",
    "BitSourceExhaustedError",
    "RandomBitLedger",
    "RejectionLimitError",
    "SampleReport",
    "ScriptedBitSource",
    "SeededBitSource",
    "SystemBitSource",
    "compare_bit_budgets",
    "draw_uniform",
    "sample_residue_by_index",
    "sample_residue_classical",
    "__version__",
]
