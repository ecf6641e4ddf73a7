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

Each module's ``__all__`` lists its public names, and the package
re-exports them all; the mixed-radix codec stays in ``qrindex.mixedradix``.
"""

from . import bruteforce, errors, indexing, numbertheory, sampling
from .bruteforce import *
from .errors import *
from .indexing import *
from .numbertheory import *
from .sampling import *

__version__ = "0.1.0"

__all__ = [
    *bruteforce.__all__,
    *errors.__all__,
    *indexing.__all__,
    *numbertheory.__all__,
    *sampling.__all__,
    "__version__",
]
