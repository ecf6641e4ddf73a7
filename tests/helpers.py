"""Brute-force oracles and generators shared across the test modules.

Everything here is deliberately naive: exhaustive scans, no shortcuts
borrowed from the code under test.
"""

import random

import qrindex.bruteforce as bruteforce
from qrindex import (
    CertificationReport,
    RandomBitLedger,
    decode_index,
    draw_uniform,
    index_space_size,
    is_prime,
)

# Enough odd primes to build every small test modulus from.
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def all_roots(a, m):
    """Every x in [0, m) with x*x = a mod m, by scanning."""
    a %= m
    return [x for x in range(m) if x * x % m == a]


def canonical_root_table(p):
    """Map each residue mod p to its root in [1, (p-1)/2], by squaring."""
    return {x * x % p: x for x in range(1, (p - 1) // 2 + 1)}


def lift_inverse_root_reference(r, z, p, pk):
    """Newton lift of ``r = z**(-1/2) mod p`` to p**k, then ``z*r``: every
    step multiplies the full-width z and halves by the product with
    ``(q+1)/2``, then a division; the slow path the fast lift replaces."""
    q = p
    while q < pk:
        q = min(q * q, pk)
        r = r * (3 - z * r * r) * ((q + 1) // 2) % q
    return z * r % pk


def sqrt_mod_2k_reference(z, k):
    """The root below 2**(k-2) of a residue z modulo 2**k (k >= 4), by
    Newton steps on the full-width z that reduce with ``//`` and ``%``."""
    z %= 1 << k
    r, j = 1, 3
    while j < k:
        j = min(2 * j - 2, k)
        r = r * (3 - z * r * r) // 2 % (1 << j)
    half = 1 << (k - 1)
    y = z * r % half
    return min(y, half - y)


def sample_residue_by_index_reference(m, source):
    """The index sampler through the public codec: a 1-based index drawn
    from [1, |QR(N)|], then decode_index with its range check; the path
    the direct decode of the drawn value replaces."""
    ledger = RandomBitLedger()
    index = 1 + draw_uniform(index_space_size(m), source, ledger)
    return decode_index(m, index), ledger


def sieve_primes(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


def miller_rabin_reference(n):
    """Miller-Rabin with 64 bases drawn from an RNG seeded by n itself.

    The reference for ``is_prime`` above its deterministic bound: slow,
    and independent of the extra strong Lucas test the library runs there.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    rng = random.Random(n)
    for _ in range(64):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits, rng: random.Random, test=is_prime):
    """Uniform odd prime with the top bit set, by rejection on ``test``."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if test(candidate):
            return candidate


def hostile_factor_strings():
    """Strings of digits, ``*``, ``^`` and whitespace, with valid terms mixed in.

    Digit runs stay short, so bases stay cheap to primality-test; huge
    exponents still arrive when runs meet after a ``^``.
    """
    from hypothesis import strategies as st

    piece = st.one_of(
        st.text("0123456789", min_size=1, max_size=8),
        st.sampled_from(["*", "^", " ", "\t", "\n", " * "]),
        st.sampled_from(["2", "2^5", "3", "3^2", "5", "7^3", "11", "13^2", "65537"]),
    )
    return st.lists(piece, max_size=10).map("".join)


def squarefree_semiprime_modulus(bits, rng: random.Random):
    """A FactoredModulus P*Q with distinct primes of bits/2 each."""
    from qrindex import FactoredModulus

    half = bits // 2
    p = random_prime(half, rng)
    q = random_prime(half, rng)
    while q == p:
        q = random_prime(half, rng)
    return FactoredModulus(0, [(min(p, q), 1), (max(p, q), 1)])


_RAISED = object()  # the result of a value whose call raised: equals no result


def certify_bijection_reference(m):
    """The certifier as it was before it compared sets: the decoded image
    is sorted and compared with the sorted enumeration.  It reads the
    codec, the index space size and the enumeration through
    ``qrindex.bruteforce``'s names at call time, so a stand-in patched
    there reaches this reference and the certifier alike."""
    size = bruteforce.index_space_size(m)
    report = CertificationReport(n=m.n, indices_checked=size)
    failures = report.failures
    expected = bruteforce.enumerate_qr(m.n)
    if size != len(expected):
        failures.append(f"index space size {size} but enumeration found {len(expected)} residues")
    indices = range(1, size + 1)
    named = len(failures)
    decoded = _results_reference(bruteforce.decode_indices, m, indices, "decode", failures)
    if len(failures) == named and len(set(decoded)) == size:
        residues, owners = decoded, list(indices)
    else:
        first = {}
        for index, z in zip(indices, decoded):
            if z is not _RAISED and first.setdefault(z, index) != index:
                failures.append(f"decode collision: indices {first[z]} and {index} both give {z}")
        residues, owners = list(first), list(first.values())
    back = _results_reference(bruteforce.encode_residues, m, residues, "encode", failures)
    if back != owners:
        for z, index, got in zip(residues, owners, back):
            if got is not _RAISED and got != index:
                failures.append(
                    f"roundtrip broke: index {index} decodes to {z} but encodes to {got}"
                )
    image = sorted(residues)
    if image != expected:
        missing = sorted(set(expected) - set(image))[:5]
        extra = sorted(set(image) - set(expected))[:5]
        failures.append(f"image mismatch: missing {missing}, extraneous {extra}")
    return report


def _results_reference(batch, m, values, name, failures):
    """``batch(m, values)``, or each value alone if that raises, naming
    every value that raises and a result list of the wrong length."""
    try:
        results = batch(m, values)
    except Exception as batch_exc:
        results, named = [], len(failures)
        for value in values:
            try:
                results.append(batch(m, (value,))[0])
            except Exception as exc:
                failures.append(f"{name}({value}) raised {exc!r}")
                results.append(_RAISED)
        if len(failures) == named:
            failures.append(
                f"{name} raised {batch_exc!r} on {len(values)} values but on no single value"
            )
    if len(results) != len(values):
        failures.append(f"{name} gave {len(results)} results for {len(values)} values")
    return results
