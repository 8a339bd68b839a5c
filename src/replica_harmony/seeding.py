"""Deterministic derivation of independent random streams."""

# hashlib loads OpenSSL's libcrypto; CPython's built-in SHA-256 gives the same
# digest without it (random.py picks its SHA-512 the same way)
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(*parts: object) -> int:
    """Map a tuple of labels to a stable 64-bit seed.

    Every random stream in a simulation (topology generation, workload
    generation, each per-datum optimizer run, requester draws) is seeded by
    hashing the root seed together with distinguishing labels. Streams with
    different labels are independent, and adding or skipping draws in one
    stream never perturbs another. The digest is platform-independent.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
