"""Desk-scale unrolled-denoising text generation.

Non-autoregressive token-sequence denoisers trained with an unrolled
reconstruction objective and decoded by Markov-chain sampling.
"""

import ctypes

__version__ = "0.1.0"

# glibc gives the top of its heap back to the kernel whenever a free leaves
# enough of it unused, so each decode batch faulted its activations back in:
# a repeated 32-chain draw from a v=25, N=32 model took about 16,800 minor
# faults, against 6 or fewer with 64 MiB kept free at the top of the heap.
# glibc's mallopt(M_TOP_PAD) keeps it for the whole process; it changes no
# arithmetic, and the heap is not given back between decodes. Elsewhere the
# allocator is left as it is.
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20


def _keep_heap() -> bool:
    """Set glibc's M_TOP_PAD to _TOP_PAD_BYTES; True if it took."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return libc.mallopt(_M_TOP_PAD, _TOP_PAD_BYTES) == 1


# Whether this process runs with the padded heap (glibc only).
HEAP_KEPT = _keep_heap()
