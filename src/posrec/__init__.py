"""posrec: a pluggable positional-encoding workbench for sequential recommenders."""

import ctypes

__version__ = "0.1.0"


def _keep_freed_heap() -> bool:
    """Have glibc keep freed blocks up to 32 MiB in the heap, so each training
    step reuses the last step's activations instead of faulting fresh pages.

    The mmap threshold is fixed first: setting the trim threshold alone turns
    off glibc's dynamic mmap threshold, and every array of 128 KB or more is
    then mmapped afresh.  True when both settings took; elsewhere (no glibc
    `mallopt`) nothing changes.  Forked sweep workers inherit the setting.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows wants a DLL name
        return False
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1


_keep_freed_heap()
