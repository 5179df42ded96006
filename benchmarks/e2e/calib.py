"""Host-speed calibration: the fixed reference kernel and its constant.

A shared VM's speed drifts by tens of percent over seconds. Every timed
phase of the benchmark is bracketed by this kernel, and every duration
is reported *at reference host speed*::

    t_ref = t_wall * CALIB_REF_S / calib_s

The kernel and :data:`CALIB_REF_S` are part of the benchmark's
definition: changing either re-baselines every number, so it is a
benchmark PR of its own, never part of a change that claims a gain.
"""

from __future__ import annotations

import random
import time
import zlib

#: the kernel's duration on the reference host, seconds. A duration
#: measured while the kernel took ``calib_s`` is scaled by
#: ``CALIB_REF_S / calib_s``.
CALIB_REF_S = 0.0025

_DICT_UPDATES = 20_000
_DECOMPRESSIONS = 20


def _plaintext() -> bytes:
    """The fixed 64 KiB buffer: 64 random 32-byte words in random order
    (a private generator, so no benchmark seed can change it)."""
    rng = random.Random(0x5EED)
    words = [bytes(rng.getrandbits(8) for _ in range(32)) for _ in range(64)]
    return b"".join(rng.choice(words) for _ in range(65536 // 32))


_BLOB = zlib.compress(_plaintext(), 1)


def kernel() -> None:
    """Interpreter work (dict stores) plus native codec work (inflate),
    the two kinds of CPU time a FanStore read is made of."""
    table: dict[int, int] = {}
    for i in range(_DICT_UPDATES):
        table[i & 1023] = i
    decompress = zlib.decompress
    for _ in range(_DECOMPRESSIONS):
        decompress(_BLOB)


def calib_s() -> float:
    """One calibration sample: the faster of two back-to-back kernel
    runs (the minimum rejects a preemption that hit one of them)."""
    clock = time.perf_counter
    t0 = clock()
    kernel()
    t1 = clock()
    kernel()
    t2 = clock()
    return min(t1 - t0, t2 - t1)


def to_ref(seconds: float, calib: float) -> float:
    """``seconds`` measured at host speed ``calib``, at reference speed."""
    return seconds * CALIB_REF_S / calib
