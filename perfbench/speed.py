"""A fixed reference kernel that tracks the speed of a shared machine.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, which would swamp any change to the program.  The
timed pass runs :func:`reference_kernel` between ops, every
``REF_EVERY_S`` of op time, and scales each op's latency by
``REF_NOMINAL_S / t_ref``, with ``t_ref`` the mean of the reference
samples taken within ``REF_WINDOW_S`` of op time on either side of it.
The speed of a small kernel flips between regimes within a fraction of
a second, and an op of a few hundred milliseconds runs through several
of them, so the mean over seconds tracks the speed an op sees better
than the samples next to it.  Times are then in milliseconds (or seconds) of a
machine on which the kernel takes ``REF_NOMINAL_S``; drift of the host
cancels, while a change to ``qeuler`` moves them in full, because the
kernel uses only the standard library.  The raw times are printed
beside the scaled ones.

The kernel mixes the work the workloads do: big-integer Fraction
arithmetic, float and complex transcendental functions, and
interpreter-bound loops over small ints.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

# What the kernel takes on the 2-vCPU VM the baselines in README.md came from.
REF_NOMINAL_S = 0.0011
REF_EVERY_S = 0.02  # op time between two reference samples
REF_WINDOW_S = 1.5  # op time on either side of an op whose samples set its scale


def reference_kernel():
    q = Fraction(9_999, 10_000)
    x = Fraction(1)
    for i in range(1, 80):
        x = x * q + Fraction(1, i)
    z = 0j
    for n in range(1, 300):
        z += cmath.exp(complex(-0.01 * n, 0.3 * n)) * math.log1p(n)
    s = 0
    for i in range(4_000):
        s += (i * i) % 7
    return x, z, s


def time_reference():
    """CPU seconds of one run of the kernel, the clock the ops are timed by."""
    t0 = time.process_time()
    reference_kernel()
    return time.process_time() - t0
