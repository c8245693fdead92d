"""Per-kernel timings of the Frobenius norm and the ring inverse.

Run with ``PYTHONPATH=src python tests/kernel_table.py``; pytest does not
collect it.  It prints the Python version and the host, then one row per
ring (p, n, d): the microseconds per call, best of 3 passes over 500
seeded units, of the norm N_d(a) = a sigma(a) ... sigma^(d-1)(a) of a
1 x 1 and of a 2 x 2 matrix of units, and of the inverse of a unit.
Compare rows within one run of one host, not across hosts.
"""

import os
import platform
import random
import time

from glnlab.rings import DEFAULT_GROUP_CAP, TruncatedLocalRing

# four tabulated rings (d > 1, at most 256 elements), then packed ones
SHAPES = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 8), (2, 1, 10),
          (2, 1, 16), (3, 1, 12), (2, 1, 19), (31, 1, 4), (997, 1, 2),
          (2, 4, 3), (3, 4, 2)]
UNITS, PASSES = 500, 3


def norm_map(ring, s, m):
    """The ring's norm map; on trees whose norm was lang's, that one."""
    if hasattr(ring, "norm_map"):
        return ring.norm_map(s, m)
    from glnlab.lang import twisted_norm
    return twisted_norm(ring, s, m)


def best_us(f, args):
    """Microseconds per call of f over args, the best of PASSES."""
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        for a in args:
            f(a)
        times.append(time.perf_counter() - start)
    return min(times) / len(args) * 1e6


def row(p, n, d):
    ring = TruncatedLocalRing(p, n, d, cap=DEFAULT_GROUP_CAP)
    rng = random.Random(f"{p},{n},{d}")
    units = []
    while len(units) < UNITS:
        a = rng.randrange(ring.size())
        if ring.is_unit(a):
            units.append(a)
    pairs = [tuple(rng.sample(units, 4)) for _ in range(UNITS)]
    return (best_us(norm_map(ring, 1, d), [(a,) for a in units]),
            best_us(norm_map(ring, 2, d), pairs),
            best_us(ring.inv, units))


def main():
    print(f"python {platform.python_version()} on {platform.machine()}, "
          f"{platform.processor() or 'unknown cpu'}, "
          f"{os.cpu_count()} cpus, {platform.node()}")
    print("| ring (p, n, d) | norm N_d, s = 1 | norm N_d, s = 2 | inverse |")
    print("| --- | --- | --- | --- |")
    for shape in SHAPES:
        cells = " | ".join(f"{t:.2f}" for t in row(*shape))
        print(f"| {shape} | {cells} |", flush=True)


if __name__ == "__main__":
    main()
