"""A fixed unit of work that measures how fast the machine runs right now.

Shared hosts slow this process down by up to a factor of two for seconds
to minutes at a time, which swamps any change worth measuring.  The
benchmark therefore runs ``reference_loop`` between requests and divides
each request's latency by the local reference time: the quotient is the
request's cost in reference loops, which slow phases leave nearly intact.

The loop is the benchmark's own code and never changes with the program.
It does the kinds of operations the program's searches spend their time
on: recursion, bit-mask arithmetic, list writes and dict updates.
"""

from __future__ import annotations

from time import perf_counter

_N = 14
_ADJ = tuple(
    (1 << ((v + 1) % _N)) | (1 << ((v - 1) % _N)) | (1 << ((v + 3) % _N)) | (1 << ((v - 3) % _N))
    for v in range(_N)
)
REFERENCE_RESULT = 211


def reference_loop() -> int:
    """Count 3-colorings of a fixed circulant graph, colors in first-use order."""
    colors = [0] * _N
    seen: dict[int, int] = {}

    def extend(v: int, used: int) -> int:
        if v == _N:
            return 1
        found = 0
        for c in range(1, min(used + 1, 3) + 1):
            m = _ADJ[v] & ((1 << v) - 1)
            while m:
                low = m & -m
                m ^= low
                if colors[low.bit_length() - 1] == c:
                    break
            else:
                colors[v] = c
                seen[v] = seen.get(v, 0) + 1
                found += extend(v + 1, max(used, c))
                colors[v] = 0
        return found

    return extend(0, 0)


def calibrate(budget: float) -> float:
    """Mean seconds per reference loop, running it once and then until ``budget`` has passed."""
    runs = 0
    started = perf_counter()
    while True:
        if reference_loop() != REFERENCE_RESULT:
            raise RuntimeError("reference loop returned a wrong count")
        runs += 1
        elapsed = perf_counter() - started
        if elapsed >= budget:
            return elapsed / runs
