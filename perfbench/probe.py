"""CPU speed probe: a fixed pure-Python search pinned to one CPU at the
lowest priority, logging the CPU time each round of it takes.

    python3 probe.py CPU OUT

It appends one line "<CLOCK_MONOTONIC ns> <thread CPU ns>" per round to OUT
until it is killed or its parent exits.  At nice 19 it gets about 1.5% of
a CPU that a repetition keeps busy, in short slices spread over the
repetition, so the round times sample how fast that CPU ran meanwhile.
run.py divides each repetition's times by that speed.  The probe must share
the repetition's session: nice orders tasks only within one session's
scheduling group.

A round counts the solutions of the 6-queens problem by recursive bitmask
backtracking: the same kind of interpreter work as the package's searches.
Contention on the host slows such code more than a flat arithmetic loop, so
a loop would under-correct.
"""

import os
import sys
import time

QUEENS = 6


def _queens(n: int, row: int = 0, cols: int = 0, d1: int = 0, d2: int = 0) -> int:
    if row == n:
        return 1
    count = 0
    free = ~(cols | d1 | d2) & ((1 << n) - 1)
    while free:
        bit = free & -free
        free ^= bit
        count += _queens(n, row + 1, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1)
    return count


def main(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    cpu_ns = time.thread_time_ns
    mono_ns = time.monotonic_ns
    parent = os.getppid()
    with open(out, "w", buffering=1) as fp:
        while os.getppid() == parent:
            t = cpu_ns()
            _queens(QUEENS)
            fp.write(f"{mono_ns()} {cpu_ns() - t}\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
