"""Host-speed probe of the benchmark: a fixed loop that shares the workload's CPU.

    python3 perfbench/calibrate.py COUNTER CPU PARENT

Pins itself to CPU at the lowest priority (nice 19), so that while a jwalk
process runs on the same CPU the loop gets about 1.5% of it, in slices
spread over the process's whole life.  After every chunk of CHUNK
iterations it writes the number of chunks done and its own CPU time to
COUNTER, 16 bytes, which run.py reads before and after each process: CPU
seconds per chunk over that span is the speed the host gave this
interpreter while the process ran.  Runs until killed, or until the
process PARENT is gone.
"""

import mmap
import os
import struct
import sys
import time

CHUNK = 1000
CHUNKS_PER_PARENT_CHECK = 1000
COUNTER = struct.Struct("dd")   # chunks done, CPU seconds used


def main(argv) -> None:
    path, cpu, parent = argv[0], int(argv[1]), int(argv[2])
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    with open(path, "r+b") as handle:
        counter = mmap.mmap(handle.fileno(), COUNTER.size)
    chunks = 0
    while chunks % CHUNKS_PER_PARENT_CHECK or os.getppid() == parent:
        total = 0
        for i in range(CHUNK):
            total += i * i % 7
        chunks += 1
        counter[:] = COUNTER.pack(chunks, time.thread_time())


if __name__ == "__main__":
    main(sys.argv[1:])
