#!/usr/bin/env python3
"""Peak resident set and wall time of one command.

    python3 scripts/peak_rss.py target/release/prio run big.json --output out.json

Prints one line, `<peak_rss_mb> <wall_s> <exit code>`, with the peak in
MiB as the benchmark reports it (`wait4`'s `ru_maxrss` / 1024). The
command's stdout and stderr go to /dev/null.

The child is started with `posix_spawn`, which does not copy this
process's address space, so `ru_maxrss` is the command's own peak. A
child started by fork + exec (Rust's `Command::spawn`, which
`benchmark/src/proc.rs` uses) reports at least the parent's resident set
at the fork instead: that floor is about 32 MB under the benchmark
runner on `cli-large`.
"""

import os
import sys
import time


def main(argv):
    if not argv:
        sys.exit(__doc__)
    devnull = os.open(os.devnull, os.O_WRONLY)
    actions = [(os.POSIX_SPAWN_DUP2, devnull, 1), (os.POSIX_SPAWN_DUP2, devnull, 2)]
    start = time.monotonic()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - start
    code = os.waitstatus_to_exitcode(status)
    print(f"{usage.ru_maxrss / 1024:.2f} {wall:.3f} {code}")


if __name__ == "__main__":
    main(sys.argv[1:])
