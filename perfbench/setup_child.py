"""One benchmark set-up in a fresh interpreter, timed from the inside.

Set-up is ``import surveymech`` plus population generation plus writing the
`simulate` config.  Prints the CPU seconds the main thread took (so time the
hypervisor of a shared host steals is left out, and so is the start-up spin
of numpy's BLAS threads, which set-up does not wait for) as the last stdout
line.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED TOY CONFIG OUT_PREFIX
"""

import time

_t0 = time.thread_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))
import surveymech  # noqa: E402,F401


def main(argv) -> None:
    name, seed, toy, config, out_prefix = argv
    w = workloads.get(name, toy=toy == "1")
    pop = workloads.population(w, int(seed))
    workloads.write_config(w, int(seed), pop, Path(config), Path(out_prefix))
    print(repr(time.thread_time() - _t0))


if __name__ == "__main__":
    main(sys.argv[1:])
