"""Set-up probe for one workload, run in a fresh process by ``run.py``.

Times the import of ``subriem``, the resolution of the workload's structures
(registry plus any JSON file) and the first jet evaluation of each, which
builds its monomial tables.  Prints the seconds as the only output line.

    python3 bench/setup_probe.py single-ray
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import subriem  # noqa: E402,F401
from subriem.structure import load_structure, make_structure  # noqa: E402


def main(workload: str) -> None:
    structs = [make_structure("heisenberg")]
    if workload == "single-ray":
        structs.append(load_structure(str(HERE / "engel.json")))
    for struct in structs:
        struct.jet_raw(np.zeros(struct.n), np.ones(struct.n))
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main(sys.argv[1])
