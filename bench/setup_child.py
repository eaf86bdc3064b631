"""One cold start: ``import repro``, then the first complete round trip.

Run by ``harness.measure_setup`` in a fresh interpreter:
``setup_child.py <workload> <field.npy> <scratch dir>``.  Prints one JSON
line with the two timed parts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    name, field_path, scratch = argv
    t0 = time.perf_counter()
    import repro  # noqa: F401 - the import is what is being timed
    import_s = time.perf_counter() - t0

    import numpy as np
    from harness import Ops, check_output
    from workloads import WORKLOADS
    x = np.load(field_path)
    ops = Ops(WORKLOADS[name], Path(scratch))

    t0 = time.perf_counter()
    y, _, _, _ = ops.roundtrip(x)
    first_roundtrip_s = time.perf_counter() - t0

    violation, _ = check_output(x, y)
    if violation is not None:
        print(violation, file=sys.stderr)
        return 1
    print(json.dumps({"import_s": import_s,
                      "first_roundtrip_s": first_roundtrip_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
