"""Set-up probe: build one workload in this fresh interpreter and print
the monotonic clock at its first simulated event.

    python3 perfbench/setup_probe.py <workload> <seed> <size>

``run.py`` reads the same clock just before it launches the probe, so
the difference covers interpreter start, imports, topology, cost model,
RMWP plan and spawn (for check_farm: until the first scenario starts in
a farm worker, worker start included).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import SIZES, WORKLOADS  # noqa: E402


def main(argv):
    name, seed, size = argv[0], int(argv[1]), argv[2]
    stamp = WORKLOADS[name](seed, SIZES[size]).first_event()
    print(json.dumps({"first_event_ns": stamp}))


if __name__ == "__main__":
    main(sys.argv[1:])
