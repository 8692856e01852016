"""Time one fresh interpreter's set-up for a workload: import gridcross and
generate the inputs. Prints {"setup_s": seconds, "instances": n}.

    python3 perfbench/setup_probe.py --workload random-certify --seed 1
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    start = time.process_time()  # CPU seconds, as the benchmark's other timings
    import gridcross  # noqa: F401  (timed: the package import is part of set-up)
    from run import Untraced
    from workloads import generate

    instances = generate(args.workload, args.seed, Untraced())
    elapsed = time.process_time() - start
    print(json.dumps({"setup_s": elapsed, "instances": len(instances)}))


if __name__ == "__main__":
    main()
