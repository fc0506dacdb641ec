"""Set-up of one workload in a fresh interpreter, for the ``setup_s`` metric.

Imports the library modules the workload's ops use, draws and prepares its
inputs, then prints the input digest as one line and exits.  The parent
process times the span from launch to that line.

    python3 perfbench/setup_probe.py --workload verdict-sweep --seed 1
"""

import argparse
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.bootstrap(ROOT)
    raw, _ = workloads.set_up(workloads.WORKLOADS[args.workload], args.seed)
    print(workloads.input_digest(raw), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
