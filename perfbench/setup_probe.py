"""Set-up probe: ``python3 perfbench/setup_probe.py <workload> <seed>``.

Imports nsasym from the checkout, generates and validates one workload's
inputs, then prints ``ready``.  run.py times fresh interpreters of this
script from spawn to that line; that span is the benchmark's ``setup_s``.
"""

import sys

from run import use_checkout_source

use_checkout_source()

from workloads import WORKLOADS  # noqa: E402  (needs the source path first)

WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
print("ready", flush=True)
