"""``python -m repro`` with the layer probes installed.

    python3 perfbench/traced_repro.py serve --port 0 --trace-dir DIR ...

Used by the traced run of ``serve-mixed``: the probes' spans join the
traces that ``--trace-dir`` records.
"""

import os
import runpy
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import probe  # noqa: E402

probe.install()
sys.argv = ["repro"] + sys.argv[1:]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
