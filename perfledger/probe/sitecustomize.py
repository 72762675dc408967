"""Benchmark hooks run at interpreter start, before the program's code.

``ledger.py`` puts this directory on ``PYTHONPATH`` for two kinds of
children only:

* ``PERFLEDGER_CALIBRATE=<file>`` — a timed cold start: run one slice of
  the reference kernel first, in the cold process itself, and write its
  speed and CPU seconds (both in CPU time) to ``<file>`` so the set-up
  time can be put on the reference clock (see ``refclock.py``);
* ``PERFLEDGER_LAYERS_DIR=<dir>`` — a traced run: install the layer
  probe, so shard workers and the ``repro serve`` process — fresh
  interpreters the benchmark does not launch itself — carry the same
  wrappers as the workload child.
"""

import os

_HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_HERE, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


if os.environ.get("PERFLEDGER_CALIBRATE"):
    import json
    import time

    _began = time.thread_time()
    _speed = _load("refclock").reference_kernel(clock=time.thread_time)
    with open(os.environ["PERFLEDGER_CALIBRATE"], "w") as _fp:
        json.dump({"speed": _speed,
                   "cpu_s": time.thread_time() - _began}, _fp)

if os.environ.get("PERFLEDGER_LAYERS_DIR"):
    _load("layers").install_from_env()
