"""Run one ccflab study in this fresh interpreter and print one JSON record.

    python3 perfbench/child.py '<study argv as a JSON list>' <0|1>

The checkout's ``src`` must be on ``PYTHONPATH``.  The import of
``ccflab.cli`` is timed first, since every CLI user pays it on every run; then
``ccflab.cli.main`` is called in-process with the study's stdout captured.
The second argument turns on the spans of ``instrument.py``.
"""

import sys
import time

_start = time.perf_counter()
import ccflab.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from instrument import MODULES, Instrument  # noqa: E402

CALIBRATION_CALLS = 2000


def ifft256_us(ifft) -> float:
    """Mean time of one length-256 complex ifft: the machine's speed state."""
    x = np.random.default_rng(0).standard_normal(256) + 0j
    start = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        ifft(x)
    return (time.perf_counter() - start) / CALIBRATION_CALLS * 1e6


def main() -> int:
    argv = json.loads(sys.argv[1])
    trace = sys.argv[2] == "1"
    ifft = np.fft.ifft
    calibration = [ifft256_us(ifft)]
    modules = {name: importlib.import_module(f"ccflab.{name}") for name in MODULES}
    inst = Instrument(modules, trace)
    inst.install()
    study = inst.span("bench", "cli.main", ccflab.cli.main) if trace else ccflab.cli.main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = study(argv)
        wall_s = time.perf_counter() - start
    calibration.append(ifft256_us(ifft))
    record = {
        "rc": rc,
        "stdout": out.getvalue(),
        "import_s": IMPORT_S,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ifft256_us": calibration,
        "observed": inst.observed,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if trace:
        record["counts"], record["times"] = inst.layer_metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
