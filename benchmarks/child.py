"""One benchmark step in a fresh interpreter: a set-up or a timed repetition.

Usage: python3 child.py STEP.json

STEP.json holds ``files`` (name -> text, written first), ``argv`` (passed to
``vipsa.cli.main``, or null), ``trace`` and ``result`` (where to write the
outcome).  The parent sets VIPSA_NUM_THREADS and the BLAS thread variables in
the environment, so they are in place before numpy loads.  Imports happen
before the clock starts, so ``wall_s`` is the `cli.main` call alone.

The speed probe runs right before and right after the step's work.  On a
shared machine throughput can drift by tens of percent over minutes; the
probe's time measures that drift where the step ran, so the parent can
express the step's time at a fixed machine speed.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def speed_probe() -> float:
    """Seconds for a fixed kernel shaped like the program's gate passes.

    It rotates pairs of amplitudes of a 4 MiB complex array through index
    gathers and scatters, as `apply_pool_unitary` does, and runs a short pure
    Python loop.  The work never changes, so its time tracks machine speed.
    """
    import numpy as np
    size = 1 << 18
    amps = np.exp(1j * np.arange(size) * 1e-3)
    src = (np.arange(size // 8, dtype=np.uint64) * 7919 % size).astype(np.uint32)
    dst = src ^ np.uint32(1 << 17)
    start = time.perf_counter()
    for _ in range(36):
        out = amps.copy()
        v_src, v_dst = out[src].copy(), out[dst].copy()
        out[dst] = 0.6 * v_dst + 0.8 * v_src
        out[src] = 0.6 * v_src - 0.8 * v_dst
        total = 0
        for i in range(40000):
            total += i & 7
    return time.perf_counter() - start


def main():
    step = json.loads(Path(sys.argv[1]).read_text())
    import vipsa.cli  # the package __init__ pulls in every vipsa module, numpy and scipy
    import numpy
    import scipy

    source = Path(step["src"]).resolve()
    if source not in Path(vipsa.__file__).resolve().parents:
        sys.exit(f"vipsa imported from {vipsa.__file__}, not from {source}")

    tracer = None
    if step["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    probe_start = time.perf_counter()
    before = speed_probe()
    probe_total = time.perf_counter() - probe_start
    for name, text in step["files"].items():
        Path(name).write_text(text)
    exit_code, wall = None, 0.0
    if step["argv"] is not None:
        start = time.perf_counter()
        exit_code = vipsa.cli.main(step["argv"])
        wall = time.perf_counter() - start
    sys.stdout.flush()
    probe_start = time.perf_counter()
    after = speed_probe()
    probe_total += time.perf_counter() - probe_start

    outcome = {
        "exit_code": exit_code,
        "wall_s": wall,
        "probe_s": (before + after) / 2,
        "probe_total_s": probe_total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "threads": {var: os.environ.get(var) for var in
                    ("VIPSA_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }
    if tracer is not None:
        outcome["trace"] = tracer.dump()
    Path(step["result"]).write_text(json.dumps(outcome))


if __name__ == "__main__":
    main()
