"""One benchmark process: import hyperharm from the checkout's ``src``,
prepare one workload, optionally run one pass (traced or not), and print one
JSON line with the timings, the gated values and, when traced, the layer
counters.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR {setup,pass,traced}

Every pass runs in a fresh process, so it pays what one ``hyperharm``
command pays: cold caches and first-call tables included.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_hyperharm():
    sys.path.insert(0, str(ROOT / "src"))
    from hyperharm import (cli, functionals, geometry, harmonic, kernels,
                           specfun, verify)
    return types.SimpleNamespace(
        cli=cli, verify=verify, functionals=functionals, harmonic=harmonic,
        geometry=geometry, kernels=kernels, specfun=specfun)


def _environment(hh) -> dict:
    import mpmath
    import numpy
    import scipy
    thread_count = getattr(hh.functionals, "thread_count", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "hyperharm_threads_effective":
            thread_count() if callable(thread_count) else None,
    }


def _cache_info(hh):
    fl = getattr(hh.kernels, "_Fl_scalar", None)
    info = getattr(fl, "cache_info", None)
    return info() if callable(info) else None


def main(argv) -> int:
    workload, seed, out_dir, mode = argv
    start = time.perf_counter()
    hh = _import_hyperharm()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    prepare, run = WORKLOADS[workload]
    state = prepare(hh, int(seed), out_dir)
    doc = {"setup_s": time.perf_counter() - start}
    if mode != "setup":
        tracer = hooks = None
        if mode == "traced":
            import tracing
            tracer = tracing.Tracer()
            hooks = tracing.Hooks(hh, tracer)
            cache0 = _cache_info(hh)
        t0 = time.perf_counter()
        try:
            values = run(state)
        finally:
            wall = time.perf_counter() - t0
            if hooks is not None:
                hooks.close()
        doc.update(wall_s=wall, values=values)
        if tracer is not None:
            cache1 = _cache_info(hh)
            doc["trace"] = tracing.layer_values(tracer, hooks, cache0,
                                                cache1)
            doc["hooks_missing"] = hooks.missing
    doc["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["environment"] = _environment(hh)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
