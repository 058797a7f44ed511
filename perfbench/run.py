"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cold_fit --seed 1 --seconds 4 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``
with tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics, writes its spans to ``.perfbench/traces/`` and compares
them with the prediction table in ``perfbench/predictions.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable report, the
environment block and every check go to standard error.

The program is imported from ``src/`` of the checkout, never from an
installed copy: without ``src/repro`` the benchmark exits with code 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: Ambient settings that change what the program does (fault injection,
#: retry policy, benchmark scale knobs); cleared and recorded.
AMBIENT_PREFIXES = ("REPRO_",)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    """BLAS library and thread count as NumPy and the loaded library see them."""
    import ctypes

    import numpy as np

    info: dict = {"threads_env": {
        k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS") if k in os.environ
    }}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - informational only
        info["library"] = "unknown"
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            paths = {line.split()[-1] for line in f if "blas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                    return info
    except OSError:
        pass
    return info


def environment(cleared: dict[str, str]) -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "cleared_environment": cleared,
    }


def clear_ambient() -> dict[str, str]:
    cleared = {k: v for k, v in os.environ.items() if k.startswith(AMBIENT_PREFIXES)}
    for key in cleared:
        del os.environ[key]
    return cleared


def import_program() -> None:
    """Import ``repro`` from this checkout and check nothing ambient is set."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    from repro.artifacts import get_default_store
    from repro.faults.inject import active_injector
    from repro.nn.backend import DEFAULT_BACKEND, default_backend_name

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from this checkout")
    if get_default_store() is not None:
        raise SystemExit("an ambient artifact store is installed")
    if default_backend_name() != DEFAULT_BACKEND:
        raise SystemExit(f"ambient backend {default_backend_name()!r} is installed")
    if active_injector() is not None:
        raise SystemExit("a fault injector is active")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload_names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cleared = clear_ambient()
    import_program()
    sys.path.insert(0, str(HERE))
    import report
    from tracer import Instrumentation, Tracer
    from workloads import WORKLOADS, Context

    env = environment(cleared)
    log("environment: " + json.dumps(env, sort_keys=True))

    STATE.mkdir(exist_ok=True)
    (STATE / "tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "tmp"))
    tempfile.tempdir = str(tmp)
    ctx = Context(seed=args.seed, seconds=args.seconds, traced=bool(args.trace), tmp=tmp)
    instrumentation = None
    if ctx.traced:
        ctx.tracer = Tracer()
        instrumentation = ctx.instrumentation = Instrumentation(ctx.tracer)
        instrumentation.install()
    started = time.perf_counter()
    try:
        out = WORKLOADS[args.workload](ctx)
    finally:
        if instrumentation is not None:
            instrumentation.restore()
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
    log(f"{args.workload}: {out.attempted} attempted, {out.failed} failed, "
        f"{time.perf_counter() - started:.1f}s")
    for note in out.notes:
        log(f"note: {note}")
    for problem in out.problems:
        log(f"FAILED CHECK: {problem}")
    for name, (value, unit) in out.detail.items():
        log(f"  {name:<20} {value:>14.6g} {unit}")

    if ctx.traced:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        values = report.per_layer(out, ctx.tracer)
        predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
        for line in report.check_predictions(predictions, units, args.workload, values):
            log(line)
        traces = STATE / "traces"
        traces.mkdir(exist_ok=True)
        ctx.tracer.dump(traces / f"{args.workload}-seed{args.seed}.jsonl",
                        {"workload": args.workload, "seed": args.seed,
                         "environment": env, "metrics": values})
    else:
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        values = report.end_to_end(out, peak_rss_mb())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        log(f"{name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
