"""One workload in its own process.

The process imports the package first and prints "ready", so the parent
can time set-up from spawn to that line.  With --probe it stops there.
Otherwise it runs one untimed warm-up operation, then operations one
after another (a closed loop, one client) for about --seconds, checks
each output outside the timed call and writes a JSON result.

With --trace 1 each operation runs twice in a row, untraced and traced,
so the tracing overhead is measured on the same operations.
"""

import sys
import time


def _blas_info() -> dict:
    """OpenBLAS version string and thread count of the loaded library."""
    import ctypes

    import numpy
    info = {"blas": numpy.show_config(mode="dicts")["Build Dependencies"]
            ["blas"].get("version"), "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    return info
    return info


def main() -> int:
    # Nothing but the interpreter is loaded before this import, so the
    # parent's spawn-to-"ready" time is the package's set-up time.
    import clusterperm.cli
    print("ready", flush=True)

    import argparse
    import json
    import os
    import resource
    from pathlib import Path

    import numpy
    import scipy

    import tracing
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()

    package = Path(clusterperm.__file__).resolve()
    if not package.is_relative_to(Path(args.src).resolve()):
        print(f"clusterperm imported from {package}, not from {args.src}",
              file=sys.stderr)
        return 3
    if args.probe:
        return 0

    plan = json.loads(Path(args.plan).read_text())
    ops = plan["ops"]
    cell = (workloads.load_cell(ops[0]) if ops[0]["kind"] == "calibrate"
            else None)
    plain = workloads.Api()
    tracer = tracing.Tracer() if args.trace else None
    traced_api = workloads.Api(tracer.wrap) if tracer else None
    records = []

    def run(i: int, traced: bool) -> None:
        op = ops[i % len(ops)]
        if traced:
            tracer.op_id = len(records)
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                out = tracer.call("bench", op["kind"], workloads.execute,
                                  (traced_api, op, cell), {})
            else:
                out = workloads.execute(plain, op, cell)
        except Exception as exc:  # counted as a failed operation
            out = exc
        seconds = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        try:
            errors = workloads.verify(op, out)
        except Exception as exc:  # unreadable output is a failure too
            errors = [f"output check raised {exc!r}"]
        records.append({"op": op["key"], "round": i, "traced": traced,
                        "seconds": seconds, "errors": errors})

    run(0, False)  # warm-up
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 1
    while True:
        # Traced rounds alternate which copy runs first, so the order
        # does not bias the measured overhead.
        order = (False, True) if i % 2 else (True, False)
        for traced in order if tracer else (False,):
            run(i, traced)
        # Start another round only if one more, at the mean duration so
        # far, still ends by the deadline, so a run lasts about --seconds
        # whatever an operation costs.
        now = time.perf_counter()
        if now + (now - start) / i > deadline:
            break
        i += 1

    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "spans": tracer.spans if tracer else [],
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     **_blas_info()},
        "nproc": os.cpu_count(),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
