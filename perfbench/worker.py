"""One pass of a workload in a fresh interpreter, so every cache starts cold.

Usage: worker.py ROOT PLAN RESULT [--trace] [--setup-only]

Times ``import prwtest.cli`` (the set-up), refuses to go on unless the
package resolves to ROOT/src/prwtest, then runs the plan's operations one at
a time and writes latencies, captured outputs and peak RSS to RESULT (JSON).
Only ``sys``, ``os`` and ``time`` are imported before the timed import.

Before the import and between operations, untimed, the worker times a fixed
pure-Python computation (``speed_probe``).  Its duration tracks how fast the
shared host runs this process at that moment; ``run.py`` scales the timings
by it.
"""

import os
import sys
import time

PROBES_PER_GAP = 3
SETUP_PROBES = 5


def speed_probe() -> float:
    """Seconds taken by a fixed computation in the interpreter and in big ints.

    It allocates no container, so it never triggers the cyclic garbage
    collector and does not depend on how many objects the program keeps.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    big = 7 ** 3000
    for _ in range(40):
        acc += (big * big) % 1_000_003
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    root, plan_path, result_path = argv[:3]
    trace = "--trace" in argv[3:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    setup_probes = [speed_probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    import prwtest.cli

    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import resource
    from pathlib import Path

    package = Path(prwtest.__file__).resolve().parent
    if package != (Path(src) / "prwtest").resolve():
        print(f"error: prwtest resolves to {package}, not {src}/prwtest", file=sys.stderr)
        return 4
    result = {"setup_s": setup_s, "setup_probe_s": setup_probes, "package": str(package)}
    if "--setup-only" in argv[3:]:
        Path(result_path).write_text(json.dumps(result))
        return 0

    import workloads  # from this script's directory, first on sys.path after src

    plan = json.loads(Path(plan_path).read_text())
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    ops = []
    probes = []  # probes[i]: taken just before op i; the last, after every op
    for index, op in enumerate(plan["ops"]):
        if op["group"] == "fwer" and index and plan["ops"][index - 1]["group"] != "fwer":
            # Harness step, untimed: the fwer input is this pass's own p-values.
            hyp = [o["stdout"] for o, p in zip(ops, plan["ops"]) if p["group"] == "hypothesis"]
            Path(plan["pvalue_file"]).write_text(workloads.prw_pvalues_csv(hyp))
        probes.append([speed_probe() for _ in range(PROBES_PER_GAP)])
        if tracer is not None:
            tracer.op = index
        buf = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if op["kind"] == "cli":
                    code = prwtest.cli.main(op["argv"])
                else:
                    ctx = prwtest.GBoundContext.from_mean(op["n"], op["mean"])
                    print(repr(prwtest.g_inverse(op["delta"], ctx)))
                    code = 0
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        ops.append({"latency_s": latency, "code": code, "error": error, "stdout": buf.getvalue()})

    probes.append([speed_probe() for _ in range(PROBES_PER_GAP)])
    result["peak_rss_mb"] = _peak_rss_mb(resource)
    result["ops"] = ops
    result["probe_s"] = probes
    if tracer is not None:
        reps = sum(op["units"] for op in plan["ops"] if op["group"] == "validate")
        result["layers"] = tracer.summary(plan["workload"], reps)
        tracer.save(Path(result_path).with_name("spans.npz"))
    Path(result_path).write_text(json.dumps(result))
    return 0


def _peak_rss_mb(resource) -> float:
    """High-water resident set of this process image, in MiB.

    ``ru_maxrss`` survives ``execve``: it still holds the peak of the image
    that the exec replaced, which under ``vfork`` is the parent harness.
    ``VmHWM`` belongs to the current image only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
