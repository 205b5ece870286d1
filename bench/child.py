"""One measured step of the benchmark, run in a fresh interpreter.

    python3 bench/child.py import RESULT
        import hippp; write the CLOCK_MONOTONIC reading taken right after the
        import, plus the package path and library versions, to RESULT.
    python3 bench/child.py serve
        import hippp.cli, then for each JSON request read from standard input
        ({"argv", "result", "spans", "marks", "log"}) fork a copy of this
        untouched interpreter that calls hippp.cli.main(argv) and writes its
        exit code, wall time, CPU time and peak resident memory to "result".
        When "spans" is not "-", the copy traces the call and writes the spans
        there; otherwise, when "marks" is not "-", it writes the clock marks of
        spans.Marks there. The copy's standard output and error go to "log".
        After each call one JSON line {"status": exit status of the copy} is
        written to standard output.

run.py starts this script with PYTHONPATH set to the checkout's ``src``. A
forked copy starts from the state right after ``import hippp.cli``, as a fresh
interpreter would, without paying for interpreter start-up and imports on
every call.
"""

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _import_step(result_path: str) -> None:
    import hippp

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    sys.stderr.write("hippp imported\n")  # ends the -X importtime lines that run.py counts
    sys.stderr.flush()
    import numpy
    import scipy

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "imported": imported,
            "hippp_file": hippp.__file__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }, handle)


def _run_step(result_path: str, spans_path: str, marks_path: str, argv: list[str]) -> None:
    import hippp.cli
    from spans import Marks, Tracer

    tracer = None
    if spans_path != "-":
        tracer = Tracer()
    elif marks_path != "-":
        tracer = Marks()
    if tracer is not None:
        tracer.install()

    main = hippp.cli.main
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = main(argv)
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    sys.stdout.flush()
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if tracer is not None:
        tracer.dump(spans_path if spans_path != "-" else marks_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"exit": code, "run_s": run_s, "cpu_s": cpu_s, "peak_kib": peak_kib}, handle)


def _forked_call(request: dict) -> None:
    """Body of the forked copy; never returns."""
    code = 1
    try:
        log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        _run_step(request["result"], request["spans"], request["marks"], request["argv"])
        code = 0
    except BaseException:  # noqa: BLE001 - report whatever ended the call
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _serve() -> None:
    import hippp.cli  # noqa: F401 - the state every forked call starts from
    import spans  # noqa: F401 - keeps the tracer's import out of traced calls

    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            _forked_call(request)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["serve"]:
        _serve()
    elif sys.argv[1] == "import":
        _import_step(sys.argv[2])
    else:
        sys.exit(f"usage: {sys.argv[0]} import RESULT | serve")
