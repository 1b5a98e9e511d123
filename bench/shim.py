"""Run one oscym CLI call in a fresh interpreter and report its timing.

usage: python3 shim.py RECORD.json INVOCATION TRACE(0|1) [oscym arguments...]

With no oscym arguments the shim only imports `oscym.cli`: a set-up probe.
It writes {"import_s", "import_cpu_s", "work_s", "work_cpu_s",
"oscym_file"} (plus the trace with
TRACE=1) to RECORD.json and exits with the CLI's exit code.  oscym must be
imported from the `src` directory next to the benchmark's own.
"""
import json
import sys
import time
from pathlib import Path


def main() -> int:
    record_path, invocation, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    t0, c0 = time.perf_counter(), time.process_time()
    import oscym.cli
    t1, c1 = time.perf_counter(), time.process_time()
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(oscym.__file__).resolve().parent.parent != src:
        print(f"oscym imported from {oscym.__file__}, not from {src}", file=sys.stderr)
        return 125
    record = {"invocation": invocation, "import_s": t1 - t0, "import_cpu_s": c1 - c0,
              "work_s": 0.0, "work_cpu_s": 0.0, "oscym_file": oscym.__file__}
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    rc = 0
    try:
        if argv:
            t1, c1 = time.perf_counter(), time.process_time()
            rc = oscym.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        record["work_s"] = time.perf_counter() - t1
        record["work_cpu_s"] = time.process_time() - c1
        sys.stdout.flush()
        if tracer is not None:
            record.update(tracer.record())
        Path(record_path).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
