"""One versemood CLI invocation in a fresh interpreter.

    python3 child.py RESULT_JSON SRC_DIR [--trace TRACE_JSON] [--import-only] -- ARGS...

Imports ``versemood.cli`` from SRC_DIR, runs ``main(ARGS)`` and writes
RESULT_JSON with the clock reading right after the import, the wall time
of ``main``, its return code and the peak RSS of this process.  The
parent reads the clock just before starting this process, so the two
readings bracket interpreter start-up plus the package import.  Both use
``time.perf_counter``, which on Linux reads the system-wide monotonic
clock.  A fresh interpreter per run keeps the package's process-wide
caches cold, as they are for a CLI user.
"""

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak RSS of this process image, in KiB.

    ``VmHWM`` is reset by exec.  ``ru_maxrss`` is not: after fork and exec
    it can report the parent's peak instead of this program's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    result_path, src = own[0], own[1]
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None

    sys.path.insert(0, src)
    from versemood import cli

    result = {"imported_at": time.perf_counter(), "rc": None, "run_s": 0.0}
    if "--import-only" in own:
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0

    tracer = None
    if trace_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        result["rc"] = cli.main(cli_args)
    finally:
        result["run_s"] = time.perf_counter() - start
        result["maxrss_kb"] = peak_rss_kb()
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        if tracer is not None:
            tracer.write(Path(trace_path))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
