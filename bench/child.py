"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

Times the import of `tpa_metrology.cli`, then calls `cli.main(argv)` for each
step in order with stdout and stderr captured, optionally under the tracer
("spans" records spans, "memory" spans with tracemalloc peaks).
RESULT.json receives the import time, each step's wall time, exit code,
captured output and CSV, the process's peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run(spec: dict) -> dict:
    start = time.perf_counter()
    import tpa_metrology.cli as cli

    import_s = time.perf_counter() - start
    tracer = None
    if spec["trace"] != "plain":
        from tracer import Tracer

        tracer = Tracer(spec["run_id"], memory=spec["trace"] == "memory")
        tracer.install()
    steps = []
    try:
        for step in spec["steps"]:
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(step["argv"]))
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                error = traceback.format_exc(limit=8)
            seconds = time.perf_counter() - t0
            csv = None
            if step["output"] and Path(step["output"]).is_file():
                csv = Path(step["output"]).read_text()
            steps.append({
                "rc": rc,
                "error": error,
                "seconds": seconds,
                "stdout": out.getvalue(),
                "stderr": err.getvalue()[-4000:],
                "csv": csv,
            })
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "module_file": cli.__file__,
        "import_s": import_s,
        "wall_s": sum(s["seconds"] for s in steps),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": steps,
        "spans": tracer.spans if tracer is not None else None,
        "absent": tracer.absent if tracer is not None else None,
    }


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    result = run(json.loads(Path(spec_path).read_text()))
    Path(result_path).write_text(json.dumps(result))
