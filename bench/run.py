"""Benchmark of the tpa-metrology command-line tool.

Usage, from the root of a checkout:

    python3 bench/run.py --workload counting_scan --seed 0 --seconds 35 --trace 0

Each workload is a closed loop with one client: one child process at a time
imports `tpa_metrology.cli` from the checkout's `src/` and runs the
workload's CLI steps in order (see workloads.py).  A run repeats such passes
until `--seconds` is spent, checks every pass's outputs with the correctness
gate (gate.py) outside the timed region, and prints, as its last line, one
JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
metrics of `tracer.py` (`--trace 1`: untraced, span-traced and
memory-traced passes take turns, and the wall-time differences are the
tracing overheads).  Set-up is timed in extra import-only children as well.
Scratch files go under `.bench_build/` of the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "tpa-bench"
CHILD = BENCH_DIR / "child.py"

IMPORT_SAMPLES = 3
# Passes stop starting after this many seconds, which leaves room for the
# gate within the 180 s a run may take.
PASS_DEADLINE_S = 140.0
MODES = ("plain", "spans", "memory")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


class Runner:
    """Runs passes of one workload's steps in child processes."""

    def __init__(self, steps: list[workloads.Step], workdir: Path):
        self.steps = steps
        self.workdir = workdir
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        for step in steps:
            for name, text in step.files.items():
                (workdir / name).write_text(text)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(workdir / "tmp"))

    def run_pass(self, mode: str, run_id: str, timeout: float, steps=None) -> dict | None:
        """One child process running ``steps`` (default: all); None if it died.

        ``mode`` is one of `MODES`: untraced, span-traced or memory-traced.
        """
        steps = self.steps if steps is None else steps
        for step in steps:
            if step.output:
                (self.workdir / step.output).unlink(missing_ok=True)
        spec_path, result_path = self.workdir / "spec.json", self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        spec = {
            "steps": [{"argv": list(s.argv), "output": s.output} for s in steps],
            "trace": mode,
            "run_id": run_id,
        }
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path), str(result_path)],
                cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            print(f"pass {run_id} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.is_file():
            print(f"pass {run_id} died (exit {proc.returncode}): {proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        if not Path(result["module_file"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported {result['module_file']}, not the checkout's {SRC}")
        return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, seconds: float, trace: bool, run_id: str, t_start: float):
    """Cycle through the pass modes until ``seconds`` are spent; each runs at least once."""
    modes = MODES if trace else MODES[:1]
    passes: dict[str, list] = {m: [] for m in modes}
    took: dict[str, list[float]] = {m: [] for m in modes}
    begin = time.perf_counter()
    for i in itertools.count():
        mode = modes[i % len(modes)]
        now = time.perf_counter()
        if all(passes.values()) and now - begin + _median(took[mode]) > seconds:
            break
        budget = PASS_DEADLINE_S - (now - t_start)
        if budget <= 0:
            break
        passes[mode].append(runner.run_pass(mode, f"{run_id}-p{i}", budget))
        took[mode].append(time.perf_counter() - now)
    return passes


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def same_output(a: str | None, b: str | None, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
    """Equal text, except that numbers may differ by ``rtol`` relative plus ``atol``.

    The program is not bit-reproducible across processes: the same `fisher`
    call prints FIs 2e-14 apart (relative) from run to run, traced or not,
    and validate prints roundoff-sized errors.
    """
    if a is None or b is None:
        return a == b
    ta, tb = _NUMBER.split(a), _NUMBER.split(b)
    if len(ta) != len(tb):
        return False
    for k, (x, y) in enumerate(zip(ta, tb)):
        if x == y:
            continue
        if k % 2 == 0:  # text between numbers
            return False
        if abs(float(x) - float(y)) > rtol * max(abs(float(x)), abs(float(y))) + atol:
            return False
    return True


def grade(steps, results: list, gate) -> tuple[int, list[str]]:
    """Operations attempted and failure messages over all passes.

    Beyond the gate, every pass must reproduce the first pass's stdout and
    CSV, traced or not, up to `same_output`.
    """
    attempted, failures = 0, []
    first = next((r for r in results if r is not None), None)
    for result in results:
        for k, step in enumerate(steps):
            attempted += step.ops
            out = result["steps"][k] if result is not None else None
            found = gate.check_step(step, out)
            if not found and out is not None and first is not None:
                ref = first["steps"][k]
                if not (same_output(out["stdout"], ref["stdout"])
                        and same_output(out["csv"], ref["csv"])):
                    found = [f"{step.kind}: output differs from the first pass"] * step.ops
            failures += found[: step.ops]
    return attempted, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    steps = workloads.steps(workload, seed)
    workdir = WORK_ROOT / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run_id = f"{workload}-seed{seed}-{'traced' if trace else 'timed'}"
    try:
        runner = Runner(steps, workdir)
        runner.run_pass("plain", f"{run_id}-warmup", 60.0, steps=[])  # byte-compiles src/
        imports = []
        if not trace:
            for i in range(IMPORT_SAMPLES):
                sample = runner.run_pass("plain", f"{run_id}-import{i}", 60.0, steps=[])
                if sample is not None:
                    imports.append(sample["import_s"])
        passes = measure(runner, seconds, trace, run_id, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.path.insert(0, str(SRC))
    from gate import Gate

    results = [r for mode_results in passes.values() for r in mode_results]
    attempted, failures = grade(steps, results, Gate(seed))
    ok = {mode: [r for r in found if r is not None] for mode, found in passes.items()}
    wall = {mode: _median([r["wall_s"] for r in found]) for mode, found in ok.items()}
    if not trace:
        imports += [r["import_s"] for r in ok["plain"]]
        metrics = {
            "setup_s": _median(imports),
            "wall_s": wall["plain"],
            "peak_rss_mb": _median([r["maxrss_mb"] for r in ok["plain"]]),
            "pass_frac": (attempted - len(failures)) / attempted,
        }
        units = {name: END_TO_END[name] for name in metrics}
        absent = []
    else:
        units = {name: unit for name, (unit, _) in tracer.metric_units().items()}
        layer = {mode: [tracer.layer_metrics(r["spans"]) for r in ok[mode]] for mode in MODES[1:]}
        metrics = {}
        for name in units:
            # Peaks come from the memory-traced passes, everything else from
            # the span-traced ones, whose timings tracemalloc does not skew.
            found = layer["memory" if name.endswith(".peak_mb") else "spans"]
            metrics[name] = _median([m[name] for m in found if name in m])
        metrics["trace_overhead_s"] = wall["spans"] - wall["plain"]
        metrics["memory_trace_overhead_s"] = wall["memory"] - wall["plain"]
        traced = ok["spans"] + ok["memory"]
        absent = traced[0]["absent"] if traced else sorted(tracer.required_targets())
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        (WORK_ROOT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
            {"absent": absent, "spans": [s for r in traced for s in r["spans"]]}))
    return {
        "walls": {mode: [round(r["wall_s"], 3) for r in found] for mode, found in ok.items()},
        "absent": absent,
        "failures": failures,
        "correct": not failures and all(ok.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tpa_metrology" / "cli.py").is_file():
        print(f"no tpa_metrology sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed}, wall_s of each pass: {out['walls']}")
    for name, metric in out["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if out["absent"]:
        print(f"absent targets (reported as 0): {', '.join(out['absent'])}")
    for message in out["failures"][:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
