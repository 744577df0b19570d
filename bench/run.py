"""Benchmark for skewcat: time to a verdict, output size and memory.

Run from the root of a checkout:

    python3 bench/run.py --workload {laws,convert,session} --seed N \
        --seconds S --trace {0,1}

One run is one fresh process and one closed loop with a single client: the
workload's operation list runs start to end (a pass), again and again until
``--seconds`` have passed.  Each operation runs in-process through
``skewcat.cli.main(argv)`` or a public library function, its standard output
goes to a file through a byte-counting sink, and its exit code and verdict
are checked against hand-written answers.  Standard output carries one JSON
record per operation, ``metric`` lines, and as its last line the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are end to end, from untraced passes; with ``--trace 1`` they are per
layer, from traced passes that alternate with untraced ones, and the span log
is written to ``.bench_out/``.  Every time in the metrics is in seconds at a
nominal machine speed (see ``SpeedProbe``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_REPEATS times, and more (up to SETUP_MAX) until
# it has taken SETUP_MIN_S in all, so that a quick set-up's median rests on
# enough samples.
SETUP_REPEATS = 3
SETUP_MAX = 15
SETUP_MIN_S = 1.0

# Operation kind -> the end-to-end metric its time is summed into.
KIND_METRICS = {
    "check": "check_s", "analyze": "analyze_s",
    "convert_multicat": "convert_multicat_s", "convert_monoidal": "convert_monoidal_s",
    "roundtrip": "roundtrip_s", "search": "search_s", "colax_check": "colax_check_s",
}


class Sink(io.TextIOBase):
    """Standard output of one operation: counted, and written to a file (or
    dropped) instead of being kept in memory."""

    def __init__(self, path: str | None):
        self.bytes = 0
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def write(self, s: str) -> int:
        self.bytes += len(s) if s.isascii() else len(s.encode("utf-8"))
        if self._fh is not None:
            self._fh.write(s)
        return len(s)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
        super().close()


def run_cli(argv: list[str], stdout_path: str | None) -> tuple[int, int]:
    """``skewcat <argv>`` in-process; returns (exit code, stdout bytes)."""
    import skewcat.cli  # the current module: set-up re-imports the package
    sink = Sink(stdout_path)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(Sink(None)):
            try:
                code = skewcat.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sink.close()
    return code, sink.bytes


class SpeedProbe:
    """How fast this machine runs Python while the benchmark runs.

    On a shared host the speed of a core drifts by tens of percent over
    minutes, and two runs minutes apart differ by as much.  A helper thread
    times a fixed pure-Python loop every 50 ms, interleaved with the
    operations on the same core.  The times of each phase (set-up, then the
    passes) are multiplied by ``factor()`` over that phase's samples: the
    nominal loop time over the median measured one, which turns them into
    seconds at a fixed nominal speed.  The per-operation records keep the raw
    seconds.  The loop touches no skewcat code, so a change to the program
    cannot move the factor.  The samples hold the interpreter lock for about
    1% of the time.
    """

    INTERVAL_S = 0.05
    LOOPS = 10_000
    NOMINAL_S = 0.0006

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            start = time.perf_counter()
            acc = 0
            for k in range(self.LOOPS):
                acc += k * k
            self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, first: int = 0, end: int | None = None) -> float:
        """The factor over the samples ``first:end``, taken during one phase."""
        return self.NOMINAL_S / statistics.median(self.samples[first:end] or self.samples)


class Runner:
    def __init__(self, workloads, workload: str, ctx):
        self.ctx = ctx
        self.pass_fn = workloads.WORKLOADS[workload][1]
        self.known = workloads.KNOWN_DEFECTS
        self.Outcome = workloads.Outcome
        self.op_names: list[str] = []

    def run_op(self, op, tracer):
        path = op.save or self.ctx.path("stdout.json")
        if op.argv is not None:
            def work():
                return run_cli(op.argv, path)
        else:
            def work():
                return op.call(), 0
        op_id = len(self.op_names)
        self.op_names.append(op.name)
        gc.collect()
        start = time.perf_counter()
        try:
            result, nbytes = tracer.run_op(op_id, work) if tracer else work()
        except Exception as exc:  # a traceback: the CLI contract allows none
            return None, time.perf_counter() - start, 0, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if op.argv is not None:
            outcome = self.Outcome(result, stdout_path=path)
        else:
            outcome = self.Outcome(0, value={"violations": [v.to_dict() for v in result]})
        try:
            mismatch = op.expect(outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            mismatch = f"unreadable verdict: {exc!r}"
        return outcome, seconds, nbytes, mismatch

    def run_pass(self, number: int, tracer=None) -> dict:
        """One pass over the operation list; prints a record per operation."""
        gen = self.pass_fn(self.ctx)
        outcome = None
        records = []
        while True:
            try:
                op = gen.send(outcome)
            except StopIteration:
                break
            outcome, seconds, nbytes, mismatch = self.run_op(op, tracer)
            record = {"pass": number, "traced": tracer is not None, "op": op.name,
                      "kind": op.kind, "argv": op.argv if op.argv is not None else op.label,
                      "exit": outcome.exit if outcome else None, "seconds": seconds,
                      "stdout_bytes": nbytes, "mismatch": mismatch}
            print(json.dumps(record))
            records.append(record)
            if outcome is None:
                outcome = self.Outcome(-1, value={})
        gc.collect()
        return {"records": records,
                "wall_s": sum(r["seconds"] for r in records),
                "bytes": sum(r["stdout_bytes"] for r in records),
                "kinds": {kind: sum(r["seconds"] for r in records if r["kind"] == kind)
                          for kind in KIND_METRICS}}

    def problems(self, passes: list[dict]) -> list[str]:
        """Reasons the run is not correct: a crash, a mismatch that is not a
        known defect, or outputs that differ between passes."""
        out = []
        for p in passes:
            for r in p["records"]:
                if r["mismatch"] and (r["exit"] is None or r["op"] not in self.known):
                    out.append(f"{r['op']}: {r['mismatch']}")
        shapes = {tuple((r["op"], r["exit"], r["stdout_bytes"]) for r in p["records"])
                  for p in passes}
        if len(shapes) > 1:
            out.append("outputs differ between passes")
        return out


def measure(runner: Runner, seconds: float, trace: bool):
    """Passes until ``seconds`` have passed; with tracing, traced and untraced
    passes alternate and there is at least one of each."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            tracer.install()
            try:
                traced.append((runner.run_pass(len(plain) + len(traced), tracer), tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(runner.run_pass(len(plain) + len(traced)))
        if time.perf_counter() - start >= seconds and (not trace or len(traced) == len(plain)):
            return plain, traced


def write_trace(workload: str, seed: int, runner: Runner, traced) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                   "ops": runner.op_names,
                   "passes": [tracer.spans for _, tracer in traced]}, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("laws", "convert", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewcat" / "__init__.py").is_file():
        print(f"no skewcat sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    with SpeedProbe() as probe:
        try:
            setups = []
            while len(setups) < SETUP_REPEATS or (
                    sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX):
                gc.collect()
                start = time.perf_counter()
                workloads = _fresh_import()
                ctx = workloads.Context(str(work), args.seed)
                workloads.WORKLOADS[args.workload][0](ctx)
                setups.append(time.perf_counter() - start)
                origin = Path(sys.modules["skewcat"].__file__).resolve()
                if not origin.is_relative_to(ROOT / "src"):
                    print(f"imported skewcat from {origin}, not from this checkout",
                          file=sys.stderr)
                    return 2
            runner = Runner(workloads, args.workload, ctx)
            measured_from = len(probe.samples)
            plain, traced = measure(runner, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    setup_speed = probe.factor(0, measured_from)
    speed = probe.factor(measured_from)

    passes = plain + [p for p, _ in traced]
    problems = runner.problems(passes)
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(1 for p in passes for r in p["records"] if r["mismatch"])
    wall_s = statistics.median(p["wall_s"] for p in plain)

    if args.trace:
        layers = [tracer.summary() for _, tracer in traced]
        metrics = {name: {"value": statistics.median(s[name] for s in layers)
                          * (speed if name.endswith("self_s") else 1),
                          "unit": _layer_unit(name)} for name in layers[0]}
        exact = [name for name in layers[0] if not name.endswith("self_s")]
        if any(s[name] != layers[0][name] for s in layers for name in exact):
            problems.append("counts differ between traced passes")
        balance = max(tracer.op_balance() for _, tracer in traced)
        if balance > 1e-6:
            problems.append(f"self times miss an operation's duration by {balance:.3g} s")
        metrics["trace.overhead"] = {
            "value": statistics.median(p["wall_s"] for p, _ in traced) / wall_s,
            "unit": "ratio"}
        print(f"spans written to {write_trace(args.workload, args.seed, runner, traced)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups) * setup_speed, "unit": "s"},
            "wall_s": {"value": wall_s * speed, "unit": "s"},
            "output_mb": {"value": plain[0]["bytes"] / 1e6, "unit": "MB"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
        }
        for kind, name in KIND_METRICS.items():
            value = statistics.median(p["kinds"][kind] for p in plain) * speed
            if value >= 1.0:
                print(f"metric {name} {value:.6f} s")
        for name, m in metrics.items():
            print(f"metric {name} {m['value']:.6f} {m['unit']}")
    print(f"metric speed_factor {speed:.6f} ratio (set-up {setup_speed:.6f}; "
          f"{len(probe.samples)} samples)")
    print(f"metric error_rate {failed / attempted:.6f} ratio ({failed} of {attempted} "
          f"operations over {len(passes)} passes)")
    for problem in problems:
        print(f"INCORRECT {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _fresh_import():
    """Imports skewcat and the benchmark's workloads anew, so that each
    set-up repetition pays for the import as a new process would."""
    for name in list(sys.modules):
        if name in ("workloads", "corpus") or name.split(".")[0] == "skewcat":
            del sys.modules[name]
    importlib.import_module("skewcat.cli")
    return importlib.import_module("workloads")


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("yield_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
