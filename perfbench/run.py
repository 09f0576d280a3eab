"""Run one benchmark workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread here and in every child: the loop is single-client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("tomo_bootstrap", "g2_fits", "cli_cold")
# Whole cycles run until both bounds are met, so that every run has the same
# input mix and op_tail_ms has at least ten operations beyond it.
MIN_OPS = 40
# Set-up runs `import biphoton` in this many fresh interpreters and takes the
# median, because one interpreter start alone moves too much (README).
START_SAMPLES = 5
# A loop whose operations keep failing stops here, so that the run still
# ends within three minutes and reports them.
MAX_LOOP_S = 120.0

# ---------------------------------------------------------------------------
# Machine-speed reference


def _kernel_matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(20150520)
    mats = []
    for _ in range(48):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mats.append(a @ a.conj().T)
    return mats


_KERNEL_MATS = _kernel_matrices()
_KERNEL_T = np.linspace(0.0, 5.0, 1200)
# Median time of reference_kernel() on the machine the reference figures in
# the README were taken on.  Every timed interval is scaled by this over the
# kernel time measured next to it, because the host's speed drifts by up to
# a factor of two within seconds (README, "Why the timings are corrected").
KERNEL_NOMINAL_S = 0.0030
# Op time between two kernel samples; an operation longer than this gets a
# sample on each side of it.
WINDOW_S = 0.1


def reference_kernel() -> float:
    """Fixed numpy and plain-Python work in the program's own mix.

    Small-matrix LAPACK calls, elementwise functions over histogram-sized
    arrays, and interpreted loops and dicts.
    """
    acc = 0.0
    for i, m in enumerate(_KERNEL_MATS):
        w, v = np.linalg.eigh(m)
        acc += float(np.trace((v * w) @ v.conj().T).real)
        acc += float(np.exp(-_KERNEL_T * (1.0 + 0.01 * i)).sum() + np.cos(_KERNEL_T * i).sum())
        acc += sum(math.cos(0.01 * k) for k in range(40))
        acc += len({k: k * 0.5 for k in range(20)})
    return acc


class Clock:
    """The lesser of process CPU time and wall time since start.

    For single-threaded work the CPU clock leaves out the moments the host
    takes the CPU away; the wall clock caps it when work runs on more than
    one thread.
    """

    def __init__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()

    def elapsed(self) -> float:
        return min(time.perf_counter() - self.wall, time.process_time() - self.cpu)


def time_kernel() -> float:
    """Time of the second of two back-to-back runs: the first refills the caches."""
    reference_kernel()
    clock = Clock()
    reference_kernel()
    return clock.elapsed()


# ---------------------------------------------------------------------------
# Closed loop


class Loop:
    """Attempted, failed and timed operations of one workload, with kernel samples around them."""

    def __init__(self):
        # (operation s, index of the kernel sample before the operation)
        self.ops: list[tuple[float, int]] = []
        self.kernel: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.errors: Counter = Counter()
        self.check_failures: list[str] = []

    def latencies(self, corrected: bool) -> list[float]:
        """Operation times, scaled by the kernel samples around them if `corrected`."""
        k = self.kernel
        return [t * (KERNEL_NOMINAL_S / (0.5 * (k[i] + k[i + 1])) if corrected else 1.0) for t, i in self.ops]


def run_cycles(wl, loop: Loop, seconds: float = 0.0, min_ops: int = 0, max_cycles: int = 0,
               tracer=None) -> Loop:
    """Run whole cycles until `seconds` have passed and `min_ops` succeeded, or `max_cycles`.

    In-process operations are timed by Clock, those that run in a child
    process by the wall clock.
    """
    from oracle import CheckFailed

    start = time.perf_counter()
    loop.kernel.append(time_kernel())
    window = 0.0
    while True:
        for inp in wl.cycle():
            loop.attempted += 1
            span = nullcontext() if tracer is None else tracer.span("op", op=loop.attempted)
            t0, clock = time.perf_counter(), Clock()
            try:
                with span:
                    out = wl.run(inp)
            except Exception as exc:  # the program refused this input: a failed operation
                loop.failed += 1
                loop.errors[f"{type(exc).__name__}: {str(exc)[:80]}"] += 1
                continue
            took = clock.elapsed() if wl.in_process else time.perf_counter() - t0
            try:
                wl.check(inp, out)
                if tracer is not None and hasattr(wl, "run_in_process"):
                    wl.run_in_process(inp, tracer)
            except CheckFailed as exc:
                loop.failed += 1
                loop.check_failures.append(str(exc))
                continue
            loop.ops.append((took, len(loop.kernel) - 1))
            window += took
            if window >= WINDOW_S:
                loop.kernel.append(time_kernel())
                window = 0.0
        loop.cycles += 1
        if max_cycles and loop.cycles >= max_cycles:
            break
        elapsed = time.perf_counter() - start
        if not max_cycles and elapsed >= seconds and (len(loop.ops) >= min_ops or elapsed >= MAX_LOOP_S):
            break
    loop.kernel.append(time_kernel())
    return loop


# ---------------------------------------------------------------------------
# Set-up


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BIPHOTON_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def interpreter_start_s(env: dict, samples: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters, one at a time, from spawn to the end of `import biphoton`: raw and corrected."""
    code = "import time, biphoton; print(time.perf_counter_ns())"
    raw, corrected = [], []
    before = time_kernel()
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=120, check=True)
        after = time_kernel()
        raw.append((int(proc.stdout) - t0) / 1e9)
        corrected.append(raw[-1] * KERNEL_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return raw, corrected


def make_workload(name: str, bp, seed: int, env: dict, workdir: Path):
    import workloads

    if name == "tomo_bootstrap":
        return workloads.TomoBootstrap(bp, seed)
    if name == "g2_fits":
        return workloads.G2Fits(bp, seed)
    return workloads.CliCold(bp, seed, workdir, env)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------
# Report


def timing_metrics(latencies: list[float]) -> dict[str, float]:
    lat = sorted(latencies)
    n = len(lat)
    if n == 0:  # every operation failed
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_tail_ms": 0.0}
    return {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        # the highest percentile with at least ten operations beyond it
        "op_tail_ms": 1e3 * lat[max(n - 11, 0)],
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import biphoton as bp

    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"cli-{os.getpid()}"
    try:
        return measure(args, bp, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, bp, env: dict, workdir: Path) -> int:
    name = args.workload
    print(f"workload {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"src lines: {src_lines()} (reference figure, not a metric)")

    start_raw, start_corrected = interpreter_start_s(env, START_SAMPLES)
    k0 = time_kernel()
    t0 = time.perf_counter()
    wl = make_workload(name, bp, args.seed, env, workdir)
    warm = run_cycles(wl, Loop(), max_cycles=1)
    rest_s = time.perf_counter() - t0
    rest_factor = KERNEL_NOMINAL_S / statistics.fmean([k0] + warm.kernel)
    setup = {"raw": statistics.median(start_raw) + rest_s,
             "corrected": statistics.median(start_corrected) + rest_s * rest_factor}
    print(f"set-up: interpreter+import median {statistics.median(start_raw):.3f} s of "
          f"{[round(x, 3) for x in start_raw]}; inputs and one warm-up cycle of {warm.attempted} "
          f"operations {rest_s:.3f} s")

    if args.trace:
        return traced_run(args, env, wl, warm)

    loop = run_cycles(wl, Loop(), seconds=args.seconds, min_ops=MIN_OPS)
    results = {}
    for kind in ("raw", "corrected"):
        results[kind] = timing_metrics(loop.latencies(kind == "corrected"))
        results[kind]["setup_s"] = setup[kind]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF)
    n = len(loop.ops)
    print(f"operations: {loop.attempted} attempted, {loop.failed} failed, {n} timed over {loop.cycles} cycles "
          f"(tail percentile {100.0 * max(n - 10, 0) / max(n, 1):.2f}); in the warm-up cycle "
          f"{warm.attempted} attempted, {warm.failed} failed")
    report_failures(warm, loop)
    kernel = loop.kernel
    print(f"reference kernel: {len(kernel)} samples, median {1e3 * statistics.median(kernel):.3f} ms, "
          f"range {1e3 * min(kernel):.3f}-{1e3 * max(kernel):.3f} ms, nominal {1e3 * KERNEL_NOMINAL_S:.3f} ms")
    for kind, values in results.items():
        print(f"{kind + ':':11s}" + "  ".join(f"{k} {v:.6g}" for k, v in values.items()))
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {k: (results["corrected"][k], u) for k, u in units.items()}
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, "MB")
    emit(not (warm.check_failures or loop.check_failures), warm.attempted + loop.attempted,
         warm.failed + loop.failed, metrics)
    return 0


def report_failures(*loops: Loop) -> None:
    errors = sum((lp.errors for lp in loops), Counter())
    for error, count in sorted(errors.items()):
        print(f"  failed {count}x: {error}")
    for failure in [f for lp in loops for f in lp.check_failures][:10]:
        print(f"  check failed: {failure}")


def traced_run(args, env: dict, wl, warm: Loop) -> int:
    """Half the time untraced, half traced; per-layer metrics are averages per traced operation."""
    import tracing

    half = args.seconds / 2.0
    plain = run_cycles(wl, Loop(), seconds=half)
    tracer = tracing.Tracer()
    tracer.install()
    traced = run_cycles(wl, Loop(), seconds=half, tracer=tracer)
    spans_file = OUT / f"spans-{args.workload}.csv"
    tracer.write(spans_file)

    plain_rate = timing_metrics(plain.latencies(True))["ops_per_s"]
    traced_rate = timing_metrics(traced.latencies(True))["ops_per_s"]
    values = tracing.import_times(sys.executable, env)
    values.update(cli_metrics(tracer.spans))
    values.update(tracing.layer_metrics(tracer.spans, traced.attempted))
    values["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    print(f"untraced: {plain.attempted} operations, corrected ops_per_s {plain_rate:.5g}; traced: "
          f"{traced.attempted} operations over {traced.cycles} cycles, corrected ops_per_s {traced_rate:.5g}; "
          f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    if tracer.absent:
        print("absent names (their metrics read 0): " + ", ".join(tracer.absent))
    report_failures(warm, plain, traced)
    metrics = {name: (values[name], unit) for name, unit, _ in tracing.per_layer_specs()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:14.6g} {unit}")
    loops = (warm, plain, traced)
    emit(not any(lp.check_failures for lp in loops), sum(lp.attempted for lp in loops),
         sum(lp.failed for lp in loops), metrics)
    return 0


def cli_metrics(spans: list[list]) -> dict[str, float]:
    """cli.<subcommand>.ms per invocation, and cli.startup_ms: child wall time minus in-process time."""
    import tracing

    per_sub: dict[str, list[float]] = {sub: [] for sub in tracing.CLI_SUBCOMMANDS}
    op_ns: dict[int, int] = {}
    cli_ns: dict[int, int] = {}
    for name, start, end, _, op, _ in spans:
        if name == "op":
            op_ns[op] = end - start
        elif name.startswith("cli.") and name[4:] in per_sub:
            per_sub[name[4:]].append((end - start) / 1e6)
            cli_ns[op] = end - start
    out = {f"cli.{sub}.ms": (statistics.fmean(v) if v else 0.0) for sub, v in per_sub.items()}
    startup = [(op_ns[op] - ns) / 1e6 for op, ns in cli_ns.items()]
    out["cli.startup_ms"] = statistics.fmean(startup) if startup else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
