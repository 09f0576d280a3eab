"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public name with a wrapper that
records a span (name, start, end, parent span, operation id) in memory; the
spans are written out when the run ends and reduced to per-operation
averages by ``layer_metrics``.  A name that the program no longer has is
listed as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

# Traced names, relative to the biphoton package, with the statistics kept.
# "validations" counts calls of DensityMatrix4.__post_init__; "iterations"
# sums the iteration count the call reports.
TRACED = {
    "angmom.path_coupling_x": ("calls", "total_ms"),
    "polstate.beat_params": ("calls",),
    "polstate.density_change_basis": ("calls",),
    "polstate.DensityMatrix4.__post_init__": ("validations",),
    "entanglement.purity": ("calls", "total_ms"),
    "entanglement.concurrence": ("calls", "total_ms"),
    "entanglement.entanglement_of_formation": ("calls", "total_ms"),
    "entanglement.fidelity": ("calls", "total_ms"),
    "tomography.reconstruct_mle": ("calls", "total_ms", "self_ms", "iterations"),
    "tomography.resample_uncertainties": ("total_ms", "self_ms"),
    "tomography.log_likelihood": ("calls", "total_ms"),
    "tomography.expected_probability": ("calls", "total_ms"),
    "tomography.simulate_counts": ("total_ms",),
    "tomography.reconstruct_linear": ("total_ms",),
    "tomography.read_counts_csv": ("total_ms",),
    "tomography.write_counts_csv": ("total_ms",),
    "timecorr.fit_single": ("calls", "total_ms", "self_ms"),
    "timecorr.fit_beats": ("calls", "total_ms", "self_ms"),
    "timecorr.g2_single": ("calls", "total_ms"),
    "timecorr.g2_beats": ("calls", "total_ms"),
    "timecorr.estimate_single_init": ("total_ms",),
    "timecorr.simulate_histogram": ("total_ms",),
    "timecorr.read_histogram_csv": ("total_ms",),
    "timecorr.write_histogram_csv": ("total_ms",),
}
CLI_SUBCOMMANDS = ("predict", "simulate-tomo", "reconstruct", "simulate-g2", "fit-g2", "beat-params")
_UNITS = {"calls": "count", "validations": "count", "iterations": "count", "total_ms": "ms", "self_ms": "ms"}


def _metric_name(traced: str, stat: str) -> str:
    if stat == "validations":
        traced = traced.rsplit(".", 1)[0]
    return f"{traced}.{stat}"


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [("import.biphoton_ms", "ms", "lower"), ("import.scipy_ms", "ms", "lower")]
    specs += [(f"cli.{sub}.ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    specs.append(("cli.startup_ms", "ms", "lower"))
    specs += [(_metric_name(t, s), _UNITS[s], "lower") for t, stats in TRACED.items() for s in stats]
    specs.append(("trace.overhead_pct", "%", "lower"))
    return specs


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index, operation id, reported value]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """A span recorded by the benchmark itself; `op` starts a new operation."""
        if op is not None:
            self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        keep_value = "iterations" in TRACED[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if keep_value:
                tracer.spans[idx][5] = getattr(result, "iterations", None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name wherever a biphoton module holds a reference to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "biphoton" or n.startswith("biphoton.")]
        for traced in TRACED:
            module_name, attr = traced.split(".", 1)
            owner = sys.modules.get(f"biphoton.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(traced)
                continue
            wrapper = self._wrap(traced, original)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op,value\n")
            for name, start, end, parent, op, value in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op},{'' if value is None else value}\n")


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-operation averages of calls, total and self time, and reported values."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    sums: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _, _, value) in enumerate(spans):
        acc = sums.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "iterations": 0})
        acc["calls"] += 1
        acc["total_ms"] += (end - start) / 1e6
        acc["self_ms"] += (end - start - child_ns[idx]) / 1e6
        acc["iterations"] += value or 0
    out = {}
    for traced, stats in TRACED.items():
        acc = sums.get(traced, {})
        for stat in stats:
            out[_metric_name(traced, stat)] = acc.get("calls" if stat == "validations" else stat, 0) / n_ops
    return out


def import_times(python: str, env: dict, repeats: int = 3) -> dict[str, float]:
    """import.biphoton_ms and import.scipy_ms from `python -X importtime`, medians of fresh children."""
    biphoton, scipy = [], []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import biphoton"], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120, check=True)
        total, scipy_self = 0.0, 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            name = module.strip()
            if name == "biphoton":
                total = int(cumulative_us) / 1e3
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += int(self_us) / 1e3
        biphoton.append(total)
        scipy.append(scipy_self)
    return {"import.biphoton_ms": statistics.median(biphoton), "import.scipy_ms": statistics.median(scipy)}
