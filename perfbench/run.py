"""rwsurf benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Workloads are ``certify``, ``cli-export`` and ``warp-sweep`` (README.md says
why each exists).  Everything runs in this process on one thread; BLAS
threads are pinned to 1.  The inputs, one round of items, come from
``--seed``; the timed phase repeats the round a whole number of times, about
``--seconds`` of work at the commit that defined the benchmark.  Every
item's output is checked.

Lines before the last one on stdout are for people.  The last line is one
JSON object: with ``--trace 0`` its metrics are the end-to-end metrics of an
untraced run, with times in reference units (see ``SpeedProbe``); with
``--trace 1`` they are the per-layer metrics of one traced round, preceded
by an untraced round (for the tracing overhead) and followed by a second
traced round whose counts must repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SAMPLE_INTERVAL_S = 0.02
# The reference kernel's duration on the 2-CPU container the benchmark was
# defined on; it only fixes the scale of the set-up time.
KERNEL_NOMINAL_S = 3e-4


def load_program():
    """Import rwsurf from this checkout's ``src`` with BLAS on one thread;
    exit with an error when the sources are not there."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rwsurf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rwsurf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rwsurf
    if Path(rwsurf.__file__).resolve().parent != SRC / "rwsurf":
        sys.exit(f"perfbench: imported rwsurf from {rwsurf.__file__}, "
                 f"not from {SRC}")
    return rwsurf


@contextlib.contextmanager
def scratch_dir():
    """A directory under perfbench/out for the files items write."""
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup(workload_cls, reference, outdir, seed):
    """Import the program in a fresh interpreter and generate the inputs,
    SETUP_REPEATS times.  Returns the median time scaled to the nominal
    machine speed (see ``nominal_seconds``), the raw median, the workload
    and one round of items."""
    import numpy as np

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel += kernel_durations()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rwsurf.cli"], env=env,
                       check=True)
        workload = workload_cls(reference, outdir)
        items = workload.make_round(np.random.default_rng(seed))
        times.append(time.perf_counter() - t0)
        kernel += kernel_durations()
    raw = statistics.median(times)
    return nominal_seconds(raw, typical(kernel)), raw, workload, items


def _reference_kernel(vec, gram):
    """Fixed work in the program's style: interpreter arithmetic around
    small numpy products."""
    acc = 0.0
    for i in range(100):
        acc += float(vec @ gram @ vec) + i * 0.5
    return acc


def _kernel_args():
    import numpy as np

    return np.arange(5.0), np.diag(np.arange(1.0, 6.0))


def kernel_durations(n: int = 15) -> list[float]:
    """Durations of ``n`` back-to-back runs of the reference kernel."""
    args = _kernel_args()
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _reference_kernel(*args)
        out.append(time.perf_counter() - t0)
    return out


def typical(durations) -> float:
    """Mean kernel duration without the samples a preemption landed in
    (over 5x the median).  Moderate slowdowns stay in the mean: they slow
    the program in proportion to how long they last."""
    cap = 5.0 * statistics.median(durations)
    return statistics.fmean(d for d in durations if d <= cap)


def nominal_seconds(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the reference kernel took ``kernel_s``,
    scaled to the machine speed at which it takes KERNEL_NOMINAL_S."""
    return seconds * KERNEL_NOMINAL_S / kernel_s


class SpeedProbe:
    """Samples the machine's speed while items run.

    Every SAMPLE_INTERVAL_S a SIGALRM handler times ``_reference_kernel``.
    On a shared machine, other tenants slow this process by tens of percent
    for seconds to minutes at a time; the kernel slows with it, so an item's
    time divided by the ``typical`` kernel duration over the same interval
    (its time in *reference units*) stays steady where the raw time does
    not.
    """

    def __init__(self):
        self._args = _kernel_args()
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _reference_kernel(*self._args)
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def typical(self, t0=-math.inf, t1=math.inf) -> float:
        """``typical`` kernel duration of the samples taken between t0 and
        t1, or of all samples when none fell in that interval."""
        inside = [d for e, d in zip(self.ends, self.durations) if t0 <= e <= t1]
        return typical(inside or self.durations)


@dataclass
class Pass:
    """Item times and outcomes of one or more passes over a round of items."""

    items: list
    times: list = field(default_factory=list)     # per item, one per repeat
    spans: list = field(default_factory=list)     # (start, end) per run
    outcomes: list = field(default_factory=list)  # (item, Outcome) per run

    @property
    def wall(self) -> float:
        return sum(map(sum, self.times))

    def kind_times(self) -> dict:
        out = defaultdict(list)
        for item, times in zip(self.items, self.times):
            out[item.kind] += times
        return out

    @property
    def failed(self) -> list:
        return [(item, o) for item, o in self.outcomes if not o.ok]

    def digest(self) -> str:
        parts = sorted(hashlib.sha256(o.digest).digest() for _, o in self.outcomes)
        return hashlib.sha256(b"".join(parts)).hexdigest()


def run_pass(workload, items, repeats=1, tr=None) -> Pass:
    from workloads import Outcome

    result = Pass(items, [[] for _ in items])
    for _ in range(repeats):
        for item, times in zip(items, result.times):
            span = tr.span("item." + item.kind) if tr else contextlib.nullcontext()
            t0 = time.perf_counter()
            elapsed = None
            try:
                with span:
                    output = workload.run(item)
                elapsed = time.perf_counter() - t0
                outcome = workload.check(item, output)
            except Exception as exc:  # a failing item is counted; the run goes on
                if elapsed is None:
                    elapsed = time.perf_counter() - t0
                outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
            times.append(elapsed)
            result.spans.append((t0, t0 + elapsed))
            result.outcomes.append((item, outcome))
    return result


def report_failures(p: Pass) -> bool:
    """Print each failed item; True when every failure is a known defect."""
    from workloads import KNOWN_DEFECTS

    expected = True
    for item, outcome in p.failed:
        known = KNOWN_DEFECTS.get(item.kind)
        note = f" (known defect: {known})" if known else ""
        print(f"FAILED {item.kind}: {outcome.detail}{note}")
        expected = expected and known is not None
    return expected


def untraced(workload, items, repeats, setup_s, setup_raw):
    with SpeedProbe() as probe:
        p = run_pass(workload, items, repeats)
    n = len(p.outcomes)
    # item times in reference units, in run order
    ref_times = [(t1 - t0) / probe.typical(t0, t1) for t0, t1 in p.spans]
    ref_by_kind = defaultdict(list)
    for (item, _), t in zip(p.outcomes, ref_times):
        ref_by_kind[item.kind].append(t)
    by_kind = p.kind_times()
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    for kind in workload.kinds:
        print(f"{workload.label}.{kind}: {medians[kind]:.4f} s "
              f"(median of {len(by_kind[kind])})")
    nodes = sum(o.nodes for _, o in p.outcomes)
    if nodes:
        print(f"nodes_per_s: {nodes / p.wall:.2f}")
    if workload.name == "cli-export":
        solve_scan = sum(medians[k] for k in ("solve_f4", "solve_sys5",
                                              "scan_h4", "scan_slice"))
        print(f"cli_s.solve_scan: {solve_scan:.4f} s")
    if workload.name == "warp-sweep":
        every = [t for v in by_kind.values() for t in v]
        print(f"solve_s.p50: {statistics.median(every):.4f} s (of {n})")
    print(f"wall_s: {p.wall:.4f} s, items_per_s: {n / p.wall:.4f}, reference "
          f"kernel {probe.typical() * 1e6:.1f} us ({len(probe.durations)} samples)")
    print(f"raw setup: {setup_raw:.4f} s")
    print(f"output digest: {p.digest()}")
    correct = report_failures(p)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (sum(ref_times), "ref"),
        "round_ref": (sum(statistics.median(v) for v in ref_by_kind.values()),
                      "ref"),
        "ok_frac": ((n - len(p.failed)) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    return correct, n, len(p.failed), metrics


def traced(package, workload, items, outdir, seed):
    import layers
    import selftest
    from tracer import Tracer

    base = run_pass(workload, items)
    passes = []
    for _ in range(2):
        tr = Tracer().install(package)
        try:
            with tr.span("item.probe"):
                selftest.probe(outdir)
            p = run_pass(workload, items, tr=tr)
        finally:
            tr.uninstall()
        written = sum(o.bytes_written for _, o in p.outcomes)
        passes.append((tr, p, layers.metrics(tr, written, p.wall - base.wall)))
    (tr, p, metrics), (tr_b, p_b, metrics_b) = passes
    problems = selftest.problems(tr, package)
    units = layers.units()
    problems += [f"{m} differs between traced passes: {metrics[m]} vs "
                 f"{metrics_b[m]}" for m, unit in units.items()
                 if unit in layers.EXACT_UNITS and metrics[m] != metrics_b[m]]
    if tr.count_snapshot() != tr_b.count_snapshot():
        problems.append("span counts differ between traced passes")
    if len({base.digest(), p.digest(), p_b.digest()}) != 1:
        problems.append("output digest differs between passes")
    for line in problems:
        print(f"PROBLEM {line}")
    tr.dump(OUT / f"trace-{workload.name}-{seed}.json")
    print(f"untraced {base.wall:.3f} s, traced {p.wall:.3f} s, "
          f"output digest {p.digest()}")
    correct = report_failures(p) and not problems
    return (correct, len(p.outcomes), len(p.failed),
            {m: (metrics[m], units[m]) for m in units})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "cli-export", "warp-sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = load_program()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    repeats = max(1, round(args.seconds / workload_cls.nominal_round_s))
    with scratch_dir() as outdir:
        setup_s, setup_raw, workload, items = setup(workload_cls, reference,
                                                    outdir, args.seed)
        if args.trace:
            correct, attempted, failed, metrics = traced(package, workload, items,
                                                         outdir, args.seed)
        else:
            correct, attempted, failed, metrics = untraced(
                workload, items, repeats, setup_s, setup_raw)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
