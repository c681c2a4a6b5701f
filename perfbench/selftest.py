"""Tracer self-test.  ``probe`` runs the cli-export commands at toy size (3x3
grids, 5 dense samples, 3-point scans), which between them reach every
layer; under a tracer, every span the per-layer metrics read must fire, and
uninstalling the tracer must put every original function and method back.

``run.py --trace 1`` runs the probe at the start of each traced pass, so
every layer records some work on every workload, and checks the result.  To
run the self-test alone: ``python3 perfbench/selftest.py`` from the
repository root (exit code 0 when it passes).
"""

from __future__ import annotations


def probe(outdir: str):
    from workloads import CliExport, Item

    commands = CliExport({}, outdir)
    for kind in commands.kinds:
        commands.run(Item(kind), small=True)


def problems(tr, package) -> list[str]:
    """What the tracer missed in a pass that ran the probe, and what it
    left patched after ``uninstall``."""
    import layers
    import tracer as tracing

    wanted = layers.traced_spans() | {tracing.FD_CHART}
    found = [f"span {name} never fired" for name in sorted(wanted)
             if not tr.stat(name)]
    found += [f"counter {name} stayed 0" for name in
              ("steps_accepted", "report_nodes", "certificates", "scan_nodes",
               "fd_jets") if not tr.counters[name]]
    found += [f"{name} not restored" for name in tr.not_restored()]
    found += [f"{name} is still wrapped"
              for name, _, _, fn in tracing.public_targets(package)
              if hasattr(fn, "__wrapped__")]
    return found


def selftest(package, outdir: str) -> list[str]:
    """Problems found; an empty list means the tracer sees every call."""
    from tracer import Tracer

    tr = Tracer().install(package)
    try:
        with tr.span("item.probe"):
            probe(outdir)
    finally:
        tr.uninstall()
    return problems(tr, package)


if __name__ == "__main__":
    import sys

    import run

    package = run.load_program()
    with run.scratch_dir() as outdir:
        found = selftest(package, outdir)
    for line in found:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: " + ("FAILED" if found else "ok"))
    sys.exit(1 if found else 0)
