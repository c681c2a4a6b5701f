"""Re-pin every pinned output: rerun the rows of ``pins.py`` and rewrite
``tests/digests.sha256`` and ``tests/pinned_reports_9x9.json`` in place.

    python tests/repin.py [--outputs DIR] [--parent DIR]

It imports ``rwsurf`` from ``src/`` of the same checkout.  Every pinned
output is written to ``--outputs`` (a temporary directory by default),
together with the full 9x9 report of each catalog member (``<kind>_9.json``).
With ``--parent``, a directory of the same outputs made by the parent
commit's copy of this script, it prints each report entry whose value moved,
with its old and new value and the move's share of the entry's tol; the
rewritten manifest's diff shows which outputs moved.  Tier-1 and the
package do not import it.
"""

import argparse
import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pins  # noqa: E402


def write_outputs(directory: pathlib.Path) -> dict:
    """Run every row of the pin table in a temporary directory, write each
    pinned output to ``directory`` under its name, and return the digest of
    each name."""
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        ran = pathlib.Path(scratch)
        for row, code, stdout, stderr, added in pins.run_table(pins.run, ran):
            found = pins.problems(row, code, stdout, stderr, added, ran)
            if found:
                sys.exit(f"repin: {row.key}: {'; '.join(found)}")
            for name in row.outputs:
                data = pins.output(name, stdout, ran)
                (directory / name).write_bytes(data)
                digests[name] = pins.sha256(data)
    report = pins.nan_cornered_report().to_json().encode()
    (directory / pins.NAN_CORNERED).write_bytes(report)
    digests[pins.NAN_CORNERED] = pins.sha256(report)
    return digests


def write_reports_9x9(directory: pathlib.Path) -> dict:
    """Write each member's full 9x9 report to ``directory`` and return the
    fields ``pinned_reports_9x9.json`` keeps of them."""
    pinned = {}
    for kind in pins.MEMBERS_9X9:
        report = pins.report_9x9(kind)
        (directory / f"{kind}_9.json").write_text(report.to_json())
        pinned[kind] = pins.pinned_9x9(report)
    return pinned


def print_moves(new: pathlib.Path, old: pathlib.Path):
    """Print each entry of a report in ``new`` whose value differs from the
    same report's in ``old``."""
    for path in sorted(new.glob("*.json")):
        if not (old / path.name).exists():
            continue
        before = {e["name"]: e["value"] for e in
                  json.loads((old / path.name).read_text())["entries"]}
        for e in json.loads(path.read_text())["entries"]:
            was, now = before.get(e["name"]), e["value"]
            if was == now:
                continue
            share = ("n/a" if None in (was, now)
                     else f"{abs(now - was) / e['tol']:.2g}")
            print(f"{path.name} {e['name']}: {was!r} -> {now!r} "
                  f"({share} x tol)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--outputs", type=pathlib.Path,
                    help="directory for the pinned outputs (default: a "
                         "temporary one)")
    ap.add_argument("--parent", type=pathlib.Path,
                    help="the parent's outputs, to print what moved")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        outputs = args.outputs or pathlib.Path(scratch)
        outputs.mkdir(parents=True, exist_ok=True)
        digests = write_outputs(outputs)
        pinned = write_reports_9x9(outputs)
        pins.MANIFEST.write_text("".join(f"{digests[name]}  {name}\n"
                                         for name in sorted(digests)))
        pins.REPORTS_9X9.write_text(json.dumps(pinned, indent=1,
                                               sort_keys=True))
        if args.parent:
            print_moves(outputs, args.parent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
