"""Write reference.json: the residual values the correctness checks compare
against (certify items at seed 0, and the cli-export user-map report).

    python3 perfbench/make_reference.py

Run it only when a change is meant to move residual values, and say so in
that change.
"""

from __future__ import annotations

import json

import run


def main():
    run.load_program()
    from workloads import Certify, CliExport, Item, certificate

    def summary(report: dict) -> dict:
        return {"verdict": report["verdict"],
                "nodes_evaluated": report["diagnostics"]["nodes_evaluated"],
                "entries": {e["name"]: e["value"] for e in report["entries"]}}

    reference = {kind: summary(json.loads(certificate(kind)))
                 for kind in Certify.kinds if kind != "nan-control"}
    with run.scratch_dir() as outdir:
        commands = CliExport({}, outdir)
        commands.run(Item("user_map"))
        _, files, _ = commands.command("user_map")
        with open(files[0], encoding="utf-8") as fh:
            reference["user_map"] = summary(json.load(fh))
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
