#!/usr/bin/env python3
"""Write the fracvar command line's outputs on every shipped config.

For each configs/*.json this runs, in process through harness.cli_main,
`conditions`, `solve --mu 0.25`, `ray-scan` (csv, and json with
`--count 7`) and `sweep --mu-min 0.05 --mu-max 0.5 --count 4` (json, csv
with `--seed 3`, and `--out`, which also writes the .plot.dat file).
`kernel-verify`, which reads no config, runs once at its defaults and once
at the benchmark's refine rows (`--alpha 0.6 --n 8192 --seed 3`).  Each
run's stdout goes to DIR/<config>.<run>.<ext> (DIR/kernel_verify*.txt for
kernel-verify), its exit code to DIR/EXIT_CODES, and the digest of every
file to DIR/SHA256SUMS.  Two source trees print the same bytes when
`diff -r` of their DIRs is empty:

    PYTHONPATH=src python scripts/cli_outputs.py --out DIR

Exits 1 if any run exits nonzero.
"""

import argparse
import contextlib
import hashlib
import io
import os
import pathlib

from fracvar.harness import cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWEEP = ["sweep", "--mu-min", "0.05", "--mu-max", "0.5", "--count", "4"]
RUNS = {
    "conditions.json": ["conditions"],
    "solve.json": ["solve", "--mu", "0.25"],
    "ray_scan.csv": ["ray-scan", "--mu", "0.25"],
    "ray_scan.json": ["ray-scan", "--mu", "0.25", "--format", "json", "--count", "7"],
    "sweep.json": [*SWEEP, "--format", "json"],
    "sweep_seed3.csv": [*SWEEP, "--seed", "3"],
    "sweep_out.txt": [*SWEEP, "--out", "{out}.sweep_out.csv"],
}
KERNEL_VERIFY_RUNS = {
    "kernel_verify.txt": ["kernel-verify"],
    "kernel_verify_refine.txt": ["kernel-verify", "--alpha", "0.6", "--n", "8192", "--seed", "3"],
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", required=True, help="directory for the outputs")
    out = pathlib.Path(ap.parse_args(argv).out)
    out.mkdir(parents=True, exist_ok=True)

    codes = []

    def run(target: str, argv: list[str]) -> None:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        # DIR's own path leaves the "wrote" lines, so two DIRs compare equal
        text = stdout.getvalue().replace(f"{out}{os.sep}", "")
        (out / target).write_text(text, encoding="utf-8")
        codes.append(f"{code} {target}\n")

    for config in sorted((ROOT / "configs").glob("*.json")):
        for name, args in RUNS.items():
            argv = [a.format(out=out / config.stem) for a in args] + ["--config", str(config)]
            run(f"{config.stem}.{name}", argv)
    for target, argv in KERNEL_VERIFY_RUNS.items():
        run(target, argv)
    (out / "EXIT_CODES").write_text("".join(codes), encoding="utf-8")

    sums = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
        for p in sorted(out.iterdir())
        if p.name != "SHA256SUMS"
    )
    (out / "SHA256SUMS").write_text(sums, encoding="utf-8")
    return 0 if all(c.startswith("0 ") for c in codes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
