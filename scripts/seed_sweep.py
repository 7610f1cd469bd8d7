#!/usr/bin/env python3
"""Tabulate the paper scorecard of `reproduce N` for seeds 1-60.

Usage:

    python3 scripts/seed_sweep.py BINARY OUT

BINARY is a `reproduce` executable. The script runs `BINARY N` for
N = 1..SEEDS and writes OUT as a tab-separated table with one row per
seed: the seed, the `Measured` column of every scorecard target (headed
by the target's `Source Quantity`), the number of targets in band, and
the SHA-256 of the seed's whole stdout.

Each seed's stdout is deterministic, so the table is too: CI regenerates
it and diffs it against tests/data/seed_sweep.tsv, and any change that
moves a target at any seed shows in review.
"""

import hashlib
import re
import subprocess
import sys

SEEDS = 60
SCORECARD = "Scorecard — paper vs measured"
FOOTER = re.compile(r"^(\d+) of (\d+) targets in band$")


def parse_scorecard(stdout):
    """The scorecard of one run: ([(target, measured, in_band)], in-band count).

    `target` is the row's Source and Quantity joined by one space. Cells
    are separated by two or more spaces; a cell may hold single spaces
    ("6.69 /8s"). The footer's count must agree with the rows.
    """
    lines = stdout.splitlines()
    try:
        start = lines.index(SCORECARD)
    except ValueError:
        raise ValueError("no scorecard in the output") from None
    rows = []
    # The title, its underline, the header and the rule precede the rows.
    for line in lines[start + 4:]:
        footer = FOOTER.match(line)
        if footer:
            in_band = sum(ok for _, _, ok in rows)
            if (int(footer.group(1)), int(footer.group(2))) != (in_band, len(rows)):
                raise ValueError(f"footer {line!r} disagrees with {in_band} of {len(rows)} rows")
            return rows, in_band
        cells = re.split(r" {2,}", line.rstrip())
        if len(cells) != 6 or cells[5] not in ("✓", "✗"):
            raise ValueError(f"not a scorecard row: {line!r}")
        source, quantity, _paper, measured, _band, ok = cells
        rows.append((f"{source} {quantity}", measured, ok == "✓"))
    raise ValueError("scorecard has no footer")


def sweep_row(binary, seed):
    """The table row of one seed: its header names and its values."""
    run = subprocess.run([binary, str(seed)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if run.returncode != 0:
        sys.exit(f"seed sweep: seed {seed} exited {run.returncode}:\n{run.stderr.decode(errors='replace')}")
    stdout = run.stdout.decode()
    rows, in_band = parse_scorecard(stdout)
    names = ["seed"] + [name for name, _, _ in rows] + ["in_band", "stdout_sha256"]
    values = [str(seed)] + [measured for _, measured, _ in rows]
    values += [str(in_band), hashlib.sha256(run.stdout).hexdigest()]
    return names, values


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: seed_sweep.py BINARY OUT")
    binary, out = sys.argv[1:]
    header, table = None, []
    for seed in range(1, SEEDS + 1):
        names, values = sweep_row(binary, seed)
        if len(set(names)) != len(names):
            sys.exit(f"seed sweep: seed {seed} repeats a target name")
        if header is None:
            header = names
        elif names != header:
            sys.exit(f"seed sweep: seed {seed}'s scorecard targets differ from seed 1's")
        table.append(values)
    with open(out, "w", encoding="utf-8") as f:
        for row in [header] + table:
            f.write("\t".join(row) + "\n")


if __name__ == "__main__":
    main()
