#!/usr/bin/env python3
"""Compare two sets of perfbench result rows, like for like only.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result rows as perfbench appends them to
perfbench/out/rows.jsonl, one JSON object per line. Rows are grouped by
(workload, threads, scale, nproc, trace). The comparison is refused with
exit code 2 when a group of NEW has no group of BASE with the same key, or
when the rows of one group in one file come from more than one commit
(rows.jsonl collects runs of every commit measured in that tree; split it
first). Seeds may vary within a group, and the commit between the two
files: they are what a comparison varies. For each metric the script
prints, per side, the median over runs and the distance between the
quartiles as a share of the median, then the change of the medians.
"""

import json
import statistics
import sys

KEY = ("workload", "threads", "scale", "nproc", "trace")


def load(path):
    groups = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            missing = [k for k in KEY + ("seed", "commit", "metrics") if k not in row]
            if missing:
                sys.exit(f"{path}:{n}: row lacks {', '.join(missing)}")
            groups.setdefault(tuple(row[k] for k in KEY), []).append(row)
    return groups


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    refused = False
    for k in new:
        if k not in base:
            refused = True
            have = ", ".join(str(b) for b in sorted(base, key=str)) or "none"
            print(f"refused: no baseline rows with key {dict(zip(KEY, k))}; baseline keys: {have}")
    for path, groups in ((argv[1], base), (argv[2], new)):
        for k, rows in groups.items():
            commits = sorted({r["commit"] for r in rows})
            if len(commits) > 1:
                refused = True
                print(f"refused: {path} mixes commits {', '.join(commits)} "
                      f"in rows with key {dict(zip(KEY, k))}")
    if refused:
        return 2
    for k, rows in sorted(new.items(), key=str):
        print(f"== {dict(zip(KEY, k))}: {len(base[k])} baseline rows of {base[k][0]['commit']}, "
              f"{len(rows)} new rows of {rows[0]['commit']}")
        for name, m in rows[0]["metrics"].items():
            b = [r["metrics"][name]["value"] for r in base[k] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in rows if name in r["metrics"]]
            if not b or not c:
                continue
            (bm, bs), (cm, cs) = spread(b), spread(c)
            change = f"{(cm - bm) / abs(bm):+.2%}" if bm else "n/a"
            print(f"  {name:<30} {bm:>14.6g} (iqr {bs:.1%})  ->  {cm:>14.6g} (iqr {cs:.1%})"
                  f"  {change} [{m['unit']}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
