"""Compare two full records written by run.py, metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

Exits 1 without comparing when the records are not the same workload: a
different workload, seed, shape, argv or generated jobs.csv makes the
numbers incomparable.
"""

from __future__ import annotations

import json
import sys


class NotComparable(ValueError):
    pass


def compare(old: dict, new: dict) -> list[str]:
    if old["identity"] != new["identity"]:
        differs = sorted(k for k in old["identity"].keys() | new["identity"].keys()
                         if old["identity"].get(k) != new["identity"].get(k))
        raise NotComparable(f"different workloads: {', '.join(differs)} differ")
    if old["trace"] != new["trace"]:
        raise NotComparable("one record is traced and the other is not")
    if new["trace"]:
        old_m, new_m = old.get("per_layer", {}), new.get("per_layer", {})
    else:
        old_m = {k: v["median"] for k, v in old["summary"].items()}
        new_m = {k: v["median"] for k, v in new["summary"].items()}
    lines = []
    for name in sorted(old_m.keys() & new_m.keys()):
        a, b = old_m[name], new_m[name]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        lines.append(f"{name:<40} {a:>14.6g} {b:>14.6g} {change:>8}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    try:
        lines = compare(*records)
    except NotComparable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'metric':<40} {'old':>14} {'new':>14} {'change':>8}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
