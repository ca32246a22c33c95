#!/usr/bin/env python3
"""Count non-test lines of code under crates/*/src.

A line counts when it is not blank, does not start with `//` (after
leading whitespace), and comes before the file's first column-0
`#[cfg(test)]`. Prints one row per crate and the total, as a Markdown
table. With `--base <rev>`, also prints every file whose count differs
from the same path at `<rev>` (read with `git show`), then the total
before and after.

    python3 .github/scripts/loc.py
    python3 .github/scripts/loc.py --base HEAD~1
"""

import argparse
import pathlib
import subprocess
import sys
from collections import defaultdict


def count(text):
    lines = 0
    for line in text.splitlines():
        if line.startswith("#[cfg(test)]"):
            break
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            lines += 1
    return lines


def files_at(root, rev):
    """Map each crates/*/src/**.rs path to its count, in the worktree or at `rev`."""
    if rev is None:
        paths = sorted(str(p.relative_to(root)) for p in root.glob("crates/*/src/**/*.rs"))
        return {p: count((root / p).read_text()) for p in paths}
    listing = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev, "--", "crates"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.split()
    paths = [p for p in listing if p.endswith(".rs") and p.split("/")[2:3] == ["src"]]
    return {
        p: count(subprocess.run(
            ["git", "show", f"{rev}:{p}"],
            cwd=root, check=True, capture_output=True, text=True,
        ).stdout)
        for p in paths
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to print per-file deltas against")
    args = parser.parse_args()
    root = pathlib.Path(
        subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
        ).stdout.strip()
    )
    now = files_at(root, None)

    per_crate = defaultdict(int)
    for path, lines in now.items():
        per_crate[path.split("/")[1]] += lines
    print("| crate | lines |")
    print("|---|---:|")
    for crate in sorted(per_crate):
        print(f"| {crate} | {per_crate[crate]:,} |")
    print(f"| **total** | **{sum(now.values()):,}** |")

    if args.base:
        base = files_at(root, args.base)
        print()
        print(f"| file | {args.base} | now | delta |")
        print("|---|---:|---:|---:|")
        for path in sorted(set(now) | set(base)):
            before, after = base.get(path, 0), now.get(path, 0)
            if before != after:
                print(f"| {path} | {before:,} | {after:,} | {after - before:+,} |")
        total_before, total_after = sum(base.values()), sum(now.values())
        print(f"| **total** | **{total_before:,}** | **{total_after:,}** "
              f"| **{total_after - total_before:+,}** |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
