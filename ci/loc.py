#!/usr/bin/env python3
"""Count non-test Rust lines in the workspace.

Definition (the one the LoC figures in CHANGES.md use):

* every ``.rs`` file under the repository root, except files below a
  directory named ``tests``, ``benches``, ``shims``, ``perfbench`` or
  ``target`` (at any depth), and except hidden directories;
* every physical line of such a file counts (blank and comment lines
  included), minus each ``#[cfg(test)] mod tests { ... }`` block, from the
  attribute line through the closing brace.

Prints the total, then one line per crate (``crates/<name>``; files
outside ``crates/`` are grouped by their top-level directory). The script
only reports: it has no bound and always exits 0 on a readable tree.

Usage: python3 ci/loc.py [repo-root]
"""

import os
import re
import sys
from collections import defaultdict

EXCLUDED_DIRS = {"tests", "benches", "shims", "perfbench", "target"}

TEST_MOD = re.compile(r"^\s*#\[cfg\(test\)\]\s*(?:\n\s*)?(?:pub(?:\([^)]*\))?\s+)?mod\s+tests\s*\{", re.M)


def skip_literal(src: str, i: int) -> int:
    """Returns the index just past the string, char or comment at ``i``,
    or ``i`` if none starts there."""
    if src.startswith("//", i):
        end = src.find("\n", i)
        return len(src) if end < 0 else end
    if src.startswith("/*", i):
        depth, j = 1, i + 2
        while j < len(src) and depth:
            if src.startswith("/*", j):
                depth, j = depth + 1, j + 2
            elif src.startswith("*/", j):
                depth, j = depth - 1, j + 2
            else:
                j += 1
        return j
    raw = re.match(r'b?r(#*)"', src[i : i + 260])
    if raw and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
        close = '"' + raw.group(1)
        end = src.find(close, i + raw.end())
        return len(src) if end < 0 else end + len(close)
    if src[i] == '"':
        j = i + 1
        while j < len(src) and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return j + 1
    if src[i] == "'":
        # A char literal ('x', '\n', '\u{..}'), not a lifetime ('a).
        m = re.match(r"'(?:\\(?:u\{[0-9a-fA-F]+\}|x[0-9a-fA-F]{2}|.)|[^\\'])'", src[i : i + 12])
        if m:
            return i + m.end()
    return i


def block_end(src: str, open_brace: int) -> int:
    """Index of the brace closing the block opened at ``open_brace``."""
    depth, i = 0, open_brace
    while i < len(src):
        j = skip_literal(src, i)
        if j != i:
            i = j
            continue
        if src[i] == "{":
            depth += 1
        elif src[i] == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(src) - 1


def count_file(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        src = f.read()
    lines = src.count("\n") + (0 if src.endswith("\n") or not src else 1)
    for m in TEST_MOD.finditer(src):
        end = block_end(src, m.end() - 1)
        lines -= src.count("\n", m.start(), end) + 1
    return lines


def group_of(rel: str) -> str:
    parts = rel.split(os.sep)
    if parts[0] == "crates" and len(parts) > 2:
        return os.path.join(parts[0], parts[1])
    return parts[0] if len(parts) > 1 else "."


def main() -> None:
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    per_group = defaultdict(int)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in EXCLUDED_DIRS and not d.startswith(".")
        )
        for name in filenames:
            if name.endswith(".rs"):
                path = os.path.join(dirpath, name)
                per_group[group_of(os.path.relpath(path, root))] += count_file(path)
    print(f"non-test Rust lines: {sum(per_group.values())}")
    for group in sorted(per_group):
        print(f"  {group:<24} {per_group[group]:>7}")


if __name__ == "__main__":
    main()
