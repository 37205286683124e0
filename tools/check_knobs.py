#!/usr/bin/env python3
"""Env-knob table checker (stdlib only; used by the CI docs job).

Collects every "PSI_*" string literal in the C++ sources under src/,
bench/ and examples/ (the names the program can read from the
environment) and every knob row of the README's "Environment knobs"
table, and fails unless the two sets are equal: a knob the code reads
must be documented, and a documented knob must still exist. Exits
non-zero listing each name found on one side only.

    python3 tools/check_knobs.py [repo_root]
"""

import os
import re
import sys

CODE_DIRS = ("src", "bench", "examples")
CODE_EXTS = (".cpp", ".hpp", ".h", ".cc")
LITERAL_RE = re.compile(r'"(PSI_[A-Z0-9_]+)"')
ROW_RE = re.compile(r"^\|\s*`(PSI_[A-Z0-9_]+)`\s*\|")
SECTION = "## Environment knobs"


def code_knobs(root: str):
    names = set()
    for top in CODE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, top)):
            for name in filenames:
                if not name.endswith(CODE_EXTS):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    names.update(LITERAL_RE.findall(f.read()))
    return names


def readme_knobs(root: str):
    names = set()
    in_section = False
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("## "):
                in_section = line.strip() == SECTION
                continue
            m = ROW_RE.match(line) if in_section else None
            if m:
                names.add(m.group(1))
    return names


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    code = code_knobs(root)
    table = readme_knobs(root)
    for name in sorted(code - table):
        print(f"undocumented: {name} is read in the code but has no "
              f"README knob row")
    for name in sorted(table - code):
        print(f"stale: {name} has a README knob row but no code reads it")
    if code != table:
        return 1
    print(f"{len(code)} env knobs in the code = {len(table)} README rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
