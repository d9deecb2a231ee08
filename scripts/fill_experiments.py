#!/usr/bin/env python3
"""Splice measured experiment output into EXPERIMENTS.md.

Reads the output of `gsj-exp all` (experiment_results.txt, or the file
given as the first argument) and replaces each block between the
`<!-- measured:NAME -->` / `<!-- /measured -->` markers of EXPERIMENTS.md
with the corresponding section. Exits non-zero when a section is missing
from the results, when a marker is missing from the document, or when a
`MEASURED_*` placeholder is left. `--check` validates and writes nothing.
"""
import re
import sys

TARGET = "EXPERIMENTS.md"

SECTIONS = [
    "table2", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
    "fig5f", "fig5g", "table3", "offline", "e2e", "fig5h",
]


def section(text: str, name: str) -> str | None:
    pattern = rf"##### running {name} .*?#####\n(.*?)(?=\n##### running |\nall experiments|\Z)"
    m = re.search(pattern, text, re.S)
    if not m or not m.group(1).strip():
        return None
    return "```text\n" + m.group(1).strip() + "\n```"


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--check"]
    check = len(args) != len(sys.argv) - 1
    results_path = args[0] if args else "experiment_results.txt"
    results = open(results_path).read()
    doc = open(TARGET).read()
    errors = []
    for name in SECTIONS:
        body = section(results, name)
        if body is None:
            errors.append(f"section `{name}` missing from {results_path}")
            continue
        block = rf"(<!-- measured:{name} -->\n).*?(\n<!-- /measured -->)"
        doc, n = re.subn(block, lambda m: m.group(1) + body + m.group(2), doc, flags=re.S)
        if n != 1:
            errors.append(f"{TARGET} has {n} `measured:{name}` blocks, want 1")
    leftover = re.findall(r"MEASURED_\w+", doc)
    if leftover:
        errors.append(f"unresolved placeholders in {TARGET}: {leftover}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        return 1
    if check:
        print(f"{results_path} has all {len(SECTIONS)} sections; {TARGET} has no placeholder")
    else:
        open(TARGET, "w").write(doc)
        print(f"{TARGET} updated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
