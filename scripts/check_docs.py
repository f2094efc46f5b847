#!/usr/bin/env python3
"""Markdown link and path checker for the repo docs.

Scans the given markdown files (default: README.md, DESIGN.md, EXPERIMENTS.md,
ROADMAP.md, CHANGES.md and everything under docs/) and fails if:

  * a relative link / image target does not exist on disk, or
  * an intra-document anchor (#section) has no matching heading, or
  * a backticked repo path does not exist (README.md, DESIGN.md,
    EXPERIMENTS.md and docs/ only: CHANGES.md and ROADMAP.md record history,
    so they may name files that are gone).

A backticked span is a repo path when its first token starts with a
top-level directory (src/, tests/, bench/, scripts/, examples/, perfbench/,
docs/) or with a directory under src/ (cover/, zdd/, ...). It may use the
`{a,b}` and `*` shell forms and a `:line`, `#anchor` or `::member` suffix; a
bare binary name such as `bench/bench_hard_gap` resolves through its `.cpp`.

External (http/https/mailto) links are NOT fetched — CI must stay hermetic —
they are only counted. Run from anywhere; paths resolve against the repo root
(the parent of this script's directory).

Usage:
    scripts/check_docs.py            # default file set
    scripts/check_docs.py FILE...    # explicit files
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
BRACE_RE = re.compile(r"\{([^{}]*)\}")

TOP_LEVEL_DIRS = ("src", "tests", "bench", "scripts", "examples", "perfbench",
                  "docs")
SRC_DIRS = tuple(sorted(p.name for p in (ROOT / "src").iterdir() if p.is_dir()))
# Files whose backticked paths must exist (history files are exempt).
PATH_CHECKED = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def anchor_of(heading):
    """GitHub-style anchor: lowercase, drop punctuation, each space to a dash
    (runs are NOT collapsed — "a & b" slugs to "a--b")."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- §]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def default_files():
    files = []
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
                 "CHANGES.md", "PAPER.md"):
        p = ROOT / name
        if p.exists():
            files.append(p)
    docs = ROOT / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return files


def expand_braces(pattern):
    """Shell-style {a,b} expansion, innermost first."""
    m = BRACE_RE.search(pattern)
    if not m:
        return [pattern]
    out = []
    for alt in m.group(1).split(","):
        out.extend(expand_braces(pattern[:m.start()] + alt + pattern[m.end():]))
    return out


def path_exists(rel):
    if any(ch in rel for ch in "*?["):
        return any(ROOT.glob(rel))
    p = ROOT / rel
    return p.exists() or (p.suffix == "" and p.with_suffix(".cpp").exists())


def repo_path_of(span):
    """The repo-relative path a backticked span names, or None."""
    token = span.split()[0] if span.split() else ""
    # Drop a C++ member (`file.hpp::Name`), an anchor and a `:line` suffix.
    token = re.split(r"::|#", token)[0]
    token = re.sub(r":\d.*$", "", token).rstrip(".,;:)")
    if "/" not in token or any(ch in token for ch in "<>$…") or "..." in token:
        return None
    first = token.split("/", 1)[0]
    if first in TOP_LEVEL_DIRS:
        return token
    if first in SRC_DIRS:
        return "src/" + token
    return None


def check_paths(path, text):
    errors = []
    for m in CODE_SPAN_RE.finditer(text):
        rel = repo_path_of(m.group(1))
        if rel is None:
            continue
        missing = [p for p in expand_braces(rel) if not path_exists(p)]
        if missing:
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{path.relative_to(ROOT)}:{line}: missing path "
                          f"`{m.group(1)}`")
    return errors


def path_checked(path):
    return ((path.parent == ROOT and path.name in PATH_CHECKED)
            or path.parent == ROOT / "docs")


def check_file(path):
    errors = []
    raw = path.read_text(encoding="utf-8")
    # Links inside code blocks are examples; blanking the blocks (not
    # deleting them) keeps the line numbers of the reported paths right.
    text = CODE_FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"), raw)
    if path_checked(path):
        errors.extend(check_paths(path, text))
    anchors = {anchor_of(h) for h in HEADING_RE.findall(raw)}
    external = 0

    for m in LINK_RE.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            external += 1
            continue
        if target.startswith("#"):
            if anchor_of(target[1:]) not in anchors and target[1:] not in anchors:
                errors.append(f"{path.relative_to(ROOT)}: broken anchor {target}")
            continue
        file_part, _, anchor = target.partition("#")
        dest = (path.parent / file_part).resolve()
        if not dest.exists():
            errors.append(f"{path.relative_to(ROOT)}: missing target {target}")
            continue
        if anchor and dest.suffix == ".md":
            dest_anchors = {anchor_of(h)
                            for h in HEADING_RE.findall(
                                dest.read_text(encoding="utf-8"))}
            if anchor_of(anchor) not in dest_anchors and anchor not in dest_anchors:
                errors.append(
                    f"{path.relative_to(ROOT)}: broken anchor {target}")
    return errors, external


def main():
    files = [pathlib.Path(a).resolve() for a in sys.argv[1:]] or default_files()
    all_errors, checked, external = [], 0, 0
    for path in files:
        if not path.exists():
            all_errors.append(f"{path}: file not found")
            continue
        errors, ext = check_file(path)
        all_errors.extend(errors)
        checked += 1
        external += ext
    for err in all_errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"check_docs: {checked} files, {external} external links skipped, "
          f"{len(all_errors)} errors")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
