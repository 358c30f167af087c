#!/usr/bin/env python3
"""Markdown link checker for the docs CI job.

Scans the given markdown files / directories for inline links and images
(``[text](target)``) and reference definitions (``[label]: target``) and
verifies that every RELATIVE target resolves to an existing file or
directory (anchors are stripped; ``http(s)://`` and ``mailto:`` targets are
skipped — CI must not depend on external availability). Also verifies that
every path-looking inline code reference of the form ``docs/...``,
``src/...`` or ``tools/...`` (backtick-quoted) exists, which is how stale
references to renamed headers/entry points in prose get caught.

Source files (C++, Python, shell) among the arguments are scanned for the
``*.md`` names their comments cite (``docs/architecture.md``,
``file_formats.md``, ...): each must resolve from the repository root, the
citing file's directory, or ``docs/``, so a comment cannot point readers at
a document that does not exist.

Exit code 0 when everything resolves; 1 with a per-link report otherwise.
Usage: check_docs_links.py README.md docs src tests [more files or dirs...]
"""
import os
import re
import sys

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFDEF_RE = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
CODEPATH_RE = re.compile(r"`((?:docs|src|tools|bench|tests|examples)/[A-Za-z0-9_./-]+)`")
MD_CITE_RE = re.compile(r"(?<![A-Za-z0-9_./-])([A-Za-z0-9_./-]+\.md)\b")
EXTERNAL = ("http://", "https://", "mailto:")
SOURCE_EXT = (".cpp", ".hpp", ".h", ".cc", ".py", ".sh")


def collect(paths, exts):
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, files in os.walk(p):
                for f in sorted(files):
                    if f.endswith(exts):
                        yield os.path.join(root, f)
        elif p.endswith(exts):
            yield p


def check_source_citations(path, repo_root):
    """Every *.md name cited in a source file must name a real document."""
    errors = []
    text = open(path, encoding="utf-8").read()
    bases = (repo_root, os.path.dirname(path), os.path.join(repo_root, "docs"))
    for m in MD_CITE_RE.finditer(text):
        cited = m.group(1)
        if not any(os.path.exists(os.path.join(b, cited)) for b in bases):
            errors.append(f"{path}: cites missing document -> {cited}")
    return errors


def check_file(path, repo_root):
    errors = []
    text = open(path, encoding="utf-8").read()
    base = os.path.dirname(path)
    targets = []
    for m in LINK_RE.finditer(text):
        targets.append((m.group(1), "link"))
    for m in REFDEF_RE.finditer(text):
        targets.append((m.group(1), "refdef"))
    for target, kind in targets:
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = os.path.normpath(os.path.join(base, rel))
        if not os.path.exists(resolved):
            errors.append(f"{path}: broken {kind} -> {target}")
    # Backtick-quoted repo paths in prose: `src/...`, `docs/...`, ...
    for m in CODEPATH_RE.finditer(text):
        ref = m.group(1).rstrip(".")
        # Globby or placeholder mentions (src/core/dual_fault.{hpp,cpp},
        # bench_*) are prose shorthand, not single paths.
        if any(c in ref for c in "{}*"):
            for part in expand_braces(ref):
                if not os.path.exists(os.path.join(repo_root, part)):
                    errors.append(f"{path}: stale path reference -> {ref}")
                    break
            continue
        if not os.path.exists(os.path.join(repo_root, ref)):
            errors.append(f"{path}: stale path reference -> {ref}")
    return errors


def expand_braces(ref):
    m = re.match(r"^(.*)\{([^}]*)\}(.*)$", ref)
    if not m:
        return [ref] if "*" not in ref else []
    out = []
    for alt in m.group(2).split(","):
        out.extend(expand_braces(m.group(1) + alt + m.group(3)))
    return out


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    repo_root = os.getcwd()
    errors = []
    checked = 0
    for md in collect(argv[1:], (".md",)):
        checked += 1
        errors.extend(check_file(md, repo_root))
    for src in collect(argv[1:], SOURCE_EXT):
        checked += 1
        errors.extend(check_source_citations(src, repo_root))
    if errors:
        print("\n".join(errors))
        print(f"\n{len(errors)} broken reference(s) across {checked} file(s)")
        return 1
    print(f"checked {checked} file(s): all links, path references and "
          "document citations resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
