#!/usr/bin/env python3
"""Check that the code names a document mentions exist in the tree.

Usage: doc_names_check.py DOC.md [DOC.md ...]

Reads every backticked span outside fenced code blocks. A span may wrap
across the lines of one paragraph; the line break and the indentation after
it are dropped. A span is checked when, after dropping one trailing
`(...)`, it is a C++-style name,
`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)*`, that looks like code:
it contains `::` or `_`, changes from a lower- to an upper-case letter, or
ended in `)`. Each `::` part of a checked name must occur as a whole word
in some .h, .cpp, .py or CMakeLists.txt file under src/, tests/, bench/,
tools/, examples/ or perfbench/ of this script's repository. Prints
`file:line: name` for every name that does not, and exits 1 if there is
any, 0 otherwise.

Only each part is checked, not the qualified name as a whole: a stale
`Class::member` passes while some other source still uses `member`.
"""

import argparse
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "bench", "tools", "examples", "perfbench")
SOURCE_SUFFIXES = (".h", ".cpp", ".py")

SPAN = re.compile(r"`([^`]+)`")
TRAILING_CALL = re.compile(r"\([^()]*\)$")
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)*")
CAMEL = re.compile(r"[a-z][A-Z]")
WORD = re.compile(r"[A-Za-z0-9_]+")
DESTRUCTOR = re.compile(r"~([A-Za-z0-9_]+)")
WRAP = re.compile(r"\n\s*")


def source_words(root):
    """Every whole word of the tree's source files, plus `~Name` words."""
    words = set()
    for directory in SOURCE_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if not path.is_file():
                continue
            is_source = (
                path.suffix in SOURCE_SUFFIXES or path.name == "CMakeLists.txt"
            )
            if not is_source:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            words.update(WORD.findall(text))
            words.update("~" + w for w in DESTRUCTOR.findall(text))
    return words


def checked_name(span):
    """The name a span asks to check, or None when it is not a code name."""
    name = TRAILING_CALL.sub("", span)
    if not NAME.fullmatch(name):
        return None
    looks_like_code = (
        "::" in name or "_" in name or CAMEL.search(name) or name != span
    )
    return name if looks_like_code else None


def spans(doc):
    """(line, span) for every backticked span of `doc`, in order.

    Spans pair up within a paragraph, as in Markdown; a wrapped span is
    reported at the line it starts on.
    """
    found = []
    paragraph = []  # (line number, text) of the paragraph being read

    def close_paragraph():
        if not paragraph:
            return
        first = paragraph[0][0]
        text = "\n".join(line for _, line in paragraph)
        for match in SPAN.finditer(text):
            number = first + text.count("\n", 0, match.start())
            found.append((number, WRAP.sub("", match.group(1))))
        paragraph.clear()

    fenced = False
    for number, line in enumerate(
        doc.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            close_paragraph()
            fenced = not fenced
        elif not fenced and line.strip():
            paragraph.append((number, line))
        else:
            close_paragraph()
    close_paragraph()
    return found


def misses(doc, words):
    """(line, name) for every checked name in `doc` the tree lacks."""
    found = []
    for number, span in spans(doc):
        name = checked_name(span)
        if name is not None and any(
            part not in words for part in name.split("::")
        ):
            found.append((number, name))
    return found


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("docs", nargs="+", type=pathlib.Path)
    args = parser.parse_args(argv)
    words = source_words(ROOT)
    failed = False
    for doc in args.docs:
        for number, name in misses(doc, words):
            print(f"{doc}:{number}: {name}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
