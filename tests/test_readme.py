"""The README's entry points name what domlab exports."""

import fnmatch
import os
import re

import domlab
from domlab import inequalities

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _entry_point_names(text):
    """Every backticked name in the Entry points column of the README's table."""
    rows = text.split("| Area | Entry points |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.rsplit("|", 2)[1])]


def _resolves(name):
    if name.startswith("domlab."):
        return hasattr(domlab, name[len("domlab."):])
    if name.startswith("verify_"):
        return bool(fnmatch.filter(dir(inequalities), name))
    return hasattr(domlab, name)


def test_every_readme_entry_point_resolves():
    with open(README, encoding="utf-8") as fh:
        names = _entry_point_names(fh.read())
    assert "tail_table" in names and "verify_*" in names  # the table was found
    assert [name for name in names if not _resolves(name)] == []
