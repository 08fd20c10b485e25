"""``tools/src_lines.py`` sorts each line of a file into one kind."""

import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

SAMPLE = textwrap.dedent('''\
    """Module docstring,

    over three lines."""

    import os  # a trailing comment makes no comment line


    # a comment line
    def f():
        """One line."""
        text = """a string
    that is not a docstring
    """
        return text


    class C:
        """Class docstring."""

        x = 1
''')


def test_counts_each_kind(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(SAMPLE)
    (tmp_path / "top.py").write_text("# only a comment\n\nx = 1\n")
    result = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                            capture_output=True, text=True, check=True)
    header, *rows, total = result.stdout.splitlines()
    assert header.split() == ["lines", "code", "docstring", "comment", "blank", "file"]
    # lines 1 and 3 of the module docstring and the two one-line ones; a
    # line of a docstring that is blank counts as blank
    assert [row.split() for row in rows] == [["20", "8", "4", "1", "7", "pkg/m.py"],
                                             ["3", "1", "0", "1", "1", "top.py"]]
    assert total == "23 lines: 9 code, 4 docstring, 2 comment and 8 blank"
