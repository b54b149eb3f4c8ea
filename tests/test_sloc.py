"""tools/sloc.py: the per-module count, and --base REV beside it."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"


def run(*args: str) -> list[list[str]]:
    out = subprocess.run([sys.executable, str(TOOL), *args], check=True,
                         capture_output=True, text=True).stdout
    return [line.split() for line in out.splitlines()]


def test_base_column_is_the_count_at_that_revision():
    head = subprocess.run(["git", "-C", str(TOOL.parent), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    plain = {name: int(count) for name, count in run()}
    header, *rows = run("--base", head.stdout.strip())
    assert header == ["module", "base", "now", "delta"]
    assert {name: int(now) for name, _, now, _ in rows} == plain
    for name, base, now, delta in rows:
        assert int(delta) == int(now) - int(base)
    assert sum(int(base) for name, base, *_ in rows if name != "total") == \
        int(rows[-1][1])


def test_docstrings_comments_and_blank_lines_do_not_count():
    sys.path.insert(0, str(TOOL.parent))
    try:
        from sloc import sloc
    finally:
        sys.path.remove(str(TOOL.parent))
    text = '"""Module."""\n\n# note\ndef f(x):\n    """Doc."""\n    return (x +\n            1)\n'
    assert sloc(text) == 3
