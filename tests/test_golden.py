"""Golden outputs: committed stdout of seeded experiments, byte for byte.

Each file under ``tests/golden/`` is the exact stdout of one CLI
invocation.  The simulator is deterministic, so any difference is a
change in a simulated number (or in its rendering) and must be made on
purpose: regenerate the file with the command in :data:`GOLDENS` and
commit it together with the change that moved it.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Golden file -> the ``repro-ffs`` arguments whose stdout it holds.
GOLDENS = {
    "flash_tiny.txt": ["experiment", "flash", "--preset", "tiny", "--no-cache"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_stdout_matches_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = GOLDENS[name]
    assert main(argv) == 0
    got = capsys.readouterr().out
    want = (GOLDEN_DIR / name).read_text()
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        line = next(
            (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
            min(len(got_lines), len(want_lines)),
        )
        pytest.fail(
            f"`repro-ffs {' '.join(argv)}` no longer matches tests/golden/{name} "
            f"(first difference at line {line + 1}):\n"
            f"  golden: {want_lines[line] if line < len(want_lines) else '<end>'}\n"
            f"  now:    {got_lines[line] if line < len(got_lines) else '<end>'}"
        )
