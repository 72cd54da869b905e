"""The CLI battery (`tests/cli_battery.py`) prints what it printed before: every
command's output, exit code and files hash to the lines committed in
`tests/data/cli_battery.txt`.  A change that moves a line on purpose rewrites
the file with

    PYTHONPATH=src python3 tests/cli_battery.py > tests/data/cli_battery.txt

and names the line it moved."""

import contextlib
import io
from pathlib import Path

from cli_battery import main_battery

EXPECTED = Path(__file__).resolve().parent / "data" / "cli_battery.txt"


def test_cli_battery_output_is_byte_identical():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main_battery()
    got = out.getvalue().splitlines()
    want = EXPECTED.read_text().splitlines()
    moved = [f"want {a}\n got {b}" for a, b in zip(want, got) if a != b]
    assert not moved, "\n".join(moved[:10])
    assert len(got) == len(want)
