"""The README's examples run against the code they document."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from edsim import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# every `edsim ...` line of the CLI "Examples:" block; selftest runs through
# cli.main in tests/test_cli.py already
EXAMPLES = [
    shlex.split(line)[1:]
    for line in re.search(r"Examples:\s*```sh\n(.*?)```", README, re.S).group(1).splitlines()
    if line.startswith("edsim ") and shlex.split(line)[1] != "selftest"
]


def test_python_blocks_print_half_visibility():
    # the blocks build on each other, so they share one namespace
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in re.findall(r"```python\n(.*?)```", README, re.S):
            exec(compile(block, "README.md", "exec"), namespace)
    assert abs(float(out.getvalue().splitlines()[0]) - 0.5) <= 1e-12


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(argv) for argv in EXAMPLES])
def test_example_command_exits_zero(argv, tmp_path):
    argv = [str(tmp_path / a) if prev == "--out" else a for prev, a in zip([""] + argv, argv)]
    assert cli.main(argv) == 0
