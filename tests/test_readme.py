"""The README's examples run against the code they document."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from edsim import DecoherencePartition, GhzConfig, cli, run_ghz

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


# the decay-law table: one row per (experiment, partition) cell, with `D`
# as one expression per partition, or one for all of them
DECAY_TABLE = [
    [cell.strip() for cell in line.strip("|").split("|")]
    for line in re.search(r"## The decay law\n.*?\n\| experiment.*?\n\|[- |]+\n(.*?)\n\n", README, re.S)
    .group(1).splitlines()
]
OMEGA0, DETUNING, N_ATOMS, SIGMA = 3.0, 1.0, 5, 0.25
OMEGA = OMEGA0 - DETUNING
# the gaps of the coherence each experiment reads: the Ramsey pair
# (|e,k-1>, |g,k>), the bare atom, a photon moved between the Michelson
# arms, and the two GHZ branches
GAPS = {
    "quantized Ramsey": {"atom": OMEGA0, "field": -OMEGA},
    "semiclassical Ramsey": {"atom": OMEGA0},
    "Michelson": {"arm_c": OMEGA, "arm_d": -OMEGA},
    "GHZ": {"atoms": N_ATOMS * OMEGA0},
}
# the blocks of each partition a row names
PARTITIONS = {
    ("quantized Ramsey", "global"): [(("atom", "field"),)],
    ("quantized Ramsey", "local"): [(("atom",), ("field",))],
    ("quantized Ramsey", "atom / field only"): [(("atom",),), (("field",),)],
    ("semiclassical Ramsey", "atom"): [(("atom",),)],
    ("Michelson", "global"): [(("arm_c", "arm_d"),)],
    ("Michelson", "local"): [(("arm_c",), ("arm_d",))],
    ("Michelson", "one arm only"): [(("arm_c",),), (("arm_d",),)],
    ("GHZ", "one block over the N atoms"): [(("atoms",),)],
}


@pytest.mark.parametrize("experiment, partition, d_cell", DECAY_TABLE,
                         ids=[f"{e}-{p}" for e, p, _ in DECAY_TABLE])
def test_decay_law_table_row_is_decay_rate(experiment, partition, d_cell):
    names = {"omega0": OMEGA0, "omega": OMEGA, "detuning": DETUNING, "N": N_ATOMS}
    d_values = [eval(expr, {}, names) for expr in re.findall(r"`([^`]+)`", d_cell) or [d_cell]]
    blocks_each = PARTITIONS[experiment, partition]
    if len(d_values) == 1:
        d_values *= len(blocks_each)
    assert len(d_values) == len(blocks_each)
    for blocks, d in zip(blocks_each, d_values):
        part = DecoherencePartition(SIGMA, tuple(frozenset(b) for b in blocks))
        assert math.isclose(part.strength(GAPS[experiment]), d, rel_tol=1e-12)
        assert math.isclose(part.decay_rate(GAPS[experiment]), SIGMA * d, rel_tol=1e-12)
        if experiment == "GHZ":
            rate = run_ghz(GhzConfig(n_atoms=N_ATOMS, omega0=OMEGA0, wait=1.0, decoherence=part)).effective_rate
            assert math.isclose(rate, SIGMA * d, rel_tol=1e-12)


def test_decay_law_table_covers_every_partition():
    assert [(e, p) for e, p, _ in DECAY_TABLE] == list(PARTITIONS)
