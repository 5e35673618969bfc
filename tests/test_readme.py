"""The README's examples run against the code they document."""

import contextlib
import dataclasses
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from edsim import DecoherencePartition, GhzConfig, MichelsonConfig, RamseyConfig, cli, run_ghz
from edsim.interferometry import EXPERIMENTS, gaps

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
# the EXPERIMENTS family of each row, and a config of it; the gaps come
# from the table the runners read
FAMILIES = {
    "quantized Ramsey": ("ramsey_quantized", RamseyConfig(omega0=OMEGA0, wait=1.0, detuning=DETUNING)),
    "semiclassical Ramsey": ("ramsey_semiclassical", RamseyConfig(omega0=OMEGA0, wait=1.0, detuning=DETUNING)),
    "Michelson": ("michelson", MichelsonConfig(alpha=1.0, arm_time=1.0, mode_frequency=OMEGA)),
    "GHZ": ("ghz", GhzConfig(n_atoms=N_ATOMS, omega0=OMEGA0, wait=1.0)),
}
# the partitions each row names, as block lists over its family's labels:
# one block over all of them, one block per label, or one partition per label
def one_block(labels):
    return [[labels]]


def per_label_blocks(labels):
    return [[(lab,) for lab in labels]]


def per_label_partitions(labels):
    return [[(lab,)] for lab in labels]


SPLITS = {
    ("quantized Ramsey", "global"): one_block,
    ("quantized Ramsey", "local"): per_label_blocks,
    ("quantized Ramsey", "atom / field only"): per_label_partitions,
    ("semiclassical Ramsey", "atom"): one_block,
    ("Michelson", "global"): one_block,
    ("Michelson", "local"): per_label_blocks,
    ("Michelson", "one arm only"): per_label_partitions,
    ("GHZ", "one block over the N atoms"): one_block,
}


@pytest.mark.parametrize("experiment, partition, d_cell", DECAY_TABLE,
                         ids=[f"{e}-{p}" for e, p, _ in DECAY_TABLE])
def test_decay_law_table_row_is_decay_rate(experiment, partition, d_cell):
    names = {"omega0": OMEGA0, "omega": OMEGA, "detuning": DETUNING, "N": N_ATOMS}
    d_values = [eval(expr, {}, names) for expr in re.findall(r"`([^`]+)`", d_cell) or [d_cell]]
    family, cfg = FAMILIES[experiment]
    blocks_each = SPLITS[experiment, partition](EXPERIMENTS[family][0])
    if len(d_values) == 1:
        d_values *= len(blocks_each)
    assert len(d_values) == len(blocks_each)
    for blocks, d in zip(blocks_each, d_values):
        part = DecoherencePartition(SIGMA, blocks)
        assert math.isclose(part.strength(gaps(family, cfg)), d, rel_tol=1e-12)
        assert math.isclose(part.decay_rate(gaps(family, cfg)), SIGMA * d, rel_tol=1e-12)
        if family == "ghz":
            rate = run_ghz(dataclasses.replace(cfg, decoherence=part)).effective_rate
            assert math.isclose(rate, SIGMA * d, rel_tol=1e-12)


def test_decay_law_table_covers_every_partition():
    # every (experiment, partition) row in order, and every table family has a row
    assert [(e, p) for e, p, _ in DECAY_TABLE] == list(SPLITS)
    assert sorted({FAMILIES[e][0] for e, _, _ in DECAY_TABLE}) == sorted(EXPERIMENTS)
