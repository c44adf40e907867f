"""The output comparison, ``bench/outputs.py``, keeps a command list the CLI still accepts."""

import importlib.util
from pathlib import Path

import pytest

from trigreg import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("outputs_bench_script", ROOT / "bench" / "outputs.py")
OUTPUTS = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(OUTPUTS)


def test_command_names_are_unique():
    names = [command.name for command in OUTPUTS.COMMANDS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("command", OUTPUTS.COMMANDS, ids=lambda command: command.name)
def test_each_command_passes_build_config_or_is_a_listed_refusal(command, tmp_path):
    argv = [*command.argv, "--output-dir", str(tmp_path)]
    if command.memory:
        # validating these would try to allocate what they ask for; the
        # command line itself must still parse
        assert command.refused is None
        cli._build_parser().parse_args(argv)
        return
    if command.refused is None:
        cli.build_config(argv)
        return
    with pytest.raises(cli.CliError) as refusal:
        cli.build_config(argv)
    assert cli.EXIT_CODES[refusal.value.category] == command.refused
