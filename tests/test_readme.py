"""The README's code blocks, run verbatim: the docs name only API that exists
and a config that parses."""

import re
from pathlib import Path

import pytest

from hippp.cli import _DESIGN_FILE, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language):
    """Every fenced block of `language` in the README, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_configuration_block_loads_to_the_defaults(tmp_path):
    (block,) = code_blocks("ini")
    printed, empty = tmp_path / "readme.ini", tmp_path / "empty.ini"
    printed.write_text(block, encoding="utf-8")
    empty.write_text("", encoding="utf-8")
    assert load_config(str(printed)) == load_config(str(empty))


def test_the_library_block_runs():
    (block,) = code_blocks("python")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    record = namespace["record"]
    assert record.architecture_kind == "lshippp" and record.trials == 1000
    assert record.rating_norm == pytest.approx(0.15, abs=1e-12)


def test_the_design_file_table_lists_the_keys_hippp_reads_and_writes():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Design file"):text.index("## Output schema")]
    rows = re.findall(r"^\| `\[(\w+)\]` \| (.*?) \|", section, re.M)
    documented = [(name, re.findall(r"`([^`]+)`", keys)) for name, keys in rows]
    assert documented == [(s.name, [key.name for key in s.keys]) for s in _DESIGN_FILE]
