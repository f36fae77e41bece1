"""The README's examples hold against ``src/``.

Each ``python`` block runs as written, and the INI block that lists every
knob with its default loads to the default config.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from prelude.harness import ExperimentConfig, load_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


def test_the_readme_has_its_examples():
    assert len(PYTHON) == 2
    assert [lang for lang, _ in BLOCKS].count("ini") == 1


@pytest.mark.parametrize("body", PYTHON,
                         ids=[f"block{i}" for i in range(len(PYTHON))])
def test_python_block_runs(body):
    exec(compile(body, "README.md", "exec"), {})


def test_the_listed_knobs_are_the_defaults(tmp_path):
    lead = "All knobs with their defaults:\n\n```ini\n"
    start = README.index(lead) + len(lead)
    path = tmp_path / "defaults.ini"
    path.write_text(README[start : README.index("```", start)])
    assert load_config(path) == ExperimentConfig(seed=1)
