"""The Python examples of README.md run as written."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    # every ```python block, in order, in one namespace, as a reader would
    # paste them; the last one maps a physical frame's answer
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].converged
    alpha, beta = map(float, capsys.readouterr().out.split()[-2:])
    assert (alpha, beta) == (pytest.approx(9.7095, abs=1e-4), pytest.approx(9.9596, abs=1e-4))
