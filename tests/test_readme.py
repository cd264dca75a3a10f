"""The README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["psi"].dim == 4 * namespace["cut"].dim
    assert namespace["trajectory"].shape == (101, 4 * namespace["cut"].dim)
