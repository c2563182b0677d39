"""README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)  # the sweep example writes to out/
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["outcome"].iterations > 0
    assert len(namespace["rows"]) == 6
    assert (tmp_path / "out" / "summary.csv").is_file()
