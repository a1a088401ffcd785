"""The README's Python example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(tmp_path)  # anything the example writes lands here
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
