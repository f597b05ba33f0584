"""The README is the contract: its Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    """Each block continues the previous one, in one namespace."""
    assert BLOCKS
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__readme__"}
    for k, source in enumerate(BLOCKS):
        exec(compile(source, f"README.md python block {k + 1}", "exec"), namespace)
    assert capsys.readouterr().out
