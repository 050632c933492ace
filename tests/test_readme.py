"""The README's library example runs, and each `print` prints what its
trailing comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                         re.DOTALL)
    expected = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
