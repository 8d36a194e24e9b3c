"""README's Python block runs as printed.

Each line of the block runs in one namespace, and a line written as
``expr  # value`` must evaluate to something whose repr starts the
comment.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs_as_commented():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if comment:
            assert comment.startswith(repr(eval(code, namespace))), line
            checked += 1
        elif code:
            exec(code, namespace)
    assert checked > 0
