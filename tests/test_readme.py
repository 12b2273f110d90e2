import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # a renamed or deleted name in the docs fails here, not for a reader
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
