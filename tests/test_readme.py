"""README's "Library use" section runs as written, so its examples follow the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list:
    """The python blocks of README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_library_use_runs(capsys):
    blocks = library_use_blocks()
    assert len(blocks) == 2  # the pair walk, then the single walker, which reuses its names
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    entropy, total, winding = capsys.readouterr().out.split()
    assert 0.0 <= float(entropy) <= 2.0 and abs(float(total) - 1.0) < 1e-8 and winding == "1"
    assert namespace["once"].shape == (namespace["window"].size, 2)
