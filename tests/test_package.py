import re
from pathlib import Path

import luml1


def test_every_exported_name_resolves():
    missing = [name for name in luml1.__all__ if not hasattr(luml1, name)]
    assert missing == []
    assert len(set(luml1.__all__)) == len(luml1.__all__)


def test_readme_library_snippet_imports_only_exported_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from luml1 import \((.*?)\)", readme, re.S)
    assert block is not None
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert names and set(names) <= set(luml1.__all__)
