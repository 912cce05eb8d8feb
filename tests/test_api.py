"""The paper-level API: qlfd.__all__ and the README section of that name
list the same names, and each of them resolves."""

import re
from pathlib import Path

import qlfd

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_api():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Paper-level API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)


def test_all_is_the_readme_api():
    names = _readme_api()
    assert len(names) == len(set(names))
    assert sorted(qlfd.__all__) == sorted(names)


def test_every_api_name_resolves():
    namespace = {}
    exec("from qlfd import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qlfd.__all__)
