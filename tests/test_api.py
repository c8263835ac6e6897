"""The package exports exactly the library API the README lists."""

import os
import re

import pdbpe

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_api_names():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("- "):
            names += re.findall(r"`(\w+)`", line.split(":", 1)[0])
    return names


def test_all_is_the_readme_library_api():
    listed = _readme_api_names()
    assert len(listed) == len(set(listed))
    assert sorted(pdbpe.__all__) == sorted(listed)
    namespace = {}
    exec("from pdbpe import *", namespace)
    assert set(pdbpe.__all__) <= set(namespace)
