"""``scripts/check_imports.py`` finds unused imports and passes the package."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_imports.py"


@pytest.fixture(scope="module")
def check_imports():
    spec = importlib.util.spec_from_file_location("check_imports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_has_no_unused_import(check_imports, capsys):
    assert check_imports.main([str(ROOT / "src" / "cornerwalk")]) == 0
    assert capsys.readouterr().out == ""


def test_scripts_have_no_unused_import(check_imports, capsys):
    assert check_imports.main([str(ROOT / "scripts")]) == 0
    assert capsys.readouterr().out == ""


def test_tests_have_no_unused_import(check_imports, capsys):
    assert check_imports.main([str(ROOT / "tests")]) == 0
    assert capsys.readouterr().out == ""


def test_type_checking_import_used_by_nothing(check_imports):
    source = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .montecarlo import SimEstimate\n"
    )
    assert check_imports.unused_imports(source) == [(4, "SimEstimate")]


def test_annotations_reads_and_all_count_as_used(check_imports):
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, pi\n"
        "from .curve import CurveGeometry\n"
        "__all__ = ['pi']\n"
        "def f(g: CurveGeometry) -> float:\n"
        "    return np.sum(os.sep)\n"
    )
    assert check_imports.unused_imports(source) == [(3, "inf")]


def test_explicit_noqa_f401_skips_its_import(check_imports):
    source = (
        "import os  # noqa: F401\n"
        "import re  # noqa: E501, F401\n"
        "import sys  # noqa\n"
        "import json  # noqa: F811\n"
        "from math import (  # noqa: F401\n"
        "    inf,\n"
        ")\n"
        "from math import (\n"
        "    pi,  # noqa: F401\n"
        ")\n"
    )
    # only F401 named on the statement's first line counts
    assert check_imports.unused_imports(source) == [
        (3, "sys"), (4, "json"), (8, "pi"),
    ]
