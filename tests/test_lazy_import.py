"""The package and the series subcommands start without numpy.

Only the simulator needs numpy, and it loads on first use of one of its
names.  The test process already holds numpy, so each check that needs a
fresh interpreter runs in a subprocess.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cornerwalk

from test_solver_pins import SERIES_CLI, SERIES_CLI_SHA256
from test_stream_contract import CLI, CLI_SHA256

ROOT = Path(__file__).resolve().parent.parent

MONTECARLO_NAMES = {
    "ScanPoint", "SimConfig", "SimEstimate", "brownian_halfplane_kernel",
    "estimate_escape", "estimate_green", "estimate_halfplane_survival",
    "green_direction_scan", "martin_kernel_estimate", "martin_kernel_profile",
    "skipfree_exit_root",
}

SERIES_SUBCOMMANDS = {
    "validate": ["validate", "models/fibonacci.txt"],
    "curve_dump": ["curve-dump", "models/fibonacci.txt"],
    "escape": ["escape", "models/fibonacci.txt", "1", "1"],
    "harmonic_table": SERIES_CLI["harmonic_table"],
    "boundary_harmonic": ["boundary-harmonic", "models/fibonacci.txt", "2", "3"],
    "sequence": ["sequence", "models/fibonacci.txt"],
}

# Runs each argv through cli.main and prints {case: [exit code, sha256]}.
CLI_DIGESTS = """
import contextlib, hashlib, io, json, sys
from cornerwalk.cli import main

out = {}
for case, argv in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[case] = [code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()]
print(json.dumps(out))
"""


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_numpy_nor_the_simulator():
    out = run_fresh("""
        import json, sys
        import cornerwalk, cornerwalk.cli

        loaded = sorted({"numpy", "cornerwalk.montecarlo"} & set(sys.modules))
        lazy = sorted(n for n in cornerwalk.__all__ if n not in vars(cornerwalk))
        print(json.dumps({"loaded": loaded, "lazy": lazy}))
    """)
    got = json.loads(out)
    assert got["loaded"] == []
    assert set(got["lazy"]) == MONTECARLO_NAMES


def test_montecarlo_names_are_the_simulator_s_own_objects():
    out = run_fresh("""
        import json, sys
        import cornerwalk

        mc = cornerwalk.montecarlo
        same = {n: getattr(cornerwalk, n) is getattr(mc, n) for n in json.loads(sys.argv[1])}
        sentinel = object()
        mc.estimate_escape = sentinel  # a patch of the simulator's namespace shows through
        print(json.dumps({
            "module": mc is sys.modules["cornerwalk.montecarlo"],
            "same": same,
            "copied": sorted(n for n in same if n in vars(cornerwalk)),
            "patched": cornerwalk.estimate_escape is sentinel,
        }))
    """, json.dumps(sorted(MONTECARLO_NAMES)))
    got = json.loads(out)
    assert got["module"]
    assert got["same"] == {n: True for n in MONTECARLO_NAMES}
    assert got["copied"] == []
    assert got["patched"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cornerwalk.no_such_name
    assert not hasattr(cornerwalk, "no_such_name")
    with pytest.raises(ImportError):
        from cornerwalk import no_such_name  # noqa: F401


def test_dir_lists_all_exports():
    assert set(cornerwalk.__all__) <= set(dir(cornerwalk))


def test_series_subcommands_run_with_numpy_blocked():
    out = run_fresh(
        'import sys; sys.modules["numpy"] = None\n' + CLI_DIGESTS,
        json.dumps(SERIES_SUBCOMMANDS),
    )
    got = json.loads(out)
    assert {case: code for case, (code, _) in got.items()} == {
        case: 0 for case in SERIES_SUBCOMMANDS
    }
    assert got["harmonic_table"][1] == SERIES_CLI_SHA256["harmonic_table"]


def test_mc_check_loads_the_simulator_on_demand():
    out = run_fresh(CLI_DIGESTS, json.dumps({"mc": CLI["escape_mc_check"]}))
    assert json.loads(out)["mc"] == [0, CLI_SHA256["escape_mc_check"]]
