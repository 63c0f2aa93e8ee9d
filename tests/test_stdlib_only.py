"""The package has no runtime dependencies: importing it loads only the stdlib."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import equihom
for info in pkgutil.iter_modules(equihom.__path__):
    importlib.import_module("equihom." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded)))
"""


def test_every_module_imports_only_the_standard_library():
    # -I -S: no user site, no site-packages, no PYTHON* environment
    done = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "equihom" in loaded
    outside = [m for m in loaded
               if m != "equihom" and m not in sys.stdlib_module_names]
    assert outside == []
    # swap fractions are integer pairs, so no module pays for fractions,
    # which imports decimal
    assert not {"fractions", "decimal"} & set(loaded)


CLI_PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from equihom import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(["bredon", "-h"]), cli.main(["bredon", "--n", "two"])]
print(codes, sorted({"argparse", "gettext"} & set(sys.modules)))
"""


def test_the_cli_loads_neither_argparse_nor_gettext():
    # the verb table is parsed in place, so no call pays for argparse's
    # parser build and its gettext lookups
    done = subprocess.run([sys.executable, "-I", "-c", CLI_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 2] []\n"
