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
