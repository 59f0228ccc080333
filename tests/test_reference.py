import os
import subprocess
import sys
from pathlib import Path

import incknap
import incknap.reference


def test_solve_path_does_not_import_reference():
    # a fresh interpreter, since this test process has imported the module
    src = Path(incknap.__file__).resolve().parent.parent
    probe = "import sys, incknap, incknap.cli; print('incknap.reference' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
    assert incknap.reference.__name__ == "incknap.reference"
