import subprocess
import sys
from pathlib import Path

import panelcount

# scipy.optimize and scipy.linalg cost tens of MB of resident memory on import,
# which every Monte Carlo worker process would pay.
HEAVY = ("scipy.optimize", "scipy.linalg")


def test_import_leaves_heavy_scipy_modules_unloaded():
    src = str(Path(panelcount.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import panelcount; "
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
