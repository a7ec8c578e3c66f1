import subprocess
import sys
from pathlib import Path

import panelcount

# scipy.optimize and scipy.linalg cost tens of MB of resident memory on import,
# which every Monte Carlo worker process would pay.
HEAVY = ("scipy.optimize", "scipy.linalg")

SRC = str(Path(panelcount.__file__).resolve().parents[1])

# prints the sorted names of the loaded modules whose top-level package is scipy
LOADED_SCIPY = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def run_fresh(body: str) -> str:
    """Run ``body`` in a new interpreter that imports panelcount from this
    checkout; returns its stdout."""
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{body}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_heavy_scipy_modules_unloaded():
    out = run_fresh(f"import panelcount; print(sorted(m for m in {HEAVY!r} if m in sys.modules))")
    assert out == "[]"


def test_import_loads_no_scipy():
    assert run_fresh(f"import panelcount, panelcount.cli; print({LOADED_SCIPY})") == "[]"


def test_two_sample_work_loads_no_scipy_until_a_chi_square_p_value():
    body = f"""
import panelcount as pc
from panelcount.hypotests import chisq_sf

cfg = pc.SimConfig(beta=0.2, group_sizes=(20, 20), replications=4, base_seed=5,
                   weight_specs=(pc.WeightSpec(pc.WeightKind.CONST),
                                 pc.WeightSpec(pc.WeightKind.COMPLEMENT)),
                   statistics=("t1", "t2"))
d = pc.generate_dataset(cfg, 0)
report = pc.two_sample_tests(d, pc.WeightSpec(pc.WeightKind.CONST), fits=pc.fit_all(d))
assert set(report.p_values) == {{"T1", "T2"}}
rows = pc.run_power_study([cfg])
assert len(rows) == 4 and sum(row.failures for row in rows) < 16
for bad in ((float("nan"), 2), (-1.0, 2), (1.0, 0)):
    try:
        chisq_sf(*bad)
    except ValueError:
        pass
    else:
        raise AssertionError(bad)
print({LOADED_SCIPY})
p = chisq_sf(1.0, 2)
loaded = "scipy.special" in sys.modules
import scipy.special
print(loaded, p == float(scipy.special.gammaincc(1.0, 0.5)))
"""
    before, after = run_fresh(body).splitlines()
    assert before == "[]"
    assert after == "True True"
