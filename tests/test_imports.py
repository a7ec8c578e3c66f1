import subprocess
import sys
from pathlib import Path

import panelcount

# scipy is a test dependency only.  scipy.optimize and scipy.linalg cost tens
# of MB of resident memory on import, and even scipy.special about 16 MB,
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


# T1/T2 and chi-square studies, a chi-square report and a QQ table
STUDY_WORK = """
import panelcount as pc

t12 = pc.SimConfig(beta=0.2, group_sizes=(20, 20), replications=4, base_seed=5,
                   weight_specs=(pc.WeightSpec(pc.WeightKind.CONST),
                                 pc.WeightSpec(pc.WeightKind.COMPLEMENT)),
                   statistics=("t1", "t2"))
chi2 = pc.SimConfig(beta=0.0, group_sizes=(20, 20, 20), replications=4, base_seed=5,
                    weight_specs=(pc.WeightSpec(pc.WeightKind.CONST),),
                    statistics=("chi2-u", "chi2-v"))
d = pc.generate_dataset(t12, 0)
report = pc.two_sample_tests(d, pc.WeightSpec(pc.WeightKind.CONST), fits=pc.fit_all(d))
assert set(report.p_values) == {"T1", "T2"}
report = pc.chi2_u_test(pc.generate_dataset(chi2, 0), pc.WeightSpec(pc.WeightKind.CONST))
assert 0.0 <= report.p_values["chi2"] <= 1.0
rows = pc.run_power_study([t12, chi2])
assert len(rows) == 6 and sum(row.failures for row in rows) < 24
qq = pc.SimConfig(beta=0.0, group_sizes=(10, 10), replications=4, base_seed=5,
                  weight_specs=(pc.WeightSpec(pc.WeightKind.CONST),), statistics=("t2",))
table, failures = pc.qq_study(qq)
assert table.shape == (4, 2) and sum(failures.values()) == 0
"""


def test_study_work_loads_no_scipy():
    assert run_fresh(f"{STUDY_WORK}\nprint({LOADED_SCIPY})") == "[]"


def test_study_work_runs_with_scipy_blocked():
    # a None entry makes every import of scipy raise ImportError
    assert run_fresh(f"sys.modules['scipy'] = None\n{STUDY_WORK}\nprint('done')") == "done"


def test_serial_study_loads_no_process_pool():
    # a serial run never starts a worker, so it need not import the pool
    body = """
import os
os.environ["PCT_THREADS"] = "1"
import panelcount, panelcount.cli
cfg = panelcount.SimConfig(beta=0.2, group_sizes=(10, 10), replications=2, base_seed=5,
                           statistics=("t1", "t2"))
panelcount.run_power_study([cfg])
print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
"""
    assert run_fresh(body) == "[]"


# a two-group dataset written to CSV, read back, validated and fitted
ANALYSIS_WORK = """
import os, tempfile
import panelcount as pc
from panelcount.cli import read_dataset_csv, write_dataset_csv

cfg = pc.SimConfig(beta=0.2, group_sizes=(20, 20), replications=1, base_seed=5)
with tempfile.TemporaryDirectory() as tmp:
    csv_path = os.path.join(tmp, "data.csv")
    write_dataset_csv(pc.generate_dataset(cfg, 0), csv_path)
    d = read_dataset_csv(csv_path)
assert pc.validate_dataset(d).ok
assert len(pc.fit_all(d).groups) == 2
"""

LOADED_MA = "print('numpy.ma' in sys.modules)"


def test_study_and_analysis_load_no_numpy_ma():
    # np.unique imports numpy.ma on numpy 2, about 0.7 MB of resident memory
    # in every process; numpy 1.x may load it with numpy itself
    with_numpy = run_fresh(f"import numpy\n{LOADED_MA}")
    assert run_fresh(f"{STUDY_WORK}\n{LOADED_MA}") == with_numpy
    assert run_fresh(f"{ANALYSIS_WORK}\n{LOADED_MA}") == with_numpy


def test_package_exports_each_modules_public_names_once():
    # every public name is declared in its module's __all__ alone
    from panelcount import core, estimators, hypotests, simulation, weights

    modules = (core, estimators, hypotests, simulation, weights)
    names = [name for module in modules for name in module.__all__]
    assert panelcount.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(panelcount, name) is getattr(module, name), name
