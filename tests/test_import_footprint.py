"""What an epl process imports.

``scipy.spatial`` pulls in scipy.sparse (and through it numpy.f2py),
scipy.special and scipy.linalg: about 400 modules and 38 MB on top of
numpy, for one function. epl binds scipy's compiled distance kernels
directly (``epl.host``) and ranks with numpy, so a whole experiment and
its report run without any of them. An ``ast`` scan keeps scipy, the CPU
and thread counts and the OpenBLAS binding to that one module.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import epl

HEAVY = ("scipy.spatial", "scipy.spatial.distance", "scipy.sparse", "scipy.special",
         "scipy.linalg", "scipy.stats", "numpy.f2py")

# Criterion 9's configuration (tests/test_acceptance.py): every family, two replicas.
RUN = """
import json, sys
from pathlib import Path
import epl, epl.cli
from epl.config import ExperimentConfig
from epl.pipeline import run_experiment, spearman, write_report

out = Path(sys.argv[1])
cfg = ExperimentConfig(classes=3, per_class=60, dims=6, spread=0.8, center_dist=10.0,
                       dataset_seed=2, s_frac=0.05, u_frac=0.65, t_frac=0.30,
                       base_seed=11, replicas=2, epochs=5, batch_size=32, iterations=150,
                       exaggeration_iters=40, momentum_switch=40, perplexity=12.0,
                       out_dir=str(out / "run"))
rows, code = run_experiment("all", cfg)
write_report(rows, out / "report")
# One report cell is too few to rank (MIN_CELLS): rank two series here.
rho = spearman([1, 2, 2, 3], [3, 1, 2, 2])
print(json.dumps({"code": code, "rows": len(rows), "rho": rho,
                  "report": sorted(p.name for p in (out / "report").iterdir()),
                  "kernels": epl.host.cdist_sqeuclidean.__module__,
                  "modules": sorted(m for m in sys.modules
                                    if m.split(".")[0] in ("scipy", "numpy"))}))
"""


def test_an_experiment_and_its_report_import_no_heavy_scipy_module(tmp_path):
    src = str(Path(epl.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + RUN,
                           str(tmp_path)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    facts = json.loads(done.stdout.splitlines()[-1])
    assert facts["code"] == 0 and facts["rows"] > 0 and facts["rho"] < 0
    assert facts["report"] == ["correlation.csv", "summary.csv"]
    assert not [m for m in facts["modules"] if m in HEAVY], facts["modules"]
    # The distance kernels come from scipy's extension, loaded without
    # registering it or any other scipy module.
    assert facts["kernels"] == "scipy.spatial._distance_pybind"
    assert not [m for m in facts["modules"] if m.split(".")[0] == "scipy"], facts["modules"]


def _names(path: Path, named) -> list[str]:
    """Where the module names something ``named`` accepts, as file:line: an
    import, a name, an attribute (also as ``name.attribute``), or a string."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr, f"{getattr(node.value, 'id', '')}.{node.attr}"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(map(named, names)):
            found.append(f"{path.name}:{node.lineno}")
    return found


def _only_host_names(named):
    modules = sorted(Path(epl.__file__).parent.glob("*.py"))
    assert "host.py" in [path.name for path in modules]
    assert _names(Path(epl.__file__).parent / "host.py", named)
    found = [site for path in modules if path.name != "host.py"
             for site in _names(path, named)]
    assert not found, found


def test_only_the_rule_book_names_scipy():
    # epl.host binds the distance kernels and reads scipy's version; every
    # other module reaches scipy through it.
    _only_host_names(lambda name: name.split(".")[0] == "scipy")


def test_only_the_host_module_counts_cpus_threads_and_loads_a_library():
    # The CPUs of the affinity mask or the machine, the threads a fork must
    # not outlive, and OpenBLAS's binding are read in epl.host alone.
    _only_host_names(lambda name: name in ("os.sched_getaffinity", "os.cpu_count",
                                           "threading.active_count", "ctypes"))


def test_only_the_host_module_forks():
    # The projection's helper and the arm workers are forked, asked, answered
    # and reaped through epl.host's one protocol: no other module opens,
    # reads or writes a child's pipe, or pickles.
    _only_host_names(lambda name: name in ("os.fork", "os.waitpid", "os._exit", "os.pipe",
                                           "os.fdopen", "pickle"))
