"""Every name the benchmark tracer hooks, and every kernel the replays
refuse, must exist, and the hooks must see the run's own calls.

`benchmarks/tracing.py` skips a hook whose target is gone and drops the
metrics that depend on it, so a renamed or deleted function would silently
shrink the benchmark report.  `replay.refuse_full_register` likewise skips a
name no module has, so a stale entry would refuse nothing.  These checks make
both fail here instead.  A hook on a name the run no longer calls would
report 0, so a traced run checks that the screen and the fidelity are seen.
"""

import csv
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracing = load_tracing()
    missing = []
    for module_name, path, _, _ in tracing.HOOKS + tracing.lattice_hooks():
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, attribute)
        except AttributeError:
            missing.append(f"{module_name}:{path}")
    assert not missing, missing


def test_every_refused_kernel_resolves():
    from replay import FULL_REGISTER_KERNELS, REFUSED_MODULES

    missing = [name for name in FULL_REGISTER_KERNELS
               if not any(hasattr(module, name) for module in REFUSED_MODULES)]
    assert not missing, missing


def test_the_cli_binds_no_hooked_function():
    # the tracer replaces a function on the module named in its hook, so a
    # copy the CLI bound at import would keep calling the unhooked original
    tracing = load_tracing()
    cli = vars(importlib.import_module("vipsa.cli"))
    bound = []
    for module_name, path, _, _ in tracing.HOOKS:
        if module_name == "vipsa.cli" or "." in path:
            continue  # a method is hooked on its class, which the CLI may import
        function = getattr(importlib.import_module(module_name), path, None)
        bound += [f"{name} is {module_name}.{path}" for name, value in cli.items()
                  if function is not None and value is function]
    assert not bound, bound


# Fills the cache with one run, then installs the tracer (for good: it
# rebinds module attributes, hence its own interpreter) and repeats the run
# warm, writing the tracer's dump to a file.
TRACED_RUN = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracing
from vipsa.cli import main
assert main(["run", sys.argv[2]]) in (0, 2)
tracer = tracing.Tracer()
tracer.install()
assert main(["run", sys.argv[3]]) in (0, 2)
Path(sys.argv[4]).write_text(json.dumps(tracer.dump()))
"""


@pytest.mark.parametrize("ansatz", ["vipsa", "hva"])
def test_a_traced_run_sees_its_screens_and_fidelities(tmp_path, ansatz):
    settings = (f"nx = 2\nny = 2\nu = 4.0\nansatz = {ansatz}\ncache_dir = {tmp_path / 'cache'}\n"
                "max_epochs = 2\nmax_inner_steps = 3\nlayers = 2\n")
    for name in ("fill", "run"):
        (tmp_path / f"{name}.cfg").write_text(settings + f"output = {tmp_path / name}\n")
    dump = tmp_path / "dump.json"
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACING.parent),
                            str(tmp_path / "fill.cfg"), str(tmp_path / "run.cfg"), str(dump)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    traced = json.loads(dump.read_text())
    names = [span[0] for span in traced["spans"]]
    assert "cli.cache_save" not in names  # the traced run is warm
    with open(tmp_path / "run" / "trace.csv", newline="") as handle:
        records = len(list(csv.DictReader(handle)))
    # one fidelity per epoch record (adaptive) or per evaluation record (HVA)
    assert names.count("hamiltonians.fidelity") == records
    if ansatz == "vipsa":
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert names.count("core.screen") == records  # every epoch screens once
        assert traced["facts"]["pool_size"] == manifest["pool_size"]
