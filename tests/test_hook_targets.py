"""Every name the benchmark tracer hooks, and every kernel the replays
refuse, must exist, and the hooks must see the run's own calls.

`benchmarks/tracing.py` skips a hook whose target is gone and drops the
metrics that depend on it, so a renamed or deleted function would silently
shrink the benchmark report.  `replay.refuse_full_register` likewise skips a
name no module has, so a stale entry would refuse nothing.  These checks make
both fail here instead.  A hook on a name the run no longer calls would
report 0, so a traced run checks that the screen and the fidelity are seen.

The library's own source and the tests are read too: no file imports a name
it never uses, except a library module's one marked `# noqa: F401` that a
hook names on that module, and no library module defines or imports a
full-register helper that only tests used and that now lives in
`tests/oracles.py` or `tests/replay.py`.
"""

import ast
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
SOURCE = Path(__file__).resolve().parents[1] / "src" / "vipsa"


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


def source_modules():
    """(module name, syntax tree, source lines) of each vipsa module but
    the package's __init__."""
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != "__init__.py":
            text = path.read_text()
            yield f"vipsa.{path.stem}", ast.parse(text), text.splitlines()


def suite_files():
    """(file name, syntax tree, source lines) of each Python file under tests/."""
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        text = path.read_text()
        yield f"tests/{path.name}", ast.parse(text), text.splitlines()


def imported_names(tree):
    """(bound name, line) of every import anywhere in the tree, but
    __future__ ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def test_every_import_is_used():
    # a name imported only so that the tracer can hook it there is marked
    # noqa: F401; once the hook is gone, the pin is flagged like any other
    hooked = {(module, path) for module, path, _, _ in load_tracing().HOOKS}
    unused = []
    for module, tree, lines in [*source_modules(), *suite_files()]:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in imported_names(tree):
            pinned = "# noqa: F401" in lines[line - 1] and (module, name) in hooked
            if name not in used and not pinned:
                unused.append(f"{module}:{line} {name}")
    assert not unused, unused


# Test-only full-register helpers the library no longer keeps; a class
# member is named Class.member.
DELETED = ("basis_state", "apply_pauli_sum", "expectation", "slater_statevector",
           "circuit_gradient", "multiply_letters", "commutes", "_mask_product",
           "hopping_matrix", "HvaAnsatz.sector_state")


def bound_names(node) -> list[str]:
    """The names a top-level or class-body statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_no_deleted_helper_is_defined_or_imported():
    found = []
    for module, tree, _ in source_modules():
        names = [name for name, _ in imported_names(tree)]
        for node in tree.body:
            names += bound_names(node)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{name}" for child in node.body
                          for name in bound_names(child)]
        found += [f"{module}:{name}" for name in names if name in DELETED]
    assert not found, found


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
