"""Every name the benchmark tracer hooks, and every kernel the replays
refuse, must exist.

`benchmarks/tracing.py` skips a hook whose target is gone and drops the
metrics that depend on it, so a renamed or deleted function would silently
shrink the benchmark report.  `replay.refuse_full_register` likewise skips a
name no module has, so a stale entry would refuse nothing.  These checks make
both fail here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
