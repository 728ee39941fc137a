"""Spans around the calls into each vipsa layer, for the traced repetition.

The hooks live here, in the benchmark, not in the program: `Tracer.install`
replaces each public function at the name its caller looks it up by (a
module global such as ``vipsa.core.pool_gradients``, or a method on a class
such as ``PoolRotation.apply``).  It is only ever called inside the traced
child process, so untraced repetitions run the program untouched.

A span is ``[name, start, end, parent, attrs]``; spans stay in memory and the
child writes them out when `cli.main` returns.  A hook whose target no longer
exists is recorded as missing, and every metric that depends only on missing
hooks is left out of the report instead of failing the run.
"""

import functools
import importlib
import inspect
import statistics
import time


def _note_build(register):
    def note(tracer, args, result):
        h = result[0] if isinstance(result, tuple) else result
        tracer.registers[id(h)] = (register, h)  # holding h keeps its id unique
        return {"register": register}
    return note


def _note_ground_space(tracer, args, result):
    return {"register": tracer.registers.get(id(args[0]), ("unknown",))[0]}


def _note_sector_matrix(tracer, args, result):
    states, n_qubits = args[1], args[2]
    tracer.facts.setdefault("sector_frac", len(states) / 2 ** n_qubits)
    return {"stored": int(result.nnz), "nonzero": int(result.count_nonzero())}


def _note_gate(tracer, args, result):
    if "state_bytes" not in tracer.facts:
        tracer.facts["state_bytes"] = int(args[1].amplitudes.nbytes)
    return None


def _note_adjoint(tracer, args, result):
    return {"gates": len(args[0].gates)}


def _note_screen(tracer, args, result):
    tracer.facts.setdefault("pool_size", len(args[2]))
    return None


# (module, attribute path, span name, note).  The attribute path is the name
# the caller resolves at call time, so the hook sees exactly the calls the CLI
# makes.
HOOKS = [
    ("vipsa.cli", "main", "cli.main", None),
    ("vipsa.hamiltonians", "GroundSpace.load", "cli.cache_load", None),
    ("vipsa.hamiltonians", "GroundSpace.save", "cli.cache_save", None),
    ("vipsa.hamiltonians", "build_kspace", "hamiltonians.build_h", _note_build("k")),
    ("vipsa.hamiltonians", "build_real", "hamiltonians.build_h", _note_build("real")),
    ("vipsa.core", "build_kspace", "hamiltonians.build_h", _note_build("k")),
    ("vipsa.hva", "build_real", "hamiltonians.build_h", _note_build("real")),
    ("vipsa.hamiltonians", "sector_matrix", "hamiltonians.sector_matrix", _note_sector_matrix),
    ("vipsa.hamiltonians", "ground_space", "hamiltonians.ground_space", _note_ground_space),
    ("vipsa.core", "ground_space", "hamiltonians.ground_space", _note_ground_space),
    ("vipsa.hva", "ground_space", "hamiltonians.ground_space", _note_ground_space),
    ("scipy.sparse.linalg", "eigsh", "hamiltonians.eigsh", None),
    ("vipsa.hamiltonians", "SectorHamiltonian.apply", "hamiltonians.matvec", None),
    ("vipsa.hamiltonians", "SectorHamiltonian.expectation", "hamiltonians.matvec", None),
    ("vipsa.core", "fidelity", "hamiltonians.fidelity", None),
    ("vipsa.hva", "fidelity", "hamiltonians.fidelity", None),
    ("vipsa.hamiltonians", "jordan_wigner", "fermions.jordan_wigner", None),
    ("vipsa.statevector", "PoolRotation.apply", "statevector.gate.pool", _note_gate),
    ("vipsa.statevector", "HoppingRotation.apply", "statevector.gate.hopping", _note_gate),
    ("vipsa.statevector", "DiagonalPhase.apply", "statevector.gate.diagonal", _note_gate),
    ("vipsa.statevector", "PoolRotation.generator_apply", "statevector.generator", None),
    ("vipsa.statevector", "HoppingRotation.generator_apply", "statevector.generator", None),
    ("vipsa.statevector", "DiagonalPhase.generator_apply", "statevector.generator", None),
    ("vipsa.core", "expectation_and_gradient", "core.adjoint", _note_adjoint),
    ("vipsa.hva", "expectation_and_gradient", "hva.adjoint", _note_adjoint),
    ("vipsa.core", "pool_gradients", "core.screen", _note_screen),
    ("vipsa.core", "adam_optimize", "core.adam", None),
    ("vipsa.core", "vipsa_run", "core.run", None),
    ("vipsa.hva", "HvaAnsatz.__init__", "hva.build", None),
    ("vipsa.hva", "adam_minimize", "hva.adam", None),
    ("vipsa.hva", "hva_run", "hva.run", None),
    ("vipsa.lattice", "GridSpec.make", "lattice.GridSpec.make", None),
]

# Every module that may call a public lattice function by its imported name.
LATTICE_CALLERS = ("vipsa.lattice", "vipsa.fermions", "vipsa.statevector",
                   "vipsa.hamiltonians", "vipsa.core", "vipsa.hva", "vipsa.cli")


def lattice_hooks():
    """One hook per public lattice function, at every module that imports it."""
    lattice = importlib.import_module("vipsa.lattice")
    functions = {name: value for name, value in vars(lattice).items()
                 if inspect.isfunction(value) and not name.startswith("_")
                 and value.__module__ == "vipsa.lattice"}
    hooks = []
    for module_name in LATTICE_CALLERS:
        module = importlib.import_module(module_name)
        for name, function in functions.items():
            if getattr(module, name, None) is function:
                hooks.append((module_name, name, f"lattice.{name}", None))
    return hooks


class Tracer:
    """In-memory span recorder for one process, single-threaded."""

    def __init__(self):
        self.spans = []
        self.facts = {}
        self.registers = {}
        self.installed = set()  # span names with at least one live hook
        self.missing = []       # "module:attribute" of hooks whose target is gone
        self._stack = []

    def wrap(self, name, function, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(self, args, result)
            return result

        return traced

    def install(self):
        for module_name, path, name, note in HOOKS + lattice_hooks():
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attribute)
            except AttributeError:
                self.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__, note))
            else:
                replacement = self.wrap(name, raw, note)
            setattr(owner, attribute, replacement)
            self.installed.add(name)

    def dump(self):
        return {"spans": self.spans, "facts": self.facts,
                "installed": sorted(self.installed), "missing": self.missing}


# ---------------------------------------------------------------- metrics ---

class SpanTable:
    """Totals, counts and self times over one dump of spans."""

    def __init__(self, dump):
        self.spans = dump["spans"]
        self.facts = dump["facts"]
        self.installed = set(dump["installed"])
        self.children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                self.children[parent] += end - start

    def named(self, name):
        return [s for s in self.spans if s[0] == name]

    def total(self, *names):
        return sum(end - start for n, start, end, _, _ in self.spans if n in names)

    def count(self, *names):
        return sum(1 for s in self.spans if s[0] in names)

    def self_time(self, name):
        return sum(end - start - self.children[i]
                   for i, (n, start, end, _, _) in enumerate(self.spans) if n == name)

    def attr_sum(self, name, key):
        return sum(s[4][key] for s in self.named(name))


def _ed_time(table, register):
    return sum(end - start for _, start, end, _, attrs in table.named("hamiltonians.ground_space")
               if attrs["register"] == register)


def _adjoint(table):
    """(median span, gate count) of the evaluations at the first gate count seen."""
    spans = table.named("core.adjoint") + table.named("hva.adjoint")
    if not spans:
        return 0.0, 0
    spans.sort(key=lambda s: s[1])
    gates = spans[0][4]["gates"]
    return statistics.median(e - s for _, s, e, _, a in spans if a["gates"] == gates), gates


def _lattice_time(table):
    """Outermost lattice spans only, so nested lattice calls count once."""
    spans = table.spans
    return sum(end - start for name, start, end, parent, _ in spans
               if name.startswith("lattice.")
               and (parent is None or not spans[parent][0].startswith("lattice.")))


def _nonzero_frac(table):
    stored = table.attr_sum("hamiltonians.sector_matrix", "stored")
    return table.attr_sum("hamiltonians.sector_matrix", "nonzero") / stored if stored else 0.0


# (metric, unit, span-name prefixes it needs, value).  A metric none of whose
# prefixes matches a live hook is absent from the report.
LAYER_METRICS = [
    ("cli.self_s", "s", ["cli.main"], lambda t: t.self_time("cli.main")),
    ("cli.cache_load_s", "s", ["cli.cache_load"], lambda t: t.total("cli.cache_load")),
    ("cli.cache_hits", "count", ["cli.cache_load"], lambda t: t.count("cli.cache_load")),
    ("cli.cache_misses", "count", ["cli.cache_save"], lambda t: t.count("cli.cache_save")),
    ("hamiltonians.build_h_s", "s", ["hamiltonians.build_h"],
     lambda t: t.total("hamiltonians.build_h")),
    ("hamiltonians.build_h_calls", "count", ["hamiltonians.build_h"],
     lambda t: t.count("hamiltonians.build_h")),
    ("hamiltonians.sector_build_s", "s", ["hamiltonians.sector_matrix"],
     lambda t: t.total("hamiltonians.sector_matrix")),
    ("hamiltonians.sector_build_calls", "count", ["hamiltonians.sector_matrix"],
     lambda t: t.count("hamiltonians.sector_matrix")),
    ("hamiltonians.sector_stored", "count", ["hamiltonians.sector_matrix"],
     lambda t: t.attr_sum("hamiltonians.sector_matrix", "stored")),
    ("hamiltonians.sector_nonzero_frac", "ratio", ["hamiltonians.sector_matrix"], _nonzero_frac),
    ("hamiltonians.ed_s.k", "s", ["hamiltonians.ground_space"], lambda t: _ed_time(t, "k")),
    ("hamiltonians.ed_s.real", "s", ["hamiltonians.ground_space"],
     lambda t: _ed_time(t, "real")),
    ("hamiltonians.eigsh_s", "s", ["hamiltonians.eigsh"], lambda t: t.total("hamiltonians.eigsh")),
    ("hamiltonians.eigsh_calls", "count", ["hamiltonians.eigsh"],
     lambda t: t.count("hamiltonians.eigsh")),
    ("hamiltonians.matvec_s", "s", ["hamiltonians.matvec"], lambda t: t.total("hamiltonians.matvec")),
    ("hamiltonians.matvec_calls", "count", ["hamiltonians.matvec"],
     lambda t: t.count("hamiltonians.matvec")),
    ("hamiltonians.fidelity_s", "s", ["hamiltonians.fidelity"],
     lambda t: t.total("hamiltonians.fidelity")),
    ("hamiltonians.fidelity_calls", "count", ["hamiltonians.fidelity"],
     lambda t: t.count("hamiltonians.fidelity")),
    ("fermions.jw_s", "s", ["fermions.jordan_wigner"], lambda t: t.total("fermions.jordan_wigner")),
    ("fermions.jw_calls", "count", ["fermions.jordan_wigner"],
     lambda t: t.count("fermions.jordan_wigner")),
    ("lattice.s", "s", ["lattice."], _lattice_time),
    ("statevector.gate_calls", "count",
     ["statevector.gate.pool", "statevector.gate.hopping", "statevector.gate.diagonal"],
     lambda t: t.count("statevector.gate.pool", "statevector.gate.hopping",
                       "statevector.gate.diagonal")),
    ("statevector.gate_s.pool", "s", ["statevector.gate.pool"],
     lambda t: t.total("statevector.gate.pool")),
    ("statevector.gate_s.hopping", "s", ["statevector.gate.hopping"],
     lambda t: t.total("statevector.gate.hopping")),
    ("statevector.gate_s.diagonal", "s", ["statevector.gate.diagonal"],
     lambda t: t.total("statevector.gate.diagonal")),
    ("statevector.generator_calls", "count", ["statevector.generator"],
     lambda t: t.count("statevector.generator")),
    ("statevector.generator_s", "s", ["statevector.generator"],
     lambda t: t.total("statevector.generator")),
    ("statevector.adjoint_eval_s", "s", ["core.adjoint", "hva.adjoint"], lambda t: _adjoint(t)[0]),
    ("statevector.adjoint_gates", "count", ["core.adjoint", "hva.adjoint"],
     lambda t: _adjoint(t)[1]),
    ("statevector.state_bytes", "bytes_computed",
     ["statevector.gate.pool", "statevector.gate.hopping", "statevector.gate.diagonal"],
     lambda t: t.facts.get("state_bytes", 0)),
    ("statevector.sector_frac", "ratio_computed", ["hamiltonians.sector_matrix"],
     lambda t: t.facts.get("sector_frac", 0.0)),
    ("core.screen_s", "s", ["core.screen"], lambda t: t.total("core.screen")),
    ("core.screen_calls", "count", ["core.screen"], lambda t: t.count("core.screen")),
    ("core.pool_size", "count", ["core.screen"], lambda t: t.facts.get("pool_size", 0)),
    ("core.adam_s", "s", ["core.adam"], lambda t: t.total("core.adam")),
    ("core.adam_evals", "count", ["core.adjoint"], lambda t: t.count("core.adjoint")),
    ("core.self_s", "s", ["core.run"], lambda t: t.self_time("core.run")),
    ("hva.build_s", "s", ["hva.build"], lambda t: t.total("hva.build")),
    ("hva.adam_s", "s", ["hva.adam"], lambda t: t.total("hva.adam")),
    ("hva.evals", "count", ["hva.adjoint"], lambda t: t.count("hva.adjoint")),
    ("hva.self_s", "s", ["hva.run"], lambda t: t.self_time("hva.run")),
]


def layer_metrics(dump):
    """{metric: (value, unit)} for every metric with at least one live hook."""
    table = SpanTable(dump)
    return {name: (value(table), unit) for name, unit, needs, value in LAYER_METRICS
            if any(span.startswith(prefix) for prefix in needs for span in table.installed)}
