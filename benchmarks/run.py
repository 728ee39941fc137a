"""vipsa benchmark: three `vipsa` CLI workloads, one fresh interpreter per step.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up SETUPS times (interpreter start, imports, config files and, for
the ansatz workloads, a cold ground-space cache filled through the CLI) and
reports the median as ``setup_s``.  It then repeats the timed `vipsa.cli.main`
call, each repetition in its own interpreter, until at least MIN_REPS have run
and ``--seconds`` have passed, and reports the median ``wall_s`` and
``peak_rss_mb``.  Every repetition's outputs are checked; one that fails a
check counts as failed.  With ``--trace 1`` a traced set-up and a traced
repetition follow, and the per-layer metrics of tracing.py are reported in
place of the end-to-end ones, together with the tracing overhead.

Step times are scaled to a fixed machine speed: child.py times a fixed
probe kernel right before and after each step, and a step's time is reported
as measured x PROBE_REFERENCE_S / probe time.  The unscaled medians are
printed and kept in the results file as ``raw_wall_s`` and ``raw_setup_s``.

The seed picks the coupling U of the workload from a short fixed list; the
program only sees the generated config and arguments.  The last line of
standard output is one JSON object; a results file with the provenance is
written under .bench_work/.  ``--tiny`` swaps in 2x2/2x3 grids for the
benchmark's own test.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 3
MIN_REPS = 3
# Time of child.speed_probe at the reference machine speed: an Intel Xeon
# (family 6, model 143) KVM guest with 2 cores, Python 3.11.7, numpy 2.4.6.
# Step times are reported at that speed: measured time x reference / probe.
PROBE_REFERENCE_S = 0.25
TIME_LIMIT_S = 170.0
THREAD_ENV = {var: "1" for var in ("VIPSA_NUM_THREADS", "OMP_NUM_THREADS",
                                   "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# Why each workload exists is in README.md.  `settings` go into the run's
# config file; a convergence window longer than the step budget fixes the
# number of evaluations, so the work per repetition does not depend on U.
WORKLOADS = {
    "adaptive_3x3": {
        "grid": (3, 3), "tiny": (2, 2), "couplings": (6.0, 5.75, 6.25, 5.5, 6.5),
        "settings": {"ansatz": "vipsa", "max_epochs": 2, "max_inner_steps": 3,
                     "convergence_window": 4},
    },
    "hva_2x4": {
        "grid": (2, 4), "tiny": (2, 2), "couplings": (4.0, 3.75, 4.25, 3.5, 4.5),
        "settings": {"ansatz": "hva", "layers": 10, "max_inner_steps": 2,
                     "convergence_window": 3},
    },
    "ed_3x3": {
        "grid": (3, 3), "tiny": (2, 3), "couplings": (6.0, 5.75, 6.25, 5.5, 6.5),
        "settings": None,
    },
}

# Set-up fills the ground-space cache through the CLI with the cheapest run
# that still writes it: the cache key holds only the grid, U and sector.
FILL_SETTINGS = {"max_epochs": 1, "max_inner_steps": 1, "r": 1.0, "layers": 1}

# Energy error (final minus ED energy) each ansatz workload reached at this
# benchmark's settings, and the ED ground energy and degeneracy of ed_3x3, per
# U.  A later version may do better, but not worse: a speed-up that comes from
# a weaker optimisation fails the check.
REFERENCE = {
    ("adaptive_3x3", 6.0): 0.952476533617,
    ("adaptive_3x3", 5.75): 0.839685397317,
    ("adaptive_3x3", 6.25): 1.083787934618,
    ("adaptive_3x3", 5.5): 0.732237876723,
    ("adaptive_3x3", 6.5): 1.223070133585,
    ("hva_2x4", 4.0): 1.517745064082,
    ("hva_2x4", 3.75): 1.329923401085,
    ("hva_2x4", 4.25): 1.717781391753,
    ("hva_2x4", 3.5): 1.154629333300,
    ("hva_2x4", 4.5): 1.929583017366,
    ("ed_3x3", 6.0): (-5.562308836312, 4),
    ("ed_3x3", 5.75): (-5.795256006302, 4),
    ("ed_3x3", 6.25): (-5.343015934024, 4),
    ("ed_3x3", 5.5): (-6.042191412188, 4),
    ("ed_3x3", 6.5): (-5.136940320993, 4),
}

ENERGY_RISE_TOL = 1e-12   # rounding allowed between consecutive epoch energies
GROUND_TOL = 1e-9         # final energy may undercut the ED energy by this much
FIDELITY_TOL = 1e-9
REFERENCE_TOL = 1e-6      # allowed excess energy error over REFERENCE
REGISTER_TOL = 1e-9       # criterion 3: the two registers agree on the energy
ED_REFERENCE_TOL = 1e-8


class BenchError(Exception):
    """The run cannot produce a result; reported on stderr, exit code 1."""


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def plan(workload: str, u: float, tiny: bool) -> dict:
    """Files set-up writes, the set-up CLI call, and the timed CLI call."""
    spec = WORKLOADS[workload]
    nx, ny = spec["tiny" if tiny else "grid"]
    if spec["settings"] is None:
        return {"files": {}, "fill": None,
                "argv": ["ed", "--grid", f"{nx}x{ny}", "--u", repr(u),
                         "--register", "both", "--csv", "ed.csv"]}
    base = {"nx": nx, "ny": ny, "u": repr(u), **spec["settings"], "cache_dir": "cache"}
    return {"files": {"run.cfg": config_text({**base, "output": "out"}),
                      "fill.cfg": config_text({**base, **FILL_SETTINGS, "output": "fill"})},
            "fill": ["run", "fill.cfg"], "argv": ["run", "run.cfg"]}


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


def step(run_dir: Path, label: str, files: dict, argv, trace: bool, deadline: float) -> dict:
    """One child interpreter; returns its outcome, with ``crashed`` set on failure."""
    spec_path, result = run_dir / f"{label}.json", run_dir / f"{label}.result.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "files": files, "argv": argv,
                                     "trace": trace, "result": str(result)}))
    log_path = run_dir / f"{label}.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                cwd=run_dir, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{label} did not finish within the run's time limit") from None
    if proc.returncode != 0:
        return {"crashed": f"{label} exited with code {proc.returncode}; see {log_path}"}
    return json.loads(result.read_text())


# ----------------------------------------------------------------- checks ---

def _digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(path.read_bytes())
    return sha.hexdigest()


def check_ansatz(outcome: dict, run_dir: Path, ansatz: str, reference) -> list[str]:
    """Output checks of one `vipsa run`; fills in energy_error, fidelity, digest."""
    out = run_dir / "out"
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        with open(out / "trace.csv", newline="") as handle:
            trace = [float(row["energy"]) for row in csv.DictReader(handle)]
        with open(out / "steps.csv", newline="") as handle:
            first_step = float(next(csv.DictReader(handle))["energy"])
        status, final = manifest["status"], manifest["final_energy"]
        ground, fidelity = manifest["ground_energy"], manifest["final_fidelity"]
    except (OSError, ValueError, KeyError, StopIteration) as err:
        return [f"unreadable artifacts: {err!r}"]
    outcome["energy_error"] = final - ground
    outcome["fidelity"] = fidelity
    outcome["digest"] = _digest([out / "manifest.json", out / "trace.csv", out / "steps.csv"])

    problems = []
    expected = 0 if status == "converged" else 2
    if outcome["exit_code"] != expected:
        problems.append(f"exit code {outcome['exit_code']} with status {status}")
    # the adaptive trace has one row per epoch; the HVA run is a single epoch
    # that starts at its zero-parameter point
    epochs = trace if ansatz == "vipsa" else [first_step, final]
    if any(later > earlier + ENERGY_RISE_TOL for earlier, later in zip(epochs, epochs[1:])):
        problems.append(f"epoch energies rose: {epochs}")
    if final < ground - GROUND_TOL:
        problems.append(f"final energy {final} below the ED energy {ground}")
    if not 0.0 <= fidelity <= 1.0 + FIDELITY_TOL:
        problems.append(f"fidelity {fidelity} outside [0, 1]")
    if reference is not None and outcome["energy_error"] > reference + REFERENCE_TOL:
        problems.append(f"energy error {outcome['energy_error']} worse than the "
                        f"reference {reference}")
    return problems


def check_ed(outcome: dict, run_dir: Path, reference) -> list[str]:
    """The two registers agree on energy and degeneracy (criteria 3 and 4)."""
    try:
        with open(run_dir / "ed.csv", newline="") as handle:
            rows = {row["register"]: (float(row["energy"]), int(row["degeneracy"]))
                    for row in csv.DictReader(handle)}
        (e_k, d_k), (e_real, d_real) = rows["k"], rows["real"]
    except (OSError, ValueError, KeyError) as err:
        return [f"unreadable ED table: {err!r}"]
    problems = []
    if outcome["exit_code"] != 0:
        problems.append(f"exit code {outcome['exit_code']}")
    if abs(e_k - e_real) > REGISTER_TOL or d_k != d_real:
        problems.append(f"registers disagree: k {e_k} x{d_k}, real {e_real} x{d_real}")
    if reference is not None:
        energy, degeneracy = reference
        if abs(e_k - energy) > ED_REFERENCE_TOL or d_k != degeneracy:
            problems.append(f"ED gives {e_k} x{d_k}, reference {energy} x{degeneracy}")
    outcome["ed"] = rows
    return problems


def check(outcome: dict, run_dir: Path, workload: str, u: float, tiny: bool) -> list[str]:
    if "crashed" in outcome:
        return [outcome["crashed"]]
    reference = None if tiny else REFERENCE.get((workload, u))
    settings = WORKLOADS[workload]["settings"]
    if settings is None:
        return check_ed(outcome, run_dir, reference)
    return check_ansatz(outcome, run_dir, settings["ansatz"], reference)


# -------------------------------------------------------------- provenance ---

def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            facts[f"{name}_per_instance"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


# ----------------------------------------------------------------- report ---

def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as (p, value)."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def at_reference_speed(seconds: float, outcome: dict) -> float:
    """A step's time scaled to the machine speed at which the probe takes
    PROBE_REFERENCE_S, using the probe runs around that step."""
    return seconds * PROBE_REFERENCE_S / outcome["probe_s"]


def summary(samples) -> dict:
    tail = tail_percentile(samples)
    return {"median": statistics.median(samples), "n": len(samples), "samples": samples,
            "tail_percentile": None if tail is None else {"p": tail[0], "value": tail[1]}}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    couplings = WORKLOADS[workload]["couplings"]
    u = couplings[seed % len(couplings)]
    work = plan(workload, u, tiny)
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    def set_up(label, where):
        for leftover in ("cache", "fill"):
            shutil.rmtree(where / leftover, ignore_errors=True)
        where.mkdir(exist_ok=True)
        start = time.perf_counter()
        outcome = step(where, label, work["files"], work["fill"], where != run_dir, deadline)
        elapsed = time.perf_counter() - start
        if "crashed" in outcome or outcome["exit_code"] not in (None, 0, 2):
            raise BenchError(f"set-up failed: {outcome.get('crashed', outcome.get('exit_code'))}")
        return elapsed - outcome["probe_total_s"], outcome

    def repeat(label, traced):
        shutil.rmtree(run_dir / "out", ignore_errors=True)
        (run_dir / "ed.csv").unlink(missing_ok=True)
        outcome = step(run_dir, label, {}, work["argv"], traced, deadline)
        outcome["problems"] = check(outcome, run_dir, workload, u, tiny)
        return outcome

    setups = [set_up(f"setup{i}", run_dir) for i in range(SETUPS)]
    timed = []
    start = time.monotonic()
    while len(timed) < MIN_REPS or time.monotonic() - start < seconds:
        timed.append(repeat(f"rep{len(timed)}", False))
    reps = list(timed)
    if trace:
        # eigsh starts from a random vector, so a fresh cache may differ in the
        # last digits; the traced set-up fills its own, and the traced
        # repetition reuses the cache the timed repetitions read
        _, traced_setup = set_up("setup", run_dir / "traced-setup")
        traced = repeat("rep-traced", True)
        reps.append(traced)

    first = next((rep["digest"] for rep in reps if "digest" in rep), None)
    for rep in reps:
        if rep.get("digest", first) != first:
            rep["problems"].append("artifacts differ from the first repetition")
    timed = [rep for rep in timed if "crashed" not in rep]
    if not timed:
        raise BenchError("no repetition ran: " + "; ".join(reps[0]["problems"]))
    failed = sum(1 for rep in reps if rep["problems"])
    raw_walls = [rep["wall_s"] for rep in timed]
    raw_setups = [elapsed for elapsed, _ in setups]
    walls = [at_reference_speed(rep["wall_s"], rep) for rep in timed]
    setup_times = [at_reference_speed(elapsed, outcome) for elapsed, outcome in setups]
    result = {
        "workload": workload, "seed": seed, "u": u, "seconds": seconds, "trace": trace,
        "tiny": tiny, "plan": work, "attempted": len(reps), "failed": failed,
        "failed_frac": failed / len(reps),
        "problems": {f"rep{i}": rep["problems"] for i, rep in enumerate(reps) if rep["problems"]},
        "end_to_end": {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in timed), "MiB"),
        },
        "wall_s": summary(walls),
        "setup_s": summary(setup_times),
        "raw_wall_s": summary(raw_walls),
        "raw_setup_s": summary(raw_setups),
        "probe_s": [rep["probe_s"] for rep in timed],
        "provenance": {"git_revision": git_revision(), "seed": seed,
                       "versions": timed[0]["versions"], "threads": timed[0]["threads"],
                       **cpu_facts()},
    }
    for key in ("energy_error", "fidelity", "ed"):
        if key in timed[0]:
            result[key] = timed[0][key]
    if trace:
        if "trace" not in traced:
            raise BenchError("traced repetition failed: " + "; ".join(traced["problems"]))
        layers = tracing.layer_metrics(traced["trace"])
        layers["setup.cache_misses"] = (
            sum(1 for span in traced_setup["trace"]["spans"] if span[0] == "cli.cache_save"),
            "count")
        # span times and trace.wall_s are as measured, so shares of the traced
        # repetition add up; the overhead compares speed-scaled times
        layers["trace.wall_s"] = (traced["wall_s"], "s")
        layers["trace.overhead_s"] = (
            at_reference_speed(traced["wall_s"], traced) - statistics.median(walls), "s")
        result["per_layer"] = layers
        result["missing_hooks"] = traced["trace"]["missing"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="2x2 ansatz and 2x3 ED grids, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "vipsa" / "cli.py").is_file():
        print(f"error: no vipsa sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{'_tiny' if args.tiny else ''}"
    results_path = WORK / f"{name}.json"
    results_path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed} (U={result['u']:g}): "
          f"{result['attempted']} repetitions, {result['failed']} failed; "
          f"results in {results_path.relative_to(ROOT)}")
    for label, problems in result["problems"].items():
        print(f"  failed {label}: {'; '.join(problems)}")
    reported = dict(result["end_to_end"])
    reported["failed_frac"] = (result["failed_frac"], "ratio")
    for key in ("energy_error", "fidelity"):
        if key in result:
            reported[key] = (result[key], "t" if key == "energy_error" else "ratio")
    for metric, (value, unit) in {**reported, **result.get("per_layer", {})}.items():
        print(f"  {metric} = {value:.6g} {unit}")
    for key in ("raw_wall_s", "raw_setup_s"):
        print(f"  {key} = {result[key]['median']:.6g} s (as measured, before speed scaling)")
    for key in ("wall_s", "setup_s"):
        tail = result[key]["tail_percentile"]
        print(f"  {key}: median of {result[key]['n']} samples; "
              + ("no percentile has ten samples beyond it" if tail is None
                 else f"p{tail['p']:.0f} = {tail['value']:.6g} s"))

    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
