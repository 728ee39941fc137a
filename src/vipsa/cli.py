"""Command-line front door: run, ed, compare, pool-info.

Library functions are imported inside the command that calls them, so each
call looks its function up at call time, where a hook that
benchmarks/tracing.py sets on the defining module sees it.  Config files are
plain ``key = value`` text; every value is checked by the library call that
uses it before any computation starts, and nothing is written on a config
error.
"""

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import cache
from .core import VipsaConfig
from .lattice import GridSpec


class CliError(Exception):
    """User-facing failure; rendered as one line on stderr, exit code 1."""


@contextmanager
def library_checks(origin: str | None = None):
    """Report the ValueError a library call raises on bad input as one
    CliError line, prefixed with its origin if given."""
    try:
        yield
    except ValueError as err:
        raise CliError(f"{origin}: {err}" if origin else str(err)) from None


# ---------------------------------------------------------------- config ---

def _parse_boundary(text: str) -> str | None:
    # None picks the axis's default boundary; GridSpec checks any other name
    return None if text == "auto" else text


def _parse_ansatz(text: str) -> str:
    if text not in ("vipsa", "hva"):
        raise ValueError("expected vipsa or hva")
    return text


def _parse_switch(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError("expected on or off")


def _parse_path(text: str) -> str:
    if not text:
        raise ValueError("expected a path")
    return text


CONFIG_SCHEMA = {
    "nx": int,
    "ny": int,
    "bc_x": _parse_boundary,
    "bc_y": _parse_boundary,
    "t": float,
    "u": float,
    "n_up": int,
    "n_down": int,
    "ansatz": _parse_ansatz,
    "layers": int,
    **{field.name: field.type for field in fields(VipsaConfig)},
    "output": _parse_path,
    "cache": _parse_switch,
    "cache_dir": _parse_path,
}

def parse_config_text(text: str, origin: str) -> dict:
    """Parse ``key = value`` lines; comments start with '#'."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{origin}:{lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_SCHEMA:
            raise CliError(f"{origin}:{lineno}: unknown key '{key}'")
        if key in values:
            raise CliError(f"{origin}:{lineno}: duplicate key '{key}'")
        try:
            values[key] = CONFIG_SCHEMA[key](value)
        except ValueError as err:
            raise CliError(f"{origin}:{lineno}: bad value for {key}: {err}") from None
    return values


@dataclass(frozen=True)
class Experiment:
    """A run request, resolved into the library objects that carry it out."""

    ansatz: str
    grid: GridSpec
    sector: tuple[int, int]
    config: VipsaConfig
    layers: int | None  # None for the adaptive ansatz, which has no layers
    output: Path
    cache_dir: Path | None

    @classmethod
    def from_file(cls, path: str) -> "Experiment":
        """Parse a config file and resolve every value through the library
        call that owns its rule, so a bad value fails here, before any
        output is written.  Only rules about the file itself are checked
        by the CLI."""
        from .hva import build_layout
        from .lattice import default_filling
        from .statevector import sector_basis

        values = parse_config_text(Path(path).read_text(), path)
        for key in ("nx", "ny"):
            if key not in values:
                raise CliError(f"{path}: missing required key '{key}'")
        if ("n_up" in values) != ("n_down" in values):
            raise CliError(f"{path}: set both n_up and n_down or neither")

        def given(*keys):  # unset keys take the library's defaults
            return {key: values[key] for key in keys if key in values}

        ansatz = values.get("ansatz", "vipsa")
        with library_checks(path):
            grid = GridSpec.make(values["nx"], values["ny"], **given("t", "u", "bc_x", "bc_y"))
            sector = ((values["n_up"], values["n_down"]) if "n_up" in values
                      else default_filling(grid))
            sector_basis(grid.n_qubits, *sector)
            layers = build_layout(grid, **given("layers")).layers if ansatz == "hva" else None
            config = VipsaConfig(**given(*(field.name for field in fields(VipsaConfig))))
        output = values.get("output", f"runs/{ansatz}-{grid.nx}x{grid.ny}-u{grid.u:g}")
        cache_dir = Path(values.get("cache_dir", "vipsa-cache")) if values.get("cache", True) else None
        return cls(ansatz, grid, sector, config, layers, Path(output), cache_dir)


# ------------------------------------------------------------------ cache ---

def _grid_key(grid, n_up: int, n_down: int, artifact: str) -> str:
    return (f"{artifact} {grid.nx} {grid.ny} {grid.bc_x} {grid.bc_y} "
            f"{grid.t!r} {grid.u!r} {n_up} {n_down}")


def solve_ground_space(grid, n_up: int, n_down: int, register: str, keep_block_of=None):
    """The ground space in the requested register, solved one point-group
    class at a time: the mode register on its total-momentum blocks, the
    site register on its lattice-momentum blocks.  Given keep_block_of, the
    mode register keeps the matrix of that bitstring's block and the site
    register its whole sector's (see ground_space)."""
    from .hamiltonians import build_kspace, build_real, ground_space
    from .lattice import point_group, translations

    h, symmetry = ((build_kspace(grid)[0], point_group(grid)) if register == "k"
                   else (build_real(grid), translations(grid)))
    with library_checks():
        return ground_space(h, grid.n_qubits, n_up, n_down, symmetry, keep_block_of)


def cached_ground_space(grid, n_up: int, n_down: int, sea_label, cache_dir: Path | None):
    """A run's ground space, with the matrix its H comes from, reusing an
    on-disk artifact.  sea_label is the Fermi sea's momentum label for the
    mode register, whose space keeps the matrix and rows of the sea's block,
    as every state of an adaptive run lives there; None picks the site
    register, whose space keeps its whole sector, which holds the sea's
    bitstring as it holds every other.

    The file stores its cache key, which names the kept block, that matrix
    and its rows, so a hit needs no Hamiltonian build; a file of another
    sector is rebuilt (see cache.cached).  cache_dir must exist; with None
    the space is solved and nothing is read or written.
    """
    from .hamiltonians import GroundSpace
    from .lattice import fermi_sea

    register = "real" if sea_label is None else "k"
    sea = fermi_sea(grid, n_up, n_down).bitstring()
    if cache_dir is None:
        return solve_ground_space(grid, n_up, n_down, register, sea)
    # a site-register file holds the momentum-block solve's vectors, which
    # may be complex, so its key differs from a whole-sector solve's
    artifact = ("real solved on momentum blocks" if sea_label is None
                else f"k solved on block {sea_label}")
    return cache.cached(cache_dir, f"ground-{register}-{grid.label()}",
                        _grid_key(grid, n_up, n_down, artifact), GroundSpace,
                        lambda: solve_ground_space(grid, n_up, n_down, register, sea),
                        lambda space: (space.n_qubits, space.n_up, space.n_down)
                        == (grid.n_qubits, n_up, n_down))


def cached_pool_tables(grid, n_up: int, n_down: int, block, cache_dir: Path):
    """The adaptive pool's orbit tables over the Fermi sea's momentum block,
    given as (label, bitstrings), reusing an on-disk artifact (see cache.cached)
    whose key names the block; tables over other bitstrings are rebuilt,
    and a block the pool leaves is one error line.  cache_dir must exist."""
    from .core import PoolTables

    label, states = block
    with library_checks(f"the block that the ground file in {cache_dir} keeps"):
        return cache.cached(cache_dir, f"pool-{grid.label()}",
                            _grid_key(grid, n_up, n_down, f"pool on block {label}"), PoolTables,
                            lambda: PoolTables.build(grid, states),
                            lambda tables: tables.states.tobytes() == states.tobytes())


# ------------------------------------------------------------------- run ---

def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_run(directory: Path, artifacts: dict) -> None:
    """Write each artifact, name -> (columns, rows) of a CSV or the text of
    a file, next to its final name, then rename them into place in order,
    the manifest last, so a failed write leaves the directory as it was."""
    partial = {name: directory / f"{name}.{os.getpid()}.tmp" for name in artifacts}
    try:
        for name, content in artifacts.items():
            if isinstance(content, str):
                partial[name].write_text(content)
            else:
                _write_csv(partial[name], *content)
        for name in artifacts:
            os.replace(partial[name], directory / name)
    except BaseException:
        for path in partial.values():
            path.unlink(missing_ok=True)
        raise


def _format(value):
    # numpy scalars subclass float but carry a noisy repr
    if isinstance(value, float):
        return repr(float(value))
    return value


def cmd_run(args) -> int:
    run = Experiment.from_file(args.config)
    from .core import EPOCH_CSV_COLUMNS, epoch_csv_row, vipsa_run
    from .hva import hva_run
    from .lattice import fermi_sea, label_momenta, momentum_labels

    # a directory that cannot be made, or an artifact name taken by anything
    # but a file, fails here, before any Hamiltonian is built
    for directory in filter(None, (run.cache_dir, run.output)):
        directory.mkdir(parents=True, exist_ok=True)
    for artifact in (run.output / name for name in ("trace.csv", "steps.csv", "manifest.json")):
        if artifact.exists() and not artifact.is_file():
            raise OSError(f"{artifact} is not a file, so no run artifact can be written there")

    grid, (n_up, n_down) = run.grid, run.sector
    # the Fermi sea's block, named once by the sea's label: the ground file
    # keeps its matrix and rows, the pool file its bitstrings
    sea_label = (int(momentum_labels(grid, fermi_sea(grid, n_up, n_down).bitstring()))
                 if run.ansatz == "vipsa" else None)
    ground = cached_ground_space(grid, n_up, n_down, sea_label, run.cache_dir)
    print(f"{run.ansatz} on {grid.label()} "
          f"(U={grid.u:g}, t={grid.t:g}, sector ({n_up},{n_down})), "
          f"ED energy {ground.energy:.8f}")

    if run.ansatz == "vipsa":
        blocks = {"reference_block": label_momenta(grid, sea_label),
                  "ground_blocks": [label_momenta(grid, block) for block in ground.blocks],
                  "sector_states": len(ground.states), "block_states": len(ground.matrix_rows)}
        if sea_label not in ground.blocks:
            print(f"warning: the Fermi sea lies in momentum block {blocks['reference_block']}, "
                  "which holds no ground state (the ground space lies in "
                  f"{', '.join(map(str, blocks['ground_blocks']))}), so the run cannot reach it",
                  file=sys.stderr)
        pool = (cached_pool_tables(grid, n_up, n_down,
                                   (sea_label, ground.states[ground.matrix_rows]), run.cache_dir)
                if run.cache_dir else None)
        result = vipsa_run(grid, n_up, n_down, run.config, reference=ground, pool=pool,
                           progress=lambda r: print(
                               f"  epoch {r.epoch}: E={r.energy:.8f} "
                               f"fid={r.fidelity:.4f} max|g|={r.max_gradient:.2e} "
                               f"selected {r.n_selected}"))
        manifest_extra = {"pool_size": result.pool_size, **blocks}
        if result.status == "empty-pool":
            print("  empty pool: no off-diagonal scattering move has four distinct orbitals "
                  "and a nonzero kinetic gap, so no rotation can leave the Fermi sea")
    else:
        result = hva_run(grid, n_up, n_down, run.config, layers=run.layers, reference=ground)
        manifest_extra = {"layers": run.layers}
        print(f"  {len(result.records) - 1} steps: E={result.final_energy:.8f} "
              f"fid={result.final_fidelity:.4f}")

    trace_rows = [[_format(v) for v in epoch_csv_row(r)] for r in result.records]
    step_rows = [[epoch, step, _format(energy)] for epoch, step, energy in result.step_energies]
    manifest = {
        "ansatz": run.ansatz,
        "grid": {"nx": grid.nx, "ny": grid.ny, "bc_x": grid.bc_x,
                 "bc_y": grid.bc_y, "t": grid.t, "u": grid.u},
        "sector": {"n_up": n_up, "n_down": n_down},
        "optimizer": asdict(run.config),
        "status": result.status,
        "final_energy": float(result.final_energy),
        "final_fidelity": float(result.final_fidelity),
        "ground_energy": float(ground.energy),
        "ground_degeneracy": ground.degeneracy,
        "rows": {"trace": len(trace_rows), "steps": len(step_rows)},
        **manifest_extra,
        "n_params": result.records[-1].n_params,
    }
    _write_run(run.output, {"trace.csv": (EPOCH_CSV_COLUMNS, trace_rows),
                            "steps.csv": (("epoch", "step", "energy"), step_rows),
                            "manifest.json": json.dumps(manifest, indent=2) + "\n"})
    print(f"status {result.status}; artifacts in {run.output}")
    return 0 if result.status == "converged" else 2


# -------------------------------------------------------------------- ed ---

# Largest ground-energy gap between the two registers that `vipsa ed` accepts
# silently: the tolerance the acceptance criterion on register spectra holds.
REGISTER_AGREEMENT_TOL = 1e-9


def _parse_grid_arg(text: str) -> tuple[int, int]:
    try:
        nx, _, ny = text.partition("x")
        return int(nx), int(ny)
    except ValueError:
        raise CliError(f"bad grid '{text}', expected NXxNY like 2x3") from None


def _parse_u_list(text: str) -> list[float]:
    try:
        couplings = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        couplings = []
    if not couplings:
        raise CliError(f"bad coupling list '{text}', expected e.g. 2,4,6")
    return couplings


def _parse_sector_arg(text: str) -> tuple[int, int]:
    try:
        n_up, _, n_down = text.partition(",")
        return int(n_up), int(n_down)
    except ValueError:
        raise CliError(f"bad sector '{text}', expected N_UP,N_DOWN like 5,4") from None


def _ground_energy(grid, register: str, n_up: int, n_down: int) -> tuple[float, int]:
    """(energy, degeneracy) of one register's ground space, solved without
    keeping a matrix, so the mode register builds only its class blocks and
    the site register frees its sector matrix before solving its blocks.
    The space is freed on return, before the next one is built."""
    ground = solve_ground_space(grid, n_up, n_down, register)
    return ground.energy, ground.degeneracy


def cmd_ed(args) -> int:
    from .lattice import default_filling
    from .statevector import sector_basis

    nx, ny = _parse_grid_arg(args.grid)
    couplings = _parse_u_list(args.u)
    registers = ("k", "real") if args.register == "both" else (args.register,)
    # every grid and the sector are checked before any Hamiltonian is built;
    # the sector depends only on the grid's shape, not on its coupling
    with library_checks():
        grids = [GridSpec.make(nx, ny, t=args.t, u=u) for u in couplings]
        n_up, n_down = _parse_sector_arg(args.sector) if args.sector else default_filling(grids[0])
        sector_basis(grids[0].n_qubits, n_up, n_down)
    header = ("grid", "u", "n_up", "n_down", "register", "energy", "degeneracy")
    if args.csv:
        # an unwritable path fails here, before any Hamiltonian is built; the
        # header alone stands in until the rows are known
        _write_csv(Path(args.csv), header, [])
    rows = [[f"{nx}x{ny}", grid.u, n_up, n_down, register,
             *_ground_energy(grid, register, n_up, n_down)]
            for grid in grids for register in registers]

    widths = [6, 8, 5, 7, 9, 16, 11]
    print("".join(name.rjust(w) for name, w in zip(header, widths)))
    for row in rows:
        cells = [str(row[0]), f"{row[1]:g}", str(row[2]), str(row[3]), row[4],
                 f"{row[5]:.8f}", str(row[6])]
        print("".join(cell.rjust(w) for cell, w in zip(cells, widths)))
    if len(registers) == 2:
        for k_row, real_row in zip(rows[::2], rows[1::2]):
            gap = abs(k_row[5] - real_row[5])
            if gap > REGISTER_AGREEMENT_TOL or k_row[6] != real_row[6]:
                print(f"warning: registers disagree on {nx}x{ny} at U={k_row[1]:g}: energies "
                      f"{gap:.1e} apart, degeneracy {k_row[6]} (k) against {real_row[6]} (real)",
                      file=sys.stderr)
    if args.csv:
        _write_csv(Path(args.csv), header,
                   [[r[0], _format(r[1]), r[2], r[3], r[4], _format(r[5]), r[6]]
                    for r in rows])
    return 0


# --------------------------------------------------------------- compare ---

def _load_run(directory: str) -> dict:
    """The parts of one run's artifacts that compare uses; a file that is
    not what `vipsa run` writes is a CliError."""
    path = Path(directory)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
        with open(path / "steps.csv", newline="") as handle:
            steps = list(csv.DictReader(handle))
        with open(path / "trace.csv", newline="") as handle:
            trace = list(csv.DictReader(handle))
        run = {"name": path.name,
               "grid": json.dumps(manifest["grid"], sort_keys=True),
               "sector": json.dumps(manifest["sector"], sort_keys=True),
               "reference": float(manifest["ground_energy"]),
               "energies": [float(row["energy"]) for row in steps],
               "fidelities": _fidelity_by_step(manifest["ansatz"], steps, trace)}
    except (ValueError, KeyError, TypeError, csv.Error) as err:
        detail = f"missing field {err}" if isinstance(err, KeyError) else str(err)
        raise CliError(f"damaged run artifact in {path}: {detail}") from None
    if not run["energies"]:
        raise CliError(f"damaged run artifact in {path}: steps.csv has no rows")
    return run


def _fidelity_by_step(ansatz: str, steps: list[dict], trace: list[dict]) -> dict[int, float]:
    """Map global optimizer-step index to the fidelity known at that step."""
    if ansatz == "hva":
        return {i: float(row["fidelity"]) for i, row in enumerate(trace)}
    # one fidelity per epoch, attached to the last step of that epoch
    counts = {}
    for i, row in enumerate(steps):
        counts[row["epoch"]] = i
    return {counts[row["epoch"]]: float(row["fidelity"])
            for row in trace if row["epoch"] in counts}


def cmd_compare(args) -> int:
    runs = [_load_run(d) for d in args.runs]
    if len({run["grid"] for run in runs}) > 1:
        raise CliError("runs use different grids; comparison is meaningless")
    if len({run["sector"] for run in runs}) > 1:
        raise CliError("runs use different fillings; comparison is meaningless")

    for run in runs:
        run["errors"] = [e - run["reference"] for e in run["energies"]]
        run["hit"] = next((i for i, err in enumerate(run["errors"]) if err <= args.threshold),
                          None)

    for run in runs:
        hit = "never" if run["hit"] is None else str(run["hit"])
        print(f"{run['name']}: {len(run['energies'])} steps, "
              f"final error {run['errors'][-1]:.6f}, "
              f"steps to error<={args.threshold:g}: {hit}")

    columns = ["step"]
    for run in runs:
        columns += [f"{run['name']}/energy", f"{run['name']}/error",
                    f"{run['name']}/fidelity"]
    table = []
    for step in range(max(len(run["energies"]) for run in runs)):
        row = [step]
        for run in runs:
            if step < len(run["energies"]):
                row += [_format(run["energies"][step]), _format(run["errors"][step]),
                        _format(run["fidelities"][step]) if step in run["fidelities"]
                        else ""]
            else:
                row += ["", "", ""]
        table.append(row)
    if args.csv:
        _write_csv(Path(args.csv), columns, table)
        print(f"wrote {len(table)} rows to {args.csv}")
    else:
        print(",".join(columns))
        for row in table:
            print(",".join(str(cell) for cell in row))
    return 0


# ------------------------------------------------------------- pool-info ---

def cmd_pool_info(args) -> int:
    from collections import Counter

    from .core import build_pool, pool_class
    from .hamiltonians import interaction_quadruples

    nx, ny = _parse_grid_arg(args.grid)
    with library_checks():
        grid = GridSpec.make(nx, ny, t=args.t, u=args.u)
    table = interaction_quadruples(grid)
    counts = Counter(pool_class(q) for q in table)
    print(f"grid {grid.label()} ({grid.bc_x} x {grid.bc_y}), U={grid.u:g}")
    print(f"  interaction table entries: {len(table)}")
    print(f"  excluded diagonal:         {counts['diagonal']}")
    print(f"  excluded one-sided:        {counts['one-sided']}")
    print(f"  excluded zero-gap:         {counts['zero-gap']}")
    print(f"  conjugate duplicates:      {counts['pool'] // 2}")
    print(f"  pool size:                 {len(build_pool(grid))}")
    return 0


# ------------------------------------------------------------------ main ---

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error exits 1 like any other user error, not argparse's 2
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vipsa",
        description="Adaptive S-matrix ansatz experiments on small Hubbard grids.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one experiment from a config file")
    run.add_argument("config", help="path to a key = value config file")
    run.set_defaults(func=cmd_run)

    ed = commands.add_parser("ed", help="exact ground energies and degeneracies")
    ed.add_argument("--grid", required=True, help="grid size, e.g. 2x3")
    ed.add_argument("--u", required=True, help="comma-separated couplings, e.g. 2,4,6")
    ed.add_argument("--t", type=float, default=1.0, help="hopping amplitude")
    ed.add_argument("--sector", help="filling as N_UP,N_DOWN (default: half filling)")
    ed.add_argument("--register", choices=("k", "real", "both"), default="k")
    ed.add_argument("--csv", help="also write the table to this CSV file")
    ed.set_defaults(func=cmd_ed)

    compare = commands.add_parser("compare", help="merge run artifacts into one table")
    compare.add_argument("runs", nargs="+", help="run output directories")
    compare.add_argument("--threshold", type=float, default=0.1,
                         help="energy-error level for the steps-to-reach summary")
    compare.add_argument("--csv", help="write the merged table to this CSV file")
    compare.set_defaults(func=cmd_compare)

    pool = commands.add_parser("pool-info", help="pool size and exclusion counts")
    pool.add_argument("--grid", required=True, help="grid size, e.g. 2x3")
    pool.add_argument("--u", type=float, default=1.0, help="coupling (counts need U != 0)")
    pool.add_argument("--t", type=float, default=1.0, help="hopping amplitude")
    pool.set_defaults(func=cmd_pool_info)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (e.g. piping a table into head); point the
        # descriptor at devnull so the interpreter's exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as err:
        # a file the command cannot read or write; the error's text names it
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
