"""Command-line front door: run, ed, compare, pool-info.

Only the standard library is imported at module scope so that the thread-count
environment variable (read in the package __init__) takes effect before numpy
loads.  Config files are plain ``key = value`` text; every key is validated
before any computation starts, and nothing is written on a config error.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path


class CliError(Exception):
    """User-facing failure; rendered as one line on stderr, exit code 1."""


# ---------------------------------------------------------------- config ---

def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_boundary(text: str) -> str:
    if text not in ("open", "periodic", "auto"):
        raise ValueError("expected open, periodic, or auto")
    return text


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
    "nx": _parse_int,
    "ny": _parse_int,
    "bc_x": _parse_boundary,
    "bc_y": _parse_boundary,
    "t": _parse_float,
    "u": _parse_float,
    "n_up": _parse_int,
    "n_down": _parse_int,
    "ansatz": _parse_ansatz,
    "layers": _parse_int,
    "r": _parse_float,
    "eps1": _parse_float,
    "eps2": _parse_float,
    "lr": _parse_float,
    "beta1": _parse_float,
    "beta2": _parse_float,
    "stabilizer": _parse_float,
    "max_epochs": _parse_int,
    "max_inner_steps": _parse_int,
    "convergence_window": _parse_int,
    "output": _parse_path,
    "cache": _parse_switch,
    "cache_dir": _parse_path,
}

OPTIMIZER_KEYS = ("r", "eps1", "eps2", "lr", "beta1", "beta2", "stabilizer",
                  "max_epochs", "max_inner_steps", "convergence_window")


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


def make_grid(nx: int, ny: int, **couplings):
    """GridSpec.make, with the grids it rejects reported as a CliError."""
    from .lattice import GridSpec
    try:
        return GridSpec.make(nx, ny, **couplings)
    except ValueError as err:
        raise CliError(str(err)) from None


@dataclass
class Experiment:
    """A fully validated run request with every default resolved."""

    nx: int
    ny: int
    bc_x: str = "auto"
    bc_y: str = "auto"
    t: float = 1.0
    u: float = 0.0
    n_up: int | None = None
    n_down: int | None = None
    ansatz: str = "vipsa"
    layers: int = 10
    optimizer: dict = field(default_factory=dict)
    output: str | None = None
    cache: bool = True
    cache_dir: str = "vipsa-cache"

    @classmethod
    def from_file(cls, path: str) -> "Experiment":
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise CliError(f"cannot read config: {err}") from None
        values = parse_config_text(text, path)
        for key in ("nx", "ny"):
            if key not in values:
                raise CliError(f"{path}: missing required key '{key}'")
        optimizer = {key: values.pop(key) for key in OPTIMIZER_KEYS if key in values}
        experiment = cls(optimizer=optimizer, **values)
        experiment.validate(path)
        return experiment

    def validate(self, origin: str) -> None:
        try:
            self.grid()
        except CliError as err:
            raise CliError(f"{origin}: {err}") from None
        if (self.n_up is None) != (self.n_down is None):
            raise CliError(f"{origin}: set both n_up and n_down or neither")
        sites = self.nx * self.ny
        for name in ("n_up", "n_down"):
            count = getattr(self, name)
            if count is not None and not 0 <= count <= sites:
                raise CliError(f"{origin}: {name}={count} does not fit {sites} sites")
        if self.layers < 1:
            raise CliError(f"{origin}: layers must be at least 1")

    def grid(self):
        return make_grid(
            self.nx, self.ny, t=self.t, u=self.u,
            bc_x=None if self.bc_x == "auto" else self.bc_x,
            bc_y=None if self.bc_y == "auto" else self.bc_y,
        )

    def filling(self, grid) -> tuple[int, int]:
        if self.n_up is not None:
            return self.n_up, self.n_down
        from .lattice import default_filling
        return default_filling(grid)

    def vipsa_config(self):
        from .core import VipsaConfig
        try:
            return VipsaConfig(**self.optimizer)
        except ValueError as err:
            raise CliError(f"bad optimizer setting: {err}") from None

    def output_dir(self) -> Path:
        if self.output is not None:
            return Path(self.output)
        return Path("runs") / f"{self.ansatz}-{self.nx}x{self.ny}-u{self.u:g}"


# ------------------------------------------------------- ground-space cache

def _grid_key(grid, n_up: int, n_down: int, register: str) -> str:
    return (f"{register} {grid.nx} {grid.ny} {grid.bc_x} {grid.bc_y} "
            f"{grid.t!r} {grid.u!r} {n_up} {n_down}")


# what np.load raises on a truncated or otherwise damaged .npz, and
# GroundSpace.load on one saved under another key or without a sector matrix
UNREADABLE_CACHE = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error)


def cached_ground_space(grid, n_up: int, n_down: int, register: str,
                        cache_dir: Path | None):
    """Diagonalize in the requested register, reusing an on-disk artifact.

    The file stores its cache key and the sector Hamiltonian, so a hit needs
    no Hamiltonian build.  One that cannot be read (an older format without
    the sector matrix included) or holds another key is rebuilt and
    replaced; a new file is written next to its final name and renamed into
    place, so a crash mid-write leaves no partial file there.  With no
    cache_dir the space is solved and nothing is read or written.
    """
    from .hamiltonians import GroundSpace, build_kspace, build_real, ground_space

    def solve():
        h = build_kspace(grid)[0] if register == "k" else build_real(grid)
        return ground_space(h, grid.n_qubits, n_up, n_down)

    if cache_dir is None:
        return solve()

    key = _grid_key(grid, n_up, n_down, register)
    digest = hashlib.sha256(key.encode()).hexdigest()
    path = cache_dir / f"ground-{register}-{grid.label()}-{digest[:12]}.npz"
    if path.exists():
        try:
            return GroundSpace.load(path, key)
        except UNREADABLE_CACHE:
            pass
    result = solve()
    cache_dir.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as handle:
            result.save(handle, key)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return result


# ------------------------------------------------------------------- run ---

def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _format(value):
    # numpy scalars subclass float but carry a noisy repr
    if isinstance(value, float):
        return repr(float(value))
    return value


def cmd_run(args) -> int:
    experiment = Experiment.from_file(args.config)
    from .core import EPOCH_CSV_COLUMNS, epoch_csv_row, vipsa_run
    from .hva import hva_run

    grid = experiment.grid()
    n_up, n_down = experiment.filling(grid)
    config = experiment.vipsa_config()
    cache_dir = Path(experiment.cache_dir) if experiment.cache else None
    register = "k" if experiment.ansatz == "vipsa" else "real"
    ground = cached_ground_space(grid, n_up, n_down, register, cache_dir)

    out = experiment.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    print(f"{experiment.ansatz} on {grid.label()} "
          f"(U={grid.u:g}, t={grid.t:g}, sector ({n_up},{n_down})), "
          f"ED energy {ground.energy:.8f}")

    if experiment.ansatz == "vipsa":
        result = vipsa_run(grid, n_up, n_down, config, reference=ground,
                           progress=lambda r: print(
                               f"  epoch {r.epoch}: E={r.energy:.8f} "
                               f"fid={r.fidelity:.4f} max|g|={r.max_gradient:.2e} "
                               f"selected {r.n_selected}"))
        trace_rows = [[_format(v) for v in epoch_csv_row(r)] for r in result.records]
        step_rows = [[epoch, step, _format(energy)]
                     for epoch, step, energy in result.step_energies]
        manifest_extra = {"pool_size": result.pool_size, "n_params": len(result.gates)}
        if result.status == "empty-pool":
            print("  empty pool: no off-diagonal scattering move has four distinct orbitals "
                  "and a nonzero kinetic gap, so no rotation can leave the Fermi sea")
    else:
        result = hva_run(grid, n_up, n_down, config, layers=experiment.layers,
                         reference=ground)
        trace_rows = [[r.step, _format(r.max_gradient), 0,
                       result.layout.n_params, 1, _format(r.energy), _format(r.fidelity)]
                      for r in result.records]
        step_rows = [[0, r.step, _format(r.energy)] for r in result.records]
        manifest_extra = {"layers": experiment.layers,
                          "n_params": result.layout.n_params}
        print(f"  {len(result.records) - 1} steps: E={result.final_energy:.8f} "
              f"fid={result.final_fidelity:.4f}")

    _write_csv(out / "trace.csv", EPOCH_CSV_COLUMNS, trace_rows)
    _write_csv(out / "steps.csv", ("epoch", "step", "energy"), step_rows)
    manifest = {
        "ansatz": experiment.ansatz,
        "grid": {"nx": grid.nx, "ny": grid.ny, "bc_x": grid.bc_x,
                 "bc_y": grid.bc_y, "t": grid.t, "u": grid.u},
        "sector": {"n_up": n_up, "n_down": n_down},
        "optimizer": {key: getattr(config, key) for key in OPTIMIZER_KEYS},
        "status": result.status,
        "final_energy": float(result.final_energy),
        "final_fidelity": float(result.final_fidelity),
        "ground_energy": float(ground.energy),
        "ground_degeneracy": ground.degeneracy,
        "rows": {"trace": len(trace_rows), "steps": len(step_rows)},
        **manifest_extra,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"status {result.status}; artifacts in {out}")
    return 0 if result.status == "converged" else 2


# -------------------------------------------------------------------- ed ---

def _parse_grid_arg(text: str) -> tuple[int, int]:
    try:
        nx, _, ny = text.partition("x")
        return int(nx), int(ny)
    except ValueError:
        raise CliError(f"bad grid '{text}', expected NXxNY like 2x3") from None


def _parse_u_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"bad coupling list '{text}', expected e.g. 2,4,6") from None


def _parse_sector_arg(text: str) -> tuple[int, int]:
    try:
        n_up, _, n_down = text.partition(",")
        return int(n_up), int(n_down)
    except ValueError:
        raise CliError(f"bad sector '{text}', expected N_UP,N_DOWN like 5,4") from None


def _ground_energy(grid, register: str, n_up: int, n_down: int) -> tuple[float, int]:
    """(energy, degeneracy) of one register's ground space.  The Hamiltonian
    and the space, sector matrix included, are freed on return, before the
    next register is built."""
    ground = cached_ground_space(grid, n_up, n_down, register, None)
    return ground.energy, ground.degeneracy


def cmd_ed(args) -> int:
    from .hamiltonians import sector_basis
    from .lattice import default_filling

    nx, ny = _parse_grid_arg(args.grid)
    registers = ("k", "real") if args.register == "both" else (args.register,)
    rows = []
    for u in _parse_u_list(args.u):
        grid = make_grid(nx, ny, t=args.t, u=u)
        if args.sector:
            n_up, n_down = _parse_sector_arg(args.sector)
            try:
                sector_basis(grid.n_qubits, n_up, n_down)
            except ValueError as err:
                raise CliError(str(err)) from None
        else:
            n_up, n_down = default_filling(grid)
        for register in registers:
            rows.append([f"{nx}x{ny}", u, n_up, n_down, register,
                         *_ground_energy(grid, register, n_up, n_down)])

    header = ("grid", "u", "n_up", "n_down", "register", "energy", "degeneracy")
    widths = [6, 8, 5, 7, 9, 16, 11]
    print("".join(name.rjust(w) for name, w in zip(header, widths)))
    for row in rows:
        cells = [str(row[0]), f"{row[1]:g}", str(row[2]), str(row[3]), row[4],
                 f"{row[5]:.8f}", str(row[6])]
        print("".join(cell.rjust(w) for cell, w in zip(cells, widths)))
    if args.csv:
        _write_csv(Path(args.csv), header,
                   [[r[0], _format(r[1]), r[2], r[3], r[4], _format(r[5]), r[6]]
                    for r in rows])
    return 0


# --------------------------------------------------------------- compare ---

def _load_run(directory: str) -> dict:
    """The parts of one run's artifacts that compare uses; a missing file is
    a CliError, and so is one that is not what `vipsa run` writes."""
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
    except OSError as err:
        raise CliError(f"cannot read run artifact: {err}") from None
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
    grid = make_grid(nx, ny, t=args.t, u=args.u)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
