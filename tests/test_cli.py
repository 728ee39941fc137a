"""Front-door behavior: config validation, artifacts, exit codes, tables."""

import csv
import json
import os
import subprocess
import sys
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.format import dtype_to_descr, write_array, write_array_header_1_0

from vipsa.cli import main
from vipsa.hamiltonians import _load_fields, _save_fields
from vipsa.lattice import GridSpec, fermi_sea


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


BASE = """
nx = 2
ny = 2
u = {u}
ansatz = {ansatz}
output = {output}
cache_dir = {cache}
"""


def run_config(tmp_path, name, **fields) -> tuple[int, Path]:
    fields.setdefault("cache", tmp_path / "cache")  # None switches the cache off
    fields.setdefault("output", tmp_path / name)
    extra = "".join(f"{k} = {v}\n" for k, v in fields.items()
                    if k not in ("u", "ansatz", "output", "cache"))
    if fields["cache"] is None:
        extra += "cache = off\n"
    text = BASE.format(u=fields.get("u", 4.0), ansatz=fields.get("ansatz", "vipsa"),
                       output=fields["output"], cache=fields["cache"] or tmp_path / "off") + extra
    config = write(tmp_path / f"{name}.cfg", text)
    return main(["run", str(config)]), Path(fields["output"])


def test_run_without_coupling_exits_clean(tmp_path, capsys):
    code, out = run_config(tmp_path, "free", u=0.0)
    assert code == 0
    trace = read_csv(out / "trace.csv")
    assert len(trace) == 1
    assert float(trace[0]["max_gradient"]) == 0.0
    sea = fermi_sea(GridSpec.make(2, 2), 2, 2)
    assert float(trace[0]["energy"]) == pytest.approx(sea.energy, abs=1e-12)


def test_run_without_hopping_reports_an_empty_pool(tmp_path, capsys):
    # at t = 0 every mode has the same energy, so every off-diagonal move has
    # zero kinetic gap: the pool is empty although the sea is not the ground state
    code, out = run_config(tmp_path, "flat", u=4.0, t=0.0)
    assert code == 2
    printed = capsys.readouterr().out
    assert "status empty-pool" in printed
    assert sum("empty pool:" in line for line in printed.splitlines()) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "empty-pool" and manifest["pool_size"] == 0
    assert manifest["final_fidelity"] < 0.99
    assert manifest["final_energy"] - manifest["ground_energy"] > 1.0


def test_run_writes_consistent_artifacts(tmp_path, capsys):
    code, out = run_config(tmp_path, "bench", u=4.0, max_epochs=5)
    assert code in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    trace = read_csv(out / "trace.csv")
    steps = read_csv(out / "steps.csv")
    assert manifest["rows"] == {"trace": len(trace), "steps": len(steps)}
    assert manifest["pool_size"] == 13
    assert float(trace[-1]["fidelity"]) >= 0.99
    energies = [float(row["energy"]) for row in trace]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_run_hva_tags_manifest(tmp_path, capsys):
    code, out = run_config(tmp_path, "layered", ansatz="hva", u=2.0,
                           max_inner_steps=60)
    assert code in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ansatz"] == "hva"
    assert manifest["n_params"] == 30
    steps = read_csv(out / "steps.csv")
    assert manifest["rows"]["steps"] == len(steps)


def test_unknown_key_is_rejected_with_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write(tmp_path / "bad.cfg", "nx = 2\nny = 2\nflavor = up\n")
    code = main(["run", str(config)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{config}:3" in err and "flavor" in err
    assert list(tmp_path.iterdir()) == [config]  # nothing written


def test_bad_value_is_rejected_with_line(tmp_path, capsys):
    config = write(tmp_path / "bad.cfg", "nx = 2\nny = two\n")
    assert main(["run", str(config)]) == 1
    assert f"{config}:2" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    config = write(tmp_path / "bad.cfg", "nx = 2\n")
    assert main(["run", str(config)]) == 1
    assert "ny" in capsys.readouterr().err


def test_invalid_filling_is_caught_before_running(tmp_path, capsys):
    config = write(tmp_path / "bad.cfg", "nx = 2\nny = 2\nn_up = 9\nn_down = 1\n")
    assert main(["run", str(config)]) == 1
    assert "n_up" in capsys.readouterr().err


def test_traces_are_reproducible(tmp_path, capsys):
    _, first = run_config(tmp_path, "one", u=4.0, max_epochs=3)
    _, second = run_config(tmp_path, "two", u=4.0, max_epochs=3,
                           output=tmp_path / "two")
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
    assert (first / "steps.csv").read_bytes() == (second / "steps.csv").read_bytes()


def cache_files(tmp_path) -> list[str]:
    return sorted(p.name for p in (tmp_path / "cache").iterdir())


def test_ground_space_cache_is_reused(tmp_path, capsys):
    _, _ = run_config(tmp_path, "one", u=4.0, max_epochs=1)
    cache = list((tmp_path / "cache").glob("ground-*.npys"))
    assert len(cache) == 1
    tables, = (tmp_path / "cache").glob("pool-*.npys")
    assert cache_files(tmp_path) == [cache[0].name, tables.name]
    stamp = cache[0].stat().st_mtime_ns
    tables_stamp = tables.stat().st_mtime_ns
    _, _ = run_config(tmp_path, "again", u=4.0, max_epochs=1,
                      output=tmp_path / "again")
    assert cache[0].stat().st_mtime_ns == stamp  # loaded, not rebuilt
    assert tables.stat().st_mtime_ns == tables_stamp


def resave(path: Path, **changes) -> None:
    """Write the fields of a cache file back with some of them replaced."""
    fields = _load_fields(path, None)
    fields.update(changes)
    _save_fields(path, fields, None)


def write_records(path: Path, fields: dict, names=None, raw: dict | None = None) -> None:
    """Write a cache file record by record: `names` in place of the field
    names, and the bytes of `raw[name]` in place of that field's record."""
    raw = raw or {}
    with open(path, "wb") as handle:
        write_array(handle, np.array(list(fields), dtype=str) if names is None else names)
        for name, value in fields.items():
            if name in raw:
                handle.write(raw[name])
            else:
                write_array(handle, np.asanyarray(value))


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def truncate_mid_record(path: Path) -> None:
    # the last record is the key, a string of more than 4 bytes
    path.write_bytes(path.read_bytes()[:-4])


def append_bytes(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\0" * 16)


def plant_oversized_header(path: Path) -> None:
    # the states record claims 2^40 entries and holds its real ones; reading
    # it as the header says would mean allocating terabytes
    fields = _load_fields(path, None)
    header = BytesIO()
    write_array_header_1_0(header, {"descr": dtype_to_descr(fields["states"].dtype),
                                    "fortran_order": False, "shape": (1 << 40,)})
    write_records(path, fields, raw={"states": header.getvalue() + fields["states"].tobytes()})


def plant_object_record(path: Path) -> None:
    fields = _load_fields(path, None)
    pickled = BytesIO()
    write_array(pickled, np.array([1, "two"], dtype=object), allow_pickle=True)
    write_records(path, fields, raw={"n_up" if "n_up" in fields else "labels": pickled.getvalue()})


def plant_names_matrix(path: Path) -> None:
    fields = _load_fields(path, None)
    write_records(path, fields, names=np.array([list(fields)], dtype=str))


def plant_zip_archive(path: Path) -> None:
    # the format before .npy records: a zip archive of the same arrays
    fields = _load_fields(path, None)
    with open(path, "wb") as handle:
        np.savez(handle, **fields)


def plant_other_problem(path: Path) -> None:
    from vipsa.core import PoolTables
    from vipsa.hamiltonians import GroundSpace
    kind = PoolTables if path.name.startswith("pool-") else GroundSpace
    kind.load(path).save(path, key="some other problem")


# damage either kind of cache file can take
FILE_DAMAGE = [truncate, truncate_mid_record, append_bytes, plant_oversized_header,
               plant_object_record, plant_names_matrix, plant_zip_archive, plant_other_problem]


def plant_old_format(path: Path) -> None:
    # the format before the sector matrix was stored
    fields = _load_fields(path, None)
    _save_fields(path, {name: value for name, value in fields.items()
                        if not name.startswith("matrix_")}, None)


def plant_misfit_matrix(path: Path) -> None:
    from vipsa.hamiltonians import GroundSpace
    block = GroundSpace.load(path).matrix[:-1, :-1].tocsr()
    resave(path, matrix_shape=np.array(block.shape), matrix_data=block.data,
           matrix_indices=block.indices, matrix_indptr=block.indptr)


def plant_misfit_vectors(path: Path) -> None:
    resave(path, vectors=_load_fields(path, None)["vectors"][:-1])


def plant_scalar_vector(path: Path) -> None:
    # the same bytes as the scalar, with a header that makes it a vector
    resave(path, n_qubits=_load_fields(path, None)["n_qubits"].reshape(1))


def assert_same_artifacts(first: Path, again: Path) -> None:
    for name in ("trace.csv", "steps.csv", "manifest.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize("damage", FILE_DAMAGE + [plant_old_format, plant_misfit_matrix,
                                                  plant_misfit_vectors, plant_scalar_vector])
def test_damaged_cache_is_rebuilt(tmp_path, capsys, damage):
    from vipsa.hamiltonians import GroundSpace

    code, first = run_config(tmp_path, "one", u=4.0, max_epochs=1)
    cache, = (tmp_path / "cache").glob("ground-*.npys")
    tables, = (tmp_path / "cache").glob("pool-*.npys")
    saved = cache.read_bytes()
    damage(cache)
    again_code, again = run_config(tmp_path, "again", u=4.0, max_epochs=1)
    assert again_code == code == 2  # exhausted, as the undamaged run; an error is 1
    assert_same_artifacts(first, again)
    assert cache_files(tmp_path) == [cache.name, tables.name]
    assert cache.read_bytes() == saved  # rebuilt
    assert GroundSpace.load(cache, key=None).matrix is not None
    stamp = cache.stat().st_mtime_ns
    run_config(tmp_path, "third", u=4.0, max_epochs=1)
    assert cache.stat().st_mtime_ns == stamp  # the rebuilt file is a cache hit


def plant_stray_position(path: Path) -> None:
    fields = _load_fields(path, None)
    dst = fields["dst"].copy()
    dst[0] = len(fields["states"])
    resave(path, dst=dst)


def plant_misaligned_offsets(path: Path) -> None:
    offsets = _load_fields(path, None)["offsets"]
    # one table fewer than labels, still ending at the length of the arrays
    resave(path, offsets=np.delete(offsets, 1))


@pytest.mark.parametrize("damage", FILE_DAMAGE + [plant_stray_position,
                                                  plant_misaligned_offsets])
def test_damaged_pool_tables_are_rebuilt(tmp_path, capsys, damage):
    from vipsa.core import PoolTables

    code, first = run_config(tmp_path, "one", u=4.0, max_epochs=1)
    files = cache_files(tmp_path)
    tables, = (tmp_path / "cache").glob("pool-*.npys")
    saved = tables.read_bytes()
    damage(tables)
    again_code, again = run_config(tmp_path, "again", u=4.0, max_epochs=1)
    assert again_code == code == 2  # exhausted, as the undamaged run; an error is 1
    assert_same_artifacts(first, again)
    assert cache_files(tmp_path) == files  # no partial .tmp file left behind
    assert tables.read_bytes() == saved  # rebuilt
    PoolTables.load(tables)
    stamp = tables.stat().st_mtime_ns
    run_config(tmp_path, "third", u=4.0, max_epochs=1)
    assert tables.stat().st_mtime_ns == stamp  # the rebuilt file is a cache hit


def test_warm_cache_skips_the_hamiltonian_build(tmp_path, monkeypatch):
    from vipsa import hamiltonians
    from vipsa.cli import cached_ground_space

    grid = GridSpec.make(2, 2, u=4.0)
    cold = {register: cached_ground_space(grid, 2, 2, register, tmp_path)
            for register in ("k", "real")}

    def refuse(*args, **kwargs):
        raise AssertionError("Hamiltonian built on a cache hit")

    monkeypatch.setattr(hamiltonians, "build_kspace", refuse)
    monkeypatch.setattr(hamiltonians, "build_real", refuse)
    for register, space in cold.items():
        warm = cached_ground_space(grid, 2, 2, register, tmp_path)
        np.testing.assert_array_equal(warm.vectors, space.vectors)


def run_artifacts(out: Path) -> dict:
    return {name: (out / name).read_bytes()
            for name in ("trace.csv", "steps.csv", "manifest.json")}


def refuse(*args, **kwargs):
    raise AssertionError("Hamiltonian built on a cache hit")


HAMILTONIAN_BUILDERS = [("hamiltonians", "sector_matrix"), ("hamiltonians", "build_kspace"),
                        ("hamiltonians", "build_real"), ("core", "build_kspace"),
                        ("hva", "build_real")]


@pytest.mark.parametrize("ansatz", ["vipsa", "hva"])
def test_warm_run_loads_the_hamiltonian(tmp_path, capsys, monkeypatch, ansatz):
    import vipsa

    settings = {"u": 4.0, "ansatz": ansatz, "max_epochs": 2, "max_inner_steps": 20,
                "layers": 2}
    _, cold = run_config(tmp_path, "cold", **settings)
    for module, name in HAMILTONIAN_BUILDERS:
        monkeypatch.setattr(getattr(vipsa, module), name, refuse)
    code, warm = run_config(tmp_path, "warm", **settings)
    assert code in (0, 2)
    assert run_artifacts(warm) == run_artifacts(cold)


POOL_BUILDERS = ("build_pool", "sector_orbit", "interaction_quadruples")


def test_warm_run_builds_no_pool(tmp_path, capsys, monkeypatch):
    import importlib
    import pkgutil

    import vipsa

    def refuse_pool(*args, **kwargs):
        raise AssertionError("pool tables built on a cache hit")

    settings = {"u": 4.0, "max_epochs": 2, "max_inner_steps": 20}
    _, cold = run_config(tmp_path, "cold", **settings)
    modules = [vipsa] + [importlib.import_module(f"vipsa.{info.name}")
                         for info in pkgutil.iter_modules(vipsa.__path__)]
    for module in modules:
        for name in POOL_BUILDERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse_pool)
    code, warm = run_config(tmp_path, "warm", **settings)
    assert code in (0, 2)
    assert run_artifacts(warm) == run_artifacts(cold)


@pytest.mark.parametrize("ansatz", ["vipsa", "hva"])
def test_cold_run_builds_the_sector_matrix_once(tmp_path, capsys, monkeypatch, ansatz):
    from vipsa import hamiltonians

    calls = []
    build = hamiltonians.sector_matrix

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return build(*args, **kwargs)

    monkeypatch.setattr(hamiltonians, "sector_matrix", counted)
    settings = {"u": 4.0, "ansatz": ansatz, "max_epochs": 2, "max_inner_steps": 20,
                "layers": 2}
    _, uncached = run_config(tmp_path, "uncached", cache=None, **settings)
    assert len(calls) == 1
    _, filled = run_config(tmp_path, "filled", **settings)
    assert len(calls) == 2
    _, warm = run_config(tmp_path, "warm", **settings)
    assert len(calls) == 2
    assert not (tmp_path / "off").exists()
    assert run_artifacts(uncached) == run_artifacts(filled) == run_artifacts(warm)


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("argv, detail", [
    (["run"], "required: config"),
    (["ed", "--grid", "2x2", "--u", "4", "--t", "abc"], "--t"),
    (["frob"], "invalid choice: 'frob'"),
])
def test_usage_error_is_one_line(capsys, argv, detail):
    assert main(argv) == 1
    assert detail in one_error_line(capsys)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stopped:
        main(["--help"])
    assert stopped.value.code == 0
    assert capsys.readouterr().out.startswith("usage: vipsa")


def test_grid_rejected_by_the_library_is_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write(tmp_path / "thin.cfg", "nx = 1\nny = 3\n")
    assert main(["run", str(config)]) == 1
    assert "1x3" in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == [config]  # nothing written


def test_ed_rejects_impossible_sector(capsys):
    assert main(["ed", "--grid", "2x2", "--u", "4", "--sector", "9,9"]) == 1
    assert "(9,9)" in one_error_line(capsys)


@pytest.mark.parametrize("argv", [["--grid", "2x2", "--u", "nan"],
                                  ["--grid", "3x3", "--u", "inf"],
                                  ["--grid", "2x2", "--u", "4", "--t", "nan"]])
def test_ed_rejects_non_finite_couplings(capsys, argv):
    assert main(["ed", *argv]) == 1
    assert "must be finite" in one_error_line(capsys)


@pytest.mark.parametrize("register", ["k", "real"])
def test_ed_overflowing_hamiltonian_is_one_line(capsys, recwarn, register):
    # U = 1e308 is finite, but the 2x2 sector matrix's sums overflow
    assert main(["ed", "--grid", "2x2", "--u", "1e308", "--register", register]) == 1
    assert "non-finite" in one_error_line(capsys)
    assert not recwarn.list


@pytest.mark.parametrize("ansatz", ["vipsa", "hva"])
def test_run_overflowing_hamiltonian_is_one_line(tmp_path, capsys, recwarn, ansatz):
    cache, out = tmp_path / "cache", tmp_path / "out"
    config = write(tmp_path / "huge.cfg", f"nx = 2\nny = 3\nu = 1e308\nansatz = {ansatz}\n"
                                          f"output = {out}\ncache_dir = {cache}\n")
    assert main(["run", str(config)]) == 1
    assert "non-finite" in one_error_line(capsys)
    assert not recwarn.list
    assert not any(cache.iterdir()) and not any(out.iterdir())


@pytest.mark.parametrize("line", ["u = nan", "u = inf", "t = nan", "lr = nan",
                                  "eps1 = inf", "eps2 = nan", "stabilizer = nan"])
def test_run_rejects_non_finite_settings(tmp_path, capsys, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    coupling = "" if line.startswith("u ") else "u = 4\n"
    config = write(tmp_path / "bad.cfg", f"nx = 2\nny = 2\n{coupling}{line}\n")
    assert main(["run", str(config)]) == 1
    assert line.split()[0] in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == [config]  # nothing written


@pytest.mark.parametrize("body, detail", [
    ("nx = 2\nny = 2\nn_up = 9\nn_down = 1\n", "n_up"),
    ("nx = 2\nny = 2\nn_up = 1\n", "n_down"),
    ("nx = 2\nny = 2\nlayers = 0\n", "layers"),
    ("nx = 2\nny = 2\nbc_x = twisted\n", "twisted"),
    ("nx = 2\nny = 3\nbc_x = periodic\n", "periodic x axis"),
    ("nx = 4\nny = 5\n", "32-qubit"),
])
def test_run_rejects_before_building_or_writing(tmp_path, capsys, monkeypatch, body, detail):
    import vipsa

    monkeypatch.chdir(tmp_path)
    for module, name in HAMILTONIAN_BUILDERS:
        monkeypatch.setattr(getattr(vipsa, module), name, refuse)
    config = write(tmp_path / "bad.cfg", body)
    assert main(["run", str(config)]) == 1
    assert detail in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == [config]  # nothing written


@pytest.mark.parametrize("argv, detail", [
    (["--grid", "4x5", "--u", "1", "--sector", "1,0"], "32-qubit"),
    (["--grid", "4x5", "--u", "1"], "32-qubit"),
    (["--grid", "2x2", "--u", ","], "coupling list"),
])
def test_ed_rejects_before_building(capsys, monkeypatch, argv, detail):
    import vipsa

    for module, name in HAMILTONIAN_BUILDERS:
        monkeypatch.setattr(getattr(vipsa, module), name, refuse)
    assert main(["ed", *argv]) == 1
    assert detail in one_error_line(capsys)


@pytest.mark.parametrize("key", ["cache", "output"])
def test_run_rejects_a_directory_that_is_a_file(tmp_path, capsys, monkeypatch, key):
    import vipsa

    for module, name in HAMILTONIAN_BUILDERS:
        monkeypatch.setattr(getattr(vipsa, module), name, refuse)
    taken = write(tmp_path / "taken", "")
    code, _ = run_config(tmp_path, "blocked", **{key: taken})
    assert code == 1
    assert str(taken) in one_error_line(capsys)


def test_ed_csv_into_a_missing_directory_is_one_line(tmp_path, capsys, monkeypatch):
    # the path is checked before any Hamiltonian is built, so nothing is solved
    import vipsa

    for module, name in HAMILTONIAN_BUILDERS:
        monkeypatch.setattr(getattr(vipsa, module), name, refuse)
    target = tmp_path / "missing" / "ed.csv"
    assert main(["ed", "--grid", "2x3", "--u", "4", "--csv", str(target)]) == 1
    assert str(target) in one_error_line(capsys)


def test_compare_csv_into_a_missing_directory_is_one_line(tmp_path, capsys):
    code, out = run_config(tmp_path, "first", u=4.0, max_epochs=1)
    assert code in (0, 2)
    capsys.readouterr()
    target = tmp_path / "missing" / "merged.csv"
    assert main(["compare", str(out), "--csv", str(target)]) == 1
    assert str(target) in one_error_line(capsys)


def test_every_loop_setting_is_a_config_key(tmp_path, capsys):
    from dataclasses import asdict, fields

    from vipsa.cli import Experiment
    from vipsa.core import VipsaConfig

    # r = 1 is written as an integer, so the float parse is seen in the type
    values = {"r": 1, "eps1": 0.02, "eps2": 0.003, "max_epochs": 2,
              "max_inner_steps": 5, "convergence_window": 3}
    settings = fields(VipsaConfig)
    assert sorted(values) == sorted(field.name for field in settings)
    assert all(values[field.name] != field.default for field in settings)
    code, out = run_config(tmp_path, "tuned", **values)
    assert code in (0, 2)
    config = Experiment.from_file(str(tmp_path / "tuned.cfg")).config
    assert config == VipsaConfig(**values)
    assert all(type(getattr(config, field.name)) is field.type for field in settings)
    echoed = json.loads((out / "manifest.json").read_text())["optimizer"]
    assert echoed == asdict(config)
    assert all(type(echoed[field.name]) is field.type for field in settings)


def test_readme_lists_every_config_key():
    from vipsa.cli import CONFIG_SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### `vipsa run config.txt`")[1].split("\n### ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    listed = [key for row in rows for key in row.split("|")[1].split("`")[1::2]]
    assert sorted(listed) == sorted(CONFIG_SCHEMA)


POOL_INFO_2X3 = """grid 2x3 (open x periodic), U=4
  interaction table entries: 216
  excluded diagonal:         36
  excluded one-sided:        0
  excluded zero-gap:         54
  conjugate duplicates:      63
  pool size:                 63
"""


def test_pool_info_table(capsys):
    assert main(["pool-info", "--grid", "2x3", "--u", "4"]) == 0
    assert capsys.readouterr().out == POOL_INFO_2X3


def test_ed_registers_agree(capsys):
    assert main(["ed", "--grid", "2x3", "--u", "0,2", "--register", "both"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    by_key = {(row[1], row[4]): float(row[5]) for row in lines}
    assert by_key[("0", "k")] == pytest.approx(by_key[("0", "real")], abs=1e-9)
    assert by_key[("2", "k")] == pytest.approx(by_key[("2", "real")], abs=1e-9)
    sea = fermi_sea(GridSpec.make(2, 3), 3, 3)
    assert by_key[("0", "k")] == pytest.approx(sea.energy, abs=1e-9)


def test_ed_at_large_coupling_agrees_across_registers(tmp_path, capsys):
    # the Hermiticity, stray-amplitude and realness checks scale with the
    # operator, so rounding residue in proportion to U does not trip them
    target = tmp_path / "ed.csv"
    assert main(["ed", "--grid", "2x3", "--u", "1e6", "--register", "both",
                 "--csv", str(target)]) == 0
    energies = {row["register"]: float(row["energy"]) for row in read_csv(target)}
    assert energies["k"] == pytest.approx(energies["real"], abs=1e-9)


@pytest.mark.parametrize("u, warned", [("1e9", True), ("4", False)])
def test_ed_warns_when_the_registers_disagree(tmp_path, capsys, u, warned):
    # at U = 1e9 rounding in proportion to U parts the two registers' energies
    target = tmp_path / "ed.csv"
    assert main(["ed", "--grid", "2x3", "--u", u, "--register", "both",
                 "--csv", str(target)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3 and len(read_csv(target)) == 2
    if warned:
        assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
        assert "2x3" in captured.err and "U=1e+09" in captured.err
        assert "apart" in captured.err
    else:
        assert captured.err == ""


def test_ed_warns_when_the_degeneracies_disagree(capsys, monkeypatch):
    import vipsa.cli

    monkeypatch.setattr(vipsa.cli, "_ground_energy",
                        lambda grid, register, n_up, n_down: (-1.0, 1 if register == "k" else 2))
    assert main(["ed", "--grid", "2x2", "--u", "4", "--register", "both"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and "1 (k) against 2 (real)" in err


def test_ed_free_3x3_is_the_fourfold_sea(capsys):
    # at U = 0 every sector state is a block of its own
    assert main(["ed", "--grid", "3x3", "--u", "0", "--register", "both"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[4], row[5], row[6]) for row in rows] == [("k", "-15.00000000", "4"),
                                                         ("real", "-15.00000000", "4")]


def test_ed_writes_csv(tmp_path, capsys):
    target = tmp_path / "ed.csv"
    assert main(["ed", "--grid", "2x2", "--u", "4", "--csv", str(target)]) == 0
    rows = read_csv(target)
    assert len(rows) == 1 and rows[0]["degeneracy"] == "1"


def test_compare_single_run_passthrough(tmp_path, capsys):
    _, out = run_config(tmp_path, "solo", u=4.0, max_epochs=2)
    capsys.readouterr()
    merged = tmp_path / "merged.csv"
    assert main(["compare", str(out), "--csv", str(merged)]) == 0
    table = read_csv(merged)
    steps = read_csv(out / "steps.csv")
    assert len(table) == len(steps)
    assert [row["solo/energy"] for row in table] == [row["energy"] for row in steps]


def test_compare_puts_each_hva_fidelity_on_its_step(tmp_path, capsys):
    _, out = run_config(tmp_path, "layered", ansatz="hva", u=2.0, max_inner_steps=5)
    merged = tmp_path / "merged.csv"
    assert main(["compare", str(out), "--csv", str(merged)]) == 0
    trace = read_csv(out / "trace.csv")
    assert len(trace) > 2
    assert [row["layered/fidelity"] for row in read_csv(merged)] == [
        row["fidelity"] for row in trace]


def test_compare_puts_each_epoch_fidelity_on_its_last_step(tmp_path, capsys):
    _, out = run_config(tmp_path, "solo", u=4.0, max_epochs=3)
    merged = tmp_path / "merged.csv"
    assert main(["compare", str(out), "--csv", str(merged)]) == 0
    steps = read_csv(out / "steps.csv")
    last = {row["epoch"]: i for i, row in enumerate(steps)}
    fidelity = {row["epoch"]: row["fidelity"] for row in read_csv(out / "trace.csv")}
    expected = [fidelity[row["epoch"]] if last[row["epoch"]] == i else ""
                for i, row in enumerate(steps)]
    assert len(last) == 3 and expected.count("") == len(steps) - 3
    assert [row["solo/fidelity"] for row in read_csv(merged)] == expected


def test_compare_rejects_grid_mismatch(tmp_path, capsys):
    _, small = run_config(tmp_path, "small", u=4.0, max_epochs=1)
    wide_out = tmp_path / "wide"
    config = write(tmp_path / "wide.cfg",
                   f"nx = 2\nny = 3\nu = 2.0\nmax_epochs = 1\n"
                   f"output = {wide_out}\ncache_dir = {tmp_path / 'cache'}\n")
    assert main(["run", str(config)]) in (0, 2)
    assert main(["compare", str(small), str(wide_out)]) == 1
    assert "different grids" in capsys.readouterr().err


def plant_bad_json(run: Path) -> None:
    (run / "manifest.json").write_text("{not json")


def plant_empty_manifest(run: Path) -> None:
    (run / "manifest.json").write_text("{}")


def plant_header_only_steps(run: Path) -> None:
    steps = run / "steps.csv"
    steps.write_text(steps.read_text().splitlines()[0] + "\n")


@pytest.mark.parametrize("damage", [plant_bad_json, plant_empty_manifest, plant_header_only_steps])
def test_compare_reports_a_damaged_artifact_in_one_line(tmp_path, capsys, damage):
    _, out = run_config(tmp_path, "solo", u=4.0, max_epochs=1)
    capsys.readouterr()
    damage(out)
    assert main(["compare", str(out)]) == 1
    assert "damaged run artifact" in one_error_line(capsys)


def test_pool_info_counts_add_up(capsys):
    assert main(["pool-info", "--grid", "2x2"]) == 0
    out = capsys.readouterr().out
    values = {line.split(":")[0].strip(): int(line.split(":")[1])
              for line in out.splitlines()[1:]}
    assert values["pool size"] == 13
    total = (values["excluded diagonal"] + values["excluded one-sided"]
             + values["excluded zero-gap"] + 2 * values["pool size"])
    assert total == values["interaction table entries"]


def test_broken_pipe_exits_quietly(monkeypatch):
    # piping a table into head must not traceback
    class HungUpStdout:
        def __init__(self):
            self.fd = os.open(os.devnull, os.O_WRONLY)

        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    stdout = HungUpStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["pool-info", "--grid", "2x2"]) == 1
    finally:
        os.close(stdout.fd)


def test_thread_count_env_is_honored():
    script = ("import os; os.environ['VIPSA_NUM_THREADS'] = '1'; "
              "import vipsa; print(os.environ['OMP_NUM_THREADS'])")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(
                                Path(__file__).resolve().parents[1] / "src")})
    assert result.returncode == 0
    assert result.stdout.strip() == "1"
