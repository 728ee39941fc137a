"""Front-door behavior: config validation, artifacts, exit codes, tables."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
from io import BytesIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.format import dtype_to_descr, write_array, write_array_header_1_0

from vipsa.cache import read_fields, write_fields, write_record
from vipsa.cli import main
from vipsa.hamiltonians import MODE_COUPLING_LIMIT
from vipsa.lattice import GridSpec, fermi_sea, momentum_labels
from vipsa.statevector import sector_basis

from builds import kspace_hamiltonian, sea_block, site_space
from replay import refuse_pauli_path


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


BASE = """
nx = {nx}
ny = {ny}
u = {u}
ansatz = {ansatz}
output = {output}
cache_dir = {cache}
"""


def run_config(tmp_path, name, **fields) -> tuple[int, Path]:
    fields.setdefault("cache", tmp_path / "cache")  # None switches the cache off
    fields.setdefault("output", tmp_path / name)
    extra = "".join(f"{k} = {v}\n" for k, v in fields.items()
                    if k not in ("nx", "ny", "u", "ansatz", "output", "cache"))
    if fields["cache"] is None:
        extra += "cache = off\n"
    text = BASE.format(nx=fields.get("nx", 2), ny=fields.get("ny", 2),
                       u=fields.get("u", 4.0), ansatz=fields.get("ansatz", "vipsa"),
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
    fields = read_fields(path, None)
    fields.update(changes)
    write_fields(path, fields, None)


def npy(value, **options) -> bytes:
    """The bytes of one .npy record of value."""
    record = BytesIO()
    write_array(record, np.asanyarray(value), **options)
    return record.getvalue()


def write_records(path: Path, fields: dict, names=None, raw: dict | None = None) -> None:
    """Write a cache file record by record, each with its crc: `names` in
    place of the field names, and the bytes of `raw[name]` in place of that
    field's record."""
    raw = raw or {}
    with open(path, "wb") as handle:
        write_record(handle, npy(np.array(list(fields), dtype=str) if names is None else names))
        for name, value in fields.items():
            write_record(handle, raw[name] if name in raw else npy(value))


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def truncate_mid_record(path: Path) -> None:
    # the last record is the key, a string of more than 4 bytes, and its
    # 4-byte crc follows it
    path.write_bytes(path.read_bytes()[:-8])


def append_bytes(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\0" * 16)


def plant_oversized_header(path: Path) -> None:
    # the ground vectors' record, or the pool's states record, claims 2^40
    # entries and holds its real ones; reading it as the header says would
    # mean allocating terabytes
    fields = read_fields(path, None)
    name = "vectors" if "vectors" in fields else "states"
    header = BytesIO()
    write_array_header_1_0(header, {"descr": dtype_to_descr(fields[name].dtype),
                                    "fortran_order": False, "shape": (1 << 40,)})
    write_records(path, fields, raw={name: header.getvalue() + fields[name].tobytes()})


def plant_object_record(path: Path) -> None:
    fields = read_fields(path, None)
    pickled = npy(np.array([1, "two"], dtype=object), allow_pickle=True)
    write_records(path, fields, raw={"n_up" if "n_up" in fields else "labels": pickled})


def plant_names_matrix(path: Path) -> None:
    fields = read_fields(path, None)
    write_records(path, fields, names=np.array([list(fields)], dtype=str))


def plant_zip_archive(path: Path) -> None:
    # the format before .npy records: a zip archive of the same arrays
    fields = read_fields(path, None)
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
    fields = read_fields(path, None)
    write_fields(path, {name: value for name, value in fields.items()
                        if not name.startswith("matrix_")}, None)


def plant_unlabelled(path: Path) -> None:
    # the format before each ground vector's momentum block was stored, and
    # so before the kept block's rows were
    fields = read_fields(path, None)
    del fields["blocks"], fields["matrix_rows"]
    write_fields(path, fields, None)


def plant_whole_sector_matrix(path: Path) -> None:
    # what the file held before the run's H moved onto the sea's block: the
    # whole-sector matrix, under the key that did not name the block.  Its
    # shape and rows fit that matrix, so the key alone must refuse it
    from vipsa.cli import _grid_key
    from vipsa.hamiltonians import GroundSpace, build_kspace, sector_matrix

    grid = GridSpec.make(2, 2, u=4.0)
    states = sector_basis(grid.n_qubits, 2, 2)
    fields = read_fields(path, None)
    del fields["key"]
    whole = sector_matrix(build_kspace(grid).pauli, states, grid.n_qubits)
    assert whole.nnz > fields["matrix_data"].size
    fields.update(states=states, matrix_rows=np.arange(len(states)),
                  matrix_shape=np.array(whole.shape), matrix_data=whole.data,
                  matrix_indices=whole.indices, matrix_indptr=whole.indptr)
    write_fields(path, fields, _grid_key(grid, 2, 2, "k"))
    assert GroundSpace.load(path).matrix.shape == whole.shape


def plant_sector_rows_matrix(path: Path) -> None:
    # what the file held before the kept matrix moved onto the block's own
    # rows: P H P over the whole sector, with the block's label in place of
    # its rows, under the key that named the block without saying so
    from vipsa.cli import _grid_key
    from vipsa.hamiltonians import build_kspace, sector_matrix
    from vipsa.lattice import momentum_labels

    from oracles import rows_of_block

    grid = GridSpec.make(2, 2, u=4.0)
    states = sector_basis(grid.n_qubits, 2, 2)
    fields = read_fields(path, None)
    rows = fields.pop("matrix_rows")
    label = int(momentum_labels(grid, states[rows[0]]))
    inside = np.zeros(len(states), dtype=bool)
    inside[rows] = True
    whole = sector_matrix(build_kspace(grid).pauli, states, grid.n_qubits)
    php = rows_of_block(whole, inside)
    fields.update(states=states, matrix_block=np.array(label), matrix_shape=np.array(php.shape),
                  matrix_data=php.data, matrix_indices=php.indices, matrix_indptr=php.indptr)
    del fields["key"]
    write_fields(path, fields, _grid_key(grid, 2, 2, f"k block {label}"))


def plant_label_for_rows(path: Path) -> None:
    # what the file held before the block's rows were stored: the block's
    # label in their place, under the same key.  Read without rows, the
    # block's matrix does not fit the whole sector
    from vipsa.lattice import momentum_labels

    grid = GridSpec.make(2, 2, u=4.0)
    states = sector_basis(grid.n_qubits, 2, 2)
    fields = read_fields(path, None)
    rows = fields["matrix_rows"]
    assert len(rows) < len(states)
    label = np.array(int(momentum_labels(grid, states[rows[0]])))
    write_fields(path, {("matrix_block" if name == "matrix_rows" else name):
                        (label if name == "matrix_rows" else value)
                        for name, value in fields.items()}, None)


def plant_misfit_matrix(path: Path) -> None:
    from vipsa.hamiltonians import GroundSpace
    block = GroundSpace.load(path).matrix[:-1, :-1].tocsr()
    resave(path, matrix_shape=np.array(block.shape), matrix_data=block.data,
           matrix_indices=block.indices, matrix_indptr=block.indptr)


def plant_rows_out_of_range(path: Path) -> None:
    fields = read_fields(path, None)
    rows = fields["matrix_rows"].copy()
    rows[-1] = len(fields["vectors"])  # the sector's size
    resave(path, matrix_rows=rows)


def plant_unsorted_rows(path: Path) -> None:
    rows = read_fields(path, None)["matrix_rows"].copy()
    rows[[0, 1]] = rows[[1, 0]]
    resave(path, matrix_rows=rows)


def plant_rows_one_short(path: Path) -> None:
    # the block's rows without its last one, under the block's matrix
    resave(path, matrix_rows=read_fields(path, None)["matrix_rows"][:-1])


def plant_misfit_vectors(path: Path) -> None:
    resave(path, vectors=read_fields(path, None)["vectors"][:-1])


def plant_scalar_vector(path: Path) -> None:
    # the same bytes as the scalar, with a header that makes it a vector
    resave(path, n_qubits=read_fields(path, None)["n_qubits"].reshape(1))


def plant_index_out_of_range(path: Path) -> None:
    # one column far outside the kept matrix, with the record's crc made
    # anew, as a faulty writer would leave it: a mat-vec on it reads outside
    # the vector
    indices = read_fields(path, None)["matrix_indices"].copy()
    indices[5] = 10**6
    resave(path, matrix_indices=indices)


def plant_falling_row_pointer(path: Path, at: int = 0) -> None:
    # two neighbouring row pointers of a non-empty row swapped: each stays
    # between 0 and the entry count, but they fall
    indptr = read_fields(path, None)["matrix_indptr"].copy()
    rising = np.flatnonzero(np.diff(indptr[1:-1])) + 1
    row = rising[at % len(rising)]
    indptr[[row, row + 1]] = indptr[[row + 1, row]]
    resave(path, matrix_indptr=indptr)


def plant_nan_entry(path: Path, at: int = 0) -> None:
    data = read_fields(path, None)["matrix_data"].copy()
    data[at % len(data)] = np.nan
    resave(path, matrix_data=data)


def plant_complex_block_matrix(path: Path) -> None:
    # the same values as complex128: both registers' H is real
    resave(path, matrix_data=read_fields(path, None)["matrix_data"].astype(complex))


def assert_same_artifacts(first: Path, again: Path) -> None:
    for name in ("trace.csv", "steps.csv", "manifest.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize("damage", FILE_DAMAGE + [plant_old_format, plant_misfit_matrix,
                                                  plant_misfit_vectors, plant_scalar_vector,
                                                  plant_unlabelled, plant_whole_sector_matrix,
                                                  plant_sector_rows_matrix, plant_rows_out_of_range,
                                                  plant_unsorted_rows, plant_rows_one_short,
                                                  plant_label_for_rows, plant_complex_block_matrix])
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


def test_a_complex_site_matrix_is_rebuilt(tmp_path, capsys):
    # a layered run's ground file keeps the site register's sector matrix,
    # which is as real as a mode-register block's
    code, first = run_config(tmp_path, "one", u=4.0, ansatz="hva", layers=2, max_inner_steps=3)
    cache, = (tmp_path / "cache").glob("ground-real-*.npys")
    saved = cache.read_bytes()
    plant_complex_block_matrix(cache)
    again_code, again = run_config(tmp_path, "again", u=4.0, ansatz="hva", layers=2,
                                   max_inner_steps=3)
    assert again_code == code
    assert_same_artifacts(first, again)
    assert cache_files(tmp_path) == [cache.name]
    assert cache.read_bytes() == saved  # rebuilt


def plant_stored_basis(path: Path) -> None:
    # a file written while the sector bitstrings were stored, after the
    # vectors, with one bit of the last one flipped so they stay ascending
    fields = {name: value for name, value in read_fields(path, None).items() if name != "states"}
    basis = sector_basis(*(int(fields[name]) for name in ("n_qubits", "n_up", "n_down")))
    states = basis.copy()
    states[-1] |= 1
    assert states[-1] != basis[-1]
    items = list(fields.items())
    at = list(fields).index("vectors") + 1
    write_fields(path, dict(items[:at] + [("states", states)] + items[at:]), None)


def assert_planted_file_is_a_hit(tmp_path, ansatz, plant) -> None:
    settings = {"u": 4.0, "ansatz": ansatz, "max_epochs": 1, "max_inner_steps": 20, "layers": 2}
    _, cold = run_config(tmp_path, "cold", **settings)
    cache, = (tmp_path / "cache").glob("ground-*.npys")
    plant(cache)
    planted = cache.read_bytes()
    code, warm = run_config(tmp_path, "warm", **settings)
    assert code in (0, 2)
    assert run_artifacts(warm) == run_artifacts(cold)
    assert cache.read_bytes() == planted  # a cache hit, left as it was


@pytest.mark.parametrize("ansatz", ["vipsa", "hva"])
def test_a_stored_basis_is_ignored(tmp_path, capsys, ansatz):
    # the bitstrings follow from the grid and the sector, so a states record
    # left in an older file is not read, even when it lies
    assert_planted_file_is_a_hit(tmp_path, ansatz, plant_stored_basis)


def test_a_site_file_without_its_rows_record_is_rebuilt(tmp_path, capsys):
    # a site-register file written while the whole sector's rows were left
    # out, to be read as every row: every kept matrix now names its rows
    settings = {"u": 4.0, "ansatz": "hva", "max_inner_steps": 20, "layers": 2}
    _, cold = run_config(tmp_path, "cold", **settings)
    cache, = (tmp_path / "cache").glob("ground-*.npys")
    saved = cache.read_bytes()
    fields = read_fields(cache, None)
    np.testing.assert_array_equal(fields.pop("matrix_rows"), np.arange(len(fields["vectors"])))
    write_fields(cache, fields, None)
    _, warm = run_config(tmp_path, "warm", **settings)
    assert run_artifacts(warm) == run_artifacts(cold)
    assert cache.read_bytes() == saved  # rebuilt


def test_a_ground_file_of_another_sector_is_rebuilt(tmp_path, capsys):
    # 3x3: sector (4,5) has as many states as (5,4), so a file whose n_up and
    # n_down records are swapped still fits its vectors and rows
    settings = {"nx": 3, "ny": 3, "u": 6.0, "max_epochs": 1, "max_inner_steps": 2}
    code, first = run_config(tmp_path, "one", **settings)
    cache, = (tmp_path / "cache").glob("ground-*.npys")
    saved = cache.read_bytes()
    fields = read_fields(cache, None)
    resave(cache, n_up=fields["n_down"], n_down=fields["n_up"])
    again_code, again = run_config(tmp_path, "again", **settings)
    assert again_code == code == 2
    assert_same_artifacts(first, again)
    assert cache.read_bytes() == saved  # rebuilt


def plant_moved_row(path: Path) -> None:
    # the first row of the block with a free next position moves there: the
    # rows stay ascending, in range and fit the matrix, but one of the
    # bitstrings they name lies outside the block the pool keeps closed
    rows = read_fields(path, None)["matrix_rows"].copy()
    k = next(k for k, row in enumerate(rows) if row + 1 not in rows)
    rows[k] += 1
    resave(path, matrix_rows=rows)


def test_a_block_the_pool_leaves_is_one_error_line(tmp_path, capsys):
    run_config(tmp_path, "one", u=4.0, max_epochs=1)
    capsys.readouterr()
    cache, = (tmp_path / "cache").glob("ground-*.npys")
    plant_moved_row(cache)
    files = {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()}
    code, again = run_config(tmp_path, "again", u=4.0, max_epochs=1)
    assert code == 1
    err = one_error_line(capsys)
    assert str(tmp_path / "cache") in err and "pool operator leaves the sector" in err
    assert list(again.iterdir()) == []  # no artifact
    assert {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()} == files


@pytest.mark.parametrize("settings", [
    pytest.param({"nx": 3, "ny": 3, "u": 6.0}, id="adaptive-3x3"),
    pytest.param({"nx": 2, "ny": 4, "ansatz": "hva", "layers": 1}, id="hva-2x4"),
])
def test_warm_run_builds_the_sector_basis_once(tmp_path, capsys, settings):
    settings = {**settings, "max_epochs": 1, "max_inner_steps": 2}
    run_config(tmp_path, "cold", **settings)
    sector_basis.cache_clear()
    code, _ = run_config(tmp_path, "warm", **settings)
    assert code in (0, 2)
    assert sector_basis.cache_info().misses == 1


@pytest.mark.parametrize("layers", [0, 100000000])
def test_adaptive_run_ignores_layers(tmp_path, capsys, layers):
    # only the layered ansatz has layers, as only the adaptive one has r
    _, plain = run_config(tmp_path, "plain", u=4.0, max_epochs=1)
    code, layered = run_config(tmp_path, "layered", u=4.0, max_epochs=1, layers=layers)
    assert code == 2
    assert run_artifacts(layered) == run_artifacts(plain)


def test_a_row_moved_in_place_is_rebuilt(tmp_path, capsys):
    # the moved row above, written over the rows record's bytes as damage
    # would leave them, with the record's crc as it was: no longer a block
    # the pool leaves, but a file the load refuses, rebuilt to a clean run's
    code, first = run_config(tmp_path, "one", u=4.0, max_epochs=1)
    cache, = (tmp_path / "cache").glob("ground-*.npys")
    saved = cache.read_bytes()
    rows = read_fields(cache, None)["matrix_rows"]
    moved = rows.copy()
    k = next(k for k, row in enumerate(rows) if row + 1 not in rows)
    moved[k] += 1
    at = saved.index(rows.tobytes())
    cache.write_bytes(saved[:at] + moved.tobytes() + saved[at + rows.nbytes:])
    again_code, again = run_config(tmp_path, "again", u=4.0, max_epochs=1)
    assert again_code == code == 2
    assert_same_artifacts(first, again)
    assert cache.read_bytes() == saved  # rebuilt


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["ground", "pool"]), offset=st.integers(0, 1 << 20),
       flip=st.integers(1, 255))
def test_a_flipped_byte_in_a_cache_file_is_rebuilt(tmp_path_factory, kind, offset, flip):
    # any one byte of either 2x2 cache file, header, data or crc, changed:
    # the next run rebuilds that file and writes a clean-cache run's bytes
    tmp_path = tmp_path_factory.mktemp("flip")
    code, first = run_config(tmp_path, "one", u=4.0, max_epochs=1)
    clean = {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()}
    path, = (tmp_path / "cache").glob(f"{kind}-*.npys")
    damaged = bytearray(clean[path.name])
    damaged[offset % len(damaged)] ^= flip
    path.write_bytes(damaged)
    again_code, again = run_config(tmp_path, "again", u=4.0, max_epochs=1)
    assert again_code == code == 2
    assert_same_artifacts(first, again)
    assert {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()} == clean


def test_a_crc_valid_column_out_of_range_is_rebuilt(tmp_path, capsys):
    # a 2x2 ground file whose records all pass their crcs, but whose kept
    # matrix has a column 10**6: its mat-vec would read outside the vector
    # and end the run in a segfault (exit -11), so the load refuses the file
    # and the run rebuilds it; the warm run is a child process, so a crash
    # fails this test, not the session
    code, first = run_config(tmp_path, "one", u=4.0, max_epochs=1)
    clean = {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()}
    artifacts = run_artifacts(first)
    cache, = (tmp_path / "cache").glob("ground-*.npys")
    plant_index_out_of_range(cache)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    again = subprocess.run([sys.executable, "-c", "import sys\nfrom vipsa.cli import main\n"
                            f"sys.exit(main(['run', {str(tmp_path / 'one.cfg')!r}]))"],
                           capture_output=True, text=True, env=env)
    assert again.returncode == code == 2, again.stderr
    assert run_artifacts(first) == artifacts
    assert {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()} == clean


@settings(max_examples=10, deadline=None)
@given(ansatz=st.sampled_from(["vipsa", "hva"]), at=st.integers(0, 1 << 20),
       plant=st.sampled_from(["column", "row pointer", "nan"]), above=st.booleans(),
       reach=st.integers(0, 1 << 30))
def test_a_malformed_kept_matrix_is_rebuilt(tmp_path_factory, ansatz, at, plant, above, reach):
    # either register's 2x2 ground file (the adaptive run's sea block, the
    # layered run's whole sector) with crc-valid records but a kept matrix
    # that is not a well-formed CSR: one column out of range on either side,
    # two row pointers that fall, or a NaN entry; the next run rebuilds the
    # file and writes a clean-cache run's bytes
    from vipsa.hamiltonians import GroundSpace

    tmp_path = tmp_path_factory.mktemp("csr")
    settings = {"u": 4.0, "ansatz": ansatz, "max_epochs": 1, "max_inner_steps": 2, "layers": 1}
    code, first = run_config(tmp_path, "one", **settings)
    clean = {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()}
    path, = (tmp_path / "cache").glob("ground-*.npys")
    if plant == "column":
        fields = read_fields(path, None)
        indices = fields["matrix_indices"].copy()
        indices[at % len(indices)] = len(fields["matrix_rows"]) + reach if above else -1 - reach
        resave(path, matrix_indices=indices)
    elif plant == "row pointer":
        plant_falling_row_pointer(path, at)
    else:
        plant_nan_entry(path, at)
    # refused on load, before a mat-vec could read outside the vector
    with pytest.raises(ValueError, match="sector matrix"):
        GroundSpace.load(path)
    again_code, again = run_config(tmp_path, "again", **settings)
    assert again_code == code
    assert_same_artifacts(first, again)
    assert {path.name: path.read_bytes() for path in (tmp_path / "cache").iterdir()} == clean


def test_3x3_cache_file_holds_the_sea_block(tmp_path):
    # 3x3 U=6 (5,4): the sea's block is one of 9 blocks of 1764 states, and
    # its matrix stores 89 964 entries over the block's own rows, where the
    # whole sector's held 809 676
    from vipsa.cli import cached_ground_space

    grid = GridSpec.make(3, 3, u=6.0)
    label, block = sea_block(grid, 5, 4)
    cached_ground_space(grid, 5, 4, "k", tmp_path)
    path, = tmp_path.glob("ground-k-3x3-*.npys")
    fields = read_fields(path, None)
    assert fields["matrix_data"].size == fields["matrix_indices"].size == 89964
    assert fields["matrix_shape"].tolist() == [1764, 1764]
    states = sector_basis(grid.n_qubits, 5, 4)
    assert label == 3 and states[fields["matrix_rows"]].tobytes() == block.tobytes()
    assert "states" not in fields  # they follow from the grid and the sector
    assert path.stat().st_size < 2_000_000


def test_3x3_pool_cache_file_holds_the_sea_block(tmp_path):
    # 3x3 U=6 (5,4): the pool's tables over the sea's 1764-state block hold
    # 31 580 entries, where those over the whole sector held 284 200 in a
    # file of 6 894 964 bytes
    from vipsa.cli import cached_pool_tables

    grid = GridSpec.make(3, 3, u=6.0)
    cached_pool_tables(grid, 5, 4, sea_block(grid, 5, 4), tmp_path)
    path, = tmp_path.glob("pool-3x3-*.npys")
    fields = read_fields(path, None)
    assert fields["src"].size == fields["dst"].size == fields["sign"].size == 31580
    assert int(fields["offsets"][-1]) == 31580
    assert fields["states"].tobytes() == sea_block(grid, 5, 4)[1].tobytes()
    assert path.stat().st_size < 1_000_000


def test_adaptive_manifest_reports_the_sector_and_block_sizes(tmp_path, capsys):
    # 3x3 (5,4): the run's states live on the sea's block of 1764 of the
    # sector's 15 876 states
    code, out = run_config(tmp_path, "sizes", nx=3, ny=3, u=6.0, max_epochs=1,
                           max_inner_steps=1, r=1.0, cache=None)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["sector_states"], manifest["block_states"]) == (15876, 1764)


def plant_whole_sector_pool(path: Path) -> None:
    # what the file held before the pool moved onto the sea's block: tables
    # over the whole sector, under the key that did not name the block
    from vipsa.cli import _grid_key
    from vipsa.core import PoolTables

    grid = GridSpec.make(2, 2, u=4.0)
    PoolTables.build(grid, sector_basis(grid.n_qubits, 2, 2)).save(
        path, _grid_key(grid, 2, 2, "pool"))


def plant_sector_tables_under_the_block_key(path: Path) -> None:
    # tables over the whole sector under the file's own key, which names the
    # block: the key alone cannot refuse them
    from vipsa.core import PoolTables

    grid = GridSpec.make(2, 2, u=4.0)
    fields = read_fields(path, None)
    PoolTables.build(grid, sector_basis(grid.n_qubits, 2, 2)).save(path, str(fields["key"]))


def plant_stray_position(path: Path) -> None:
    fields = read_fields(path, None)
    dst = fields["dst"].copy()
    dst[0] = len(fields["states"])
    resave(path, dst=dst)


def plant_misaligned_offsets(path: Path) -> None:
    offsets = read_fields(path, None)["offsets"]
    # one table fewer than labels, still ending at the length of the arrays
    resave(path, offsets=np.delete(offsets, 1))


def plant_float_offsets(path: Path) -> None:
    # the same values as float64: no slice can be cut at them
    resave(path, offsets=read_fields(path, None)["offsets"].astype(float))


def plant_float_positions(path: Path) -> None:
    # the same values as float64: no gather can index by them
    resave(path, src=read_fields(path, None)["src"].astype(float))


@pytest.mark.parametrize("damage", FILE_DAMAGE + [plant_stray_position, plant_misaligned_offsets,
                                                  plant_whole_sector_pool,
                                                  plant_sector_tables_under_the_block_key,
                                                  plant_float_offsets, plant_float_positions])
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


# every damage that leaves a file its load cannot use: FILE_DAMAGE on either
# kind, each planted file load refuses, and pool tables where the ground
# space belongs
UNUSABLE_FILES = (
    [("ground", damage) for damage in FILE_DAMAGE + [
        plant_old_format, plant_unlabelled, plant_whole_sector_matrix, plant_sector_rows_matrix,
        plant_label_for_rows, plant_misfit_matrix, plant_rows_out_of_range, plant_unsorted_rows,
        plant_rows_one_short, plant_misfit_vectors, plant_scalar_vector, plant_whole_sector_pool,
        plant_sector_tables_under_the_block_key, plant_index_out_of_range,
        plant_falling_row_pointer, plant_nan_entry, plant_complex_block_matrix]]
    + [("pool", damage) for damage in FILE_DAMAGE + [
        plant_whole_sector_pool, plant_stray_position, plant_misaligned_offsets,
        plant_float_offsets, plant_float_positions]])


@pytest.fixture(scope="module")
def cache_2x2(tmp_path_factory):
    """Name, bytes and key of each file of the 2x2 adaptive cache at U = 4,
    by kind, as a run writes them."""
    from vipsa.cli import cached_ground_space, cached_pool_tables

    grid = GridSpec.make(2, 2, u=4.0)
    directory = tmp_path_factory.mktemp("cache")
    cached_ground_space(grid, 2, 2, "k", directory)
    cached_pool_tables(grid, 2, 2, sea_block(grid, 2, 2), directory)
    return {path.name.split("-")[0]: (path.name, path.read_bytes(), str(read_fields(path)["key"]))
            for path in directory.iterdir()}


@pytest.mark.parametrize("kind, damage", [pytest.param(kind, damage, id=f"{kind}-{damage.__name__}")
                                          for kind, damage in UNUSABLE_FILES])
def test_an_unusable_cache_file_is_one_error(tmp_path, cache_2x2, kind, damage):
    # a load raises ValueError for any file it cannot use, which is what the
    # cache rebuilds; no KeyError for a missing field, no TypeError for a
    # field of another shape
    from vipsa.core import PoolTables
    from vipsa.hamiltonians import GroundSpace

    name, saved, key = cache_2x2[kind]
    path = tmp_path / name
    path.write_bytes(saved)
    damage(path)
    load = {"ground": GroundSpace.load, "pool": PoolTables.load}[kind]
    with pytest.raises(ValueError):
        load(path, key)
    try:
        load(path)  # with no key asked for, the file loads or is refused the same way
    except ValueError:
        pass


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
    monkeypatch.setattr(hamiltonians.SiteHamiltonian, "rows", refuse)
    for register, space in cold.items():
        warm = cached_ground_space(grid, 2, 2, register, tmp_path)
        np.testing.assert_array_equal(warm.vectors, space.vectors)


def run_artifacts(out: Path) -> dict:
    return {name: (out / name).read_bytes()
            for name in ("trace.csv", "steps.csv", "manifest.json")}


def refuse(*args, **kwargs):
    raise AssertionError("Hamiltonian built on a cache hit")


HAMILTONIAN_BUILDERS = [("hamiltonians", "sector_matrix"), ("hamiltonians", "build_kspace"),
                        ("hamiltonians", "build_real"), ("core", "build_kspace")]


def refuse_hamiltonian_builds(monkeypatch) -> None:
    """Make every Hamiltonian build raise: the Pauli sums, their sector
    matrices, and the site register's rows from its hopping tables."""
    import vipsa

    for module, name in HAMILTONIAN_BUILDERS:
        monkeypatch.setattr(getattr(vipsa, module), name, refuse)
    monkeypatch.setattr(vipsa.hamiltonians.SiteHamiltonian, "rows", refuse)


def test_a_site_ground_file_of_the_pauli_sum_build_is_rebuilt(tmp_path, capsys, monkeypatch):
    # 2x3 at U = 0.3: the Pauli sum's diagonal differs from the hopping
    # tables' by up to an ulp, and a site ground file written while the site
    # register was built from it had a key that named no builder.  Such a
    # file is not read: the first cached run solves and writes its own, the
    # next reads that one, and both write the bytes of an uncached run
    from vipsa import cache, hamiltonians
    from vipsa.cli import _grid_key

    grid = GridSpec.make(2, 3, u=0.3)
    tables = site_space(grid, 3, 3)
    pauli = dataclasses.replace(tables, matrix=hamiltonians.sector_matrix(
        hamiltonians.build_real(grid).pauli, tables.states, grid.n_qubits))
    assert abs(pauli.matrix - tables.matrix).max() > 0
    old_key = _grid_key(grid, 3, 3, "real solved on momentum blocks")
    (tmp_path / "cache").mkdir()
    cache.cached(tmp_path / "cache", f"ground-real-{grid.label()}", old_key,
                 hamiltonians.GroundSpace, lambda: pauli, lambda space: True)
    built = []
    rows = hamiltonians.SiteHamiltonian.rows
    monkeypatch.setattr(hamiltonians.SiteHamiltonian, "rows",
                        lambda h, states, positions: built.append(len(positions))
                        or rows(h, states, positions))
    settings = {"nx": 2, "ny": 3, "u": 0.3, "ansatz": "hva", "max_inner_steps": 3, "layers": 1}
    _, uncached = run_config(tmp_path, "uncached", cache=None, **settings)
    built.clear()
    _, first = run_config(tmp_path, "first", **settings)
    assert built == [400]
    _, warm = run_config(tmp_path, "warm", **settings)
    assert built == [400]
    assert run_artifacts(first) == run_artifacts(warm) == run_artifacts(uncached)


def test_a_mode_ground_file_of_the_older_label_packing_is_rebuilt(tmp_path, capsys):
    # open/open 3x3 (2,1) at U = 4: the sea lies at (1, 0), label 1 under
    # both packings, and the ground level at (1, 0) and (0, 1), labels 1 and
    # 3, which the older lx + 2*ly packing stored as 1 and 2.  A ground file
    # written then, under that time's key, reads (0, 1) as (2, 0) now; only
    # the key's text tells it apart, so the run rebuilds it and writes what
    # a cold run does
    from vipsa import cache, hamiltonians
    from vipsa.cli import _grid_key, solve_ground_space
    from vipsa.lattice import label_momenta, sea_label

    grid = GridSpec(3, 3, "open", "open", u=4.0)
    run = {"nx": 3, "ny": 3, "bc_x": "open", "bc_y": "open", "n_up": 2, "n_down": 1,
           "max_epochs": 1, "max_inner_steps": 2}
    assert sea_label(grid, 2, 1) == 1
    space = solve_ground_space(grid, 2, 1, "k", keep=True)
    assert space.blocks.tolist() == [1, 3]
    packed = np.array([lx + 2 * ly for lx, ly in (label_momenta(grid, b) for b in space.blocks)])
    (tmp_path / "cache").mkdir()
    cache.cached(tmp_path / "cache", f"ground-k-{grid.label()}",
                 _grid_key(grid, 2, 1, "k solved on block 1"), hamiltonians.GroundSpace,
                 lambda: dataclasses.replace(space, blocks=packed), lambda space: True)
    _, cold = run_config(tmp_path, "cold", cache=tmp_path / "empty", **run)
    _, planted = run_config(tmp_path, "planted", **run)
    manifest = json.loads((planted / "manifest.json").read_text())
    assert manifest["reference_block"] == [1, 0]
    assert manifest["ground_blocks"] == [[1, 0], [0, 1]]
    assert run_artifacts(planted) == run_artifacts(cold)


def test_site_ed_and_a_cold_layered_run_build_no_pauli_strings(tmp_path, capsys, monkeypatch):
    # with the Jordan-Wigner map and the Pauli-sum sector matrix made to
    # raise at every name a vipsa module looks them up by, the site
    # register's ED table and a cold layered run write the same bytes
    def outputs(name):
        table = tmp_path / f"{name}.csv"
        assert main(["ed", "--grid", "3x3", "--u", "0.3", "--sector", "3,3",
                     "--register", "real", "--csv", str(table)]) == 0
        _, out = run_config(tmp_path, name, nx=2, ny=3, u=0.3, ansatz="hva",
                            cache=tmp_path / f"{name}-cache", max_inner_steps=3, layers=1)
        return table.read_bytes(), run_artifacts(out)

    expected = outputs("free")
    refuse_pauli_path(monkeypatch)
    assert outputs("refused") == expected


@pytest.mark.parametrize("ansatz", ["vipsa", "hva"])
def test_warm_run_loads_the_hamiltonian(tmp_path, capsys, monkeypatch, ansatz):
    settings = {"u": 4.0, "ansatz": ansatz, "max_epochs": 2, "max_inner_steps": 20,
                "layers": 2}
    _, cold = run_config(tmp_path, "cold", **settings)
    refuse_hamiltonian_builds(monkeypatch)
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


def test_warm_run_labels_only_the_sea(tmp_path, capsys, monkeypatch):
    # a warm 3x3 (5,4) adaptive run takes the sea's block from the rows its
    # ground file keeps: momentum_labels sees single bitstrings only, never a
    # pass over the 15 876-state sector, in every module that binds the name
    import importlib
    import pkgutil

    import vipsa

    shapes = []

    def single_bitstrings(labels):
        def checked(grid, states):
            shapes.append(np.shape(states))
            assert np.ndim(states) == 0, f"momentum_labels over {np.shape(states)} bitstrings"
            return labels(grid, states)
        return checked

    settings = {"nx": 3, "ny": 3, "u": 6.0, "max_epochs": 1, "max_inner_steps": 2}
    _, cold = run_config(tmp_path, "cold", **settings)
    modules = [vipsa] + [importlib.import_module(f"vipsa.{info.name}")
                         for info in pkgutil.iter_modules(vipsa.__path__)]
    for module in modules:
        if hasattr(module, "momentum_labels"):
            monkeypatch.setattr(module, "momentum_labels",
                                single_bitstrings(module.momentum_labels))
    code, warm = run_config(tmp_path, "warm", **settings)
    assert code in (0, 2) and shapes
    assert run_artifacts(warm) == run_artifacts(cold)


@pytest.mark.parametrize("ansatz, shape, cold", [
    # 2x2 (2,2), 36 states: the mode register's ED builds the blocks of
    # labels 0, 1 and 3, one per point-group class, and the sea's block is
    # label 0's; the site register builds its whole sector's rows once, and
    # folds its blocks from them
    pytest.param("vipsa", (2, 2), [12, 8, 8], id="vipsa"),
    pytest.param("hva", (2, 2), [36], id="hva"),
    # 2x3 (3,3), 400 states: the sea's label 4 first, in place of label 2,
    # whose class it shares, then labels 0, 1 and 3
    pytest.param("vipsa", (2, 3), [66, 68, 68, 66], id="vipsa-2x3"),
])
def test_cold_run_builds_the_sector_matrix_once(tmp_path, capsys, monkeypatch, ansatz, shape,
                                                cold):
    from vipsa import hamiltonians

    calls = []
    build, rows = hamiltonians.sector_matrix, hamiltonians.SiteHamiltonian.rows

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return build(*args, **kwargs)

    def counted_rows(h, states, positions):
        calls.append(len(positions))
        return rows(h, states, positions)

    monkeypatch.setattr(hamiltonians, "sector_matrix", counted)
    monkeypatch.setattr(hamiltonians.SiteHamiltonian, "rows", counted_rows)
    settings = {"nx": shape[0], "ny": shape[1], "u": 4.0, "ansatz": ansatz, "max_epochs": 2,
                "max_inner_steps": 20, "layers": 2}
    _, uncached = run_config(tmp_path, "uncached", cache=None, **settings)
    # an adaptive run never builds the whole mode-register sector
    assert calls == cold
    _, filled = run_config(tmp_path, "filled", **settings)
    assert calls == cold * 2
    _, warm = run_config(tmp_path, "warm", **settings)
    assert calls == cold * 2
    assert not (tmp_path / "off").exists()
    assert run_artifacts(uncached) == run_artifacts(filled) == run_artifacts(warm)


def test_cold_3x3_ground_space_compiles_h_once(monkeypatch):
    # 3x3 (5,4): three point-group classes, the sea's label 3 standing for
    # label 1's; H is compiled once for the three block builds
    from vipsa import fermions, hamiltonians
    from vipsa.cli import cached_ground_space

    compiled, built = [], []
    compile_h, build = fermions._compile, hamiltonians.sector_matrix
    monkeypatch.setattr(fermions, "_compile", lambda *arrays: compiled.append(1) or compile_h(*arrays))
    monkeypatch.setattr(hamiltonians, "sector_matrix",
                        lambda h, states, n: built.append(len(states)) or build(h, states, n))
    grid = GridSpec.make(3, 3, u=6.0)
    label, block = sea_block(grid, 5, 4)
    space = cached_ground_space(grid, 5, 4, "k", None)
    assert len(compiled) == 1 and len(built) == 3
    assert label == 3 and space.states[space.matrix_rows].tobytes() == block.tobytes()
    assert len(block) in built


def test_cold_runs_build_no_letter_maps(tmp_path, capsys, monkeypatch):
    # from Jordan-Wigner to the sector matrix the Hamiltonians stay on masks
    from vipsa import fermions

    def refuse(*args, **kwargs):
        raise AssertionError("letter map built on a cold path")

    monkeypatch.setattr(fermions, "_letters", refuse)
    for ansatz in ("vipsa", "hva"):
        code, _ = run_config(tmp_path, ansatz, ansatz=ansatz, cache=None, max_epochs=1,
                             max_inner_steps=2, layers=1)
        assert code in (0, 2)
    assert main(["ed", "--grid", "2x3", "--u", "4", "--register", "both"]) == 0


def test_cold_run_builds_the_scattering_table_once(tmp_path, capsys):
    # the run's H and its pool read one table
    from vipsa.hamiltonians import interaction_quadruples

    interaction_quadruples.cache_clear()
    code, _ = run_config(tmp_path, "cold", nx=2, ny=3, max_epochs=1, max_inner_steps=2)
    assert code in (0, 2)
    info = interaction_quadruples.cache_info()
    assert info.misses == 1 and info.hits >= 1


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


UNRESOLVED = "the largest coupling the mode register resolves"


@pytest.mark.parametrize("register, refused", [("k", UNRESOLVED), ("real", "non-finite")],
                         ids=["k", "real"])
def test_ed_overflowing_hamiltonian_is_one_line(capsys, recwarn, register, refused):
    # U = 1e308 is finite, but the 2x2 site sector matrix's sums overflow;
    # the mode register refuses so large a coupling before it builds one
    assert main(["ed", "--grid", "2x2", "--u", "1e308", "--register", register]) == 1
    assert refused in one_error_line(capsys)
    assert not recwarn.list


@pytest.mark.parametrize("ansatz, u, refused", [("vipsa", "1e308", UNRESOLVED),
                                                ("hva", "1e308", "non-finite"),
                                                ("vipsa", "1e20", UNRESOLVED)],
                         ids=["vipsa", "hva", "vipsa-1e20"])
def test_run_overflowing_hamiltonian_is_one_line(tmp_path, capsys, recwarn, ansatz, u, refused):
    # the mode register cannot resolve U = 1e20, so an adaptive run there
    # would optimize against a wrong H and write its artifacts
    cache, out = tmp_path / "cache", tmp_path / "out"
    config = write(tmp_path / "huge.cfg", f"nx = 2\nny = 3\nu = {u}\nansatz = {ansatz}\n"
                                          f"output = {out}\ncache_dir = {cache}\n")
    assert main(["run", str(config)]) == 1
    assert refused in one_error_line(capsys)
    assert not recwarn.list
    assert not any(cache.iterdir()) and not any(out.iterdir())


@pytest.mark.parametrize("register", ["k", "both"])
@pytest.mark.parametrize("u", ["1e12", "1e20"])
def test_ed_refuses_a_coupling_the_mode_register_cannot_resolve(capsys, recwarn, u, register):
    # the mode register's U/N sums keep about U eps each, so at U = 1e20
    # its ground energy would be -35137.42, against the site register's 0
    assert main(["ed", "--grid", "2x3", "--u", u, "--register", register]) == 1
    assert one_error_line(capsys) == (f"error: |U| = {float(u):g} is above "
                                      f"{MODE_COUPLING_LIMIT:g}, {UNRESOLVED}\n")
    assert not recwarn.list


def test_the_site_register_solves_a_coupling_the_mode_register_refuses(capsys):
    assert main(["ed", "--grid", "2x3", "--u", "1e20", "--register", "real"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[4:] == ["real", "0.00000000", "20"]


def test_a_config_that_is_not_utf8_is_one_line(tmp_path, capsys):
    cache, out = tmp_path / "cache", tmp_path / "out"
    config = tmp_path / "latin1.cfg"
    config.write_bytes(f"nx = 2\nny = 2\noutput = {out}\ncache_dir = {cache}\n".encode()
                       + "# U in \xe9nergie units\n".encode("latin-1"))
    assert main(["run", str(config)]) == 1
    assert one_error_line(capsys).startswith(f"error: {config}: 'utf-8' codec can't decode")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.cfg"]


def test_a_refusal_from_any_library_call_is_one_line(capsys, monkeypatch):
    # main renders every ValueError, not only those of calls a command wraps
    from vipsa import hamiltonians

    def refuse(grid):
        raise ValueError(f"no table for {grid.label()}")

    monkeypatch.setattr(hamiltonians, "interaction_quadruples", refuse)
    assert main(["pool-info", "--grid", "2x2"]) == 1
    assert one_error_line(capsys) == "error: no table for 2x2\n"


@pytest.mark.parametrize("u, refused", [
    ("1e78", "second moment of the gradient at inner step 2"),
    ("1e154", "gradient at the starting point"),
    ("1e200", "gradient at the starting point"),
], ids=["1e78", "1e154", "1e200"])
def test_layered_run_at_a_huge_coupling_is_one_line(tmp_path, capsys, recwarn, u, refused):
    # the interaction gate's gradient grows as U^2: from U = 1e154 the
    # first one is nan, and at U = 1e78 it is finite but its square, ADAM's
    # second moment, is not; the optimizer stops there, before any artifact
    out = tmp_path / "out"
    config = write(tmp_path / "huge.cfg", f"nx = 2\nny = 3\nu = {u}\nansatz = hva\n"
                                          f"layers = 2\nmax_inner_steps = 3\n"
                                          f"output = {out}\ncache = off\n")
    assert main(["run", str(config)]) == 1
    assert one_error_line(capsys).startswith(f"error: non-finite {refused}")
    assert not recwarn.list
    assert not any(out.iterdir())


def test_ed_lanczos_that_does_not_converge_is_one_line(capsys, monkeypatch):
    # with every block bound for Lanczos, ARPACK leaves the 132-state site
    # blocks of 2x3 at U = 1e-9 one vector short of their window
    from vipsa import hamiltonians

    monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", 0)
    assert main(["ed", "--grid", "2x3", "--u", "1e-9", "--register", "real"]) == 1
    assert "Lanczos failed on a block of 132 states" in one_error_line(capsys)


def test_ed_that_cannot_converge_fails_within_seconds():
    # no window of 3x3 (5,4)'s 1764-state mode block of label 0 converges at
    # U = 1e303, a coupling `vipsa ed` refuses before any solve, so the block
    # is built here; eigsh's restarts are bounded, so the error comes after
    # about half a second, where eigsh's own bound of 10 per state spun for
    # 16 s
    from vipsa.hamiltonians import _lowest_eigenpairs, sector_matrix

    grid = GridSpec.make(3, 3, u=1e303)
    states = sector_basis(grid.n_qubits, 5, 4)
    block = sector_matrix(kspace_hamiltonian(grid).pauli,
                          states[momentum_labels(grid, states) == 0], grid.n_qubits)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^Lanczos failed on a block of 1764 states: "
                                         r"ARPACK error -1: No convergence \("):
        _lowest_eigenpairs(block)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("ansatz", ["vipsa", "hva"])
def test_run_lanczos_failure_is_one_line(tmp_path, capsys, monkeypatch, ansatz):
    # a failed ground solve writes no artifact and leaves no cache file,
    # partial or whole
    import scipy.sparse.linalg

    from vipsa import hamiltonians

    def fail(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: No convergence",
                                                      None, None)

    monkeypatch.setattr(hamiltonians, "DENSE_SECTOR_CUTOFF", 0)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    code, out = run_config(tmp_path, "out", nx=2, ny=3, ansatz=ansatz)
    assert code == 1
    assert "Lanczos failed" in one_error_line(capsys)
    assert not any((tmp_path / "cache").iterdir()) and not any(out.iterdir())


# the cache file names of the benchmark's seed-0 fills, as earlier versions
# wrote them: a key that changes its bytes would miss every such file.  The
# mode-register ground file's key names the lx + nx*ly label packing
FILL_CACHE_FILES = [
    ("nx = 3\nny = 3\nu = 6.0\nansatz = vipsa\nconvergence_window = 4\n",
     ["ground-k-3x3-75829a6ad114.npys", "pool-3x3-d2dc531e6711.npys"]),
    ("nx = 2\nny = 4\nu = 4.0\nansatz = hva\nconvergence_window = 3\n",
     ["ground-real-2x4-a3dd765abdf5.npys"]),
]


@pytest.mark.parametrize("body, names", FILL_CACHE_FILES, ids=["adaptive_3x3", "hva_2x4"])
def test_cache_file_names_are_stable(tmp_path, capsys, body, names):
    config = write(tmp_path / "fill.cfg", body + "max_epochs = 1\nmax_inner_steps = 1\n"
                   f"r = 1.0\nlayers = 1\ncache_dir = {tmp_path / 'cache'}\n"
                   f"output = {tmp_path / 'fill'}\n")
    assert main(["run", str(config)]) in (0, 2)
    assert sorted(path.name for path in (tmp_path / "cache").iterdir()) == names


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
    ("nx = 2\nny = 2\nansatz = hva\nlayers = 0\n", "layers"),
    ("nx = 2\nny = 2\nansatz = hva\nlayers = 100000000\n", "a layered circuit may hold"),
    ("nx = 2\nny = 2\nbc_x = twisted\n", "twisted"),
    ("nx = 2\nny = 3\nbc_x = periodic\n", "periodic x axis"),
    ("nx = 4\nny = 5\n", "32-qubit"),
    ("nx = 4\nny = 4\n", "165636900 states"),
])
def test_run_rejects_before_building_or_writing(tmp_path, capsys, monkeypatch, body, detail):
    monkeypatch.chdir(tmp_path)
    refuse_hamiltonian_builds(monkeypatch)
    config = write(tmp_path / "bad.cfg", body)
    assert main(["run", str(config)]) == 1
    assert detail in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == [config]  # nothing written


@pytest.mark.parametrize("argv, detail", [
    (["--grid", "4x5", "--u", "1", "--sector", "1,0"], "32-qubit"),
    (["--grid", "4x5", "--u", "1"], "32-qubit"),
    (["--grid", "4x4", "--u", "1"], "165636900 states"),
    (["--grid", "2x2", "--u", ","], "coupling list"),
])
def test_ed_rejects_before_building(capsys, monkeypatch, argv, detail):
    refuse_hamiltonian_builds(monkeypatch)
    assert main(["ed", *argv]) == 1
    assert detail in one_error_line(capsys)


@pytest.mark.parametrize("key", ["cache", "output"])
def test_run_rejects_a_directory_that_is_a_file(tmp_path, capsys, monkeypatch, key):
    refuse_hamiltonian_builds(monkeypatch)
    taken = write(tmp_path / "taken", "")
    code, _ = run_config(tmp_path, "blocked", **{key: taken})
    assert code == 1
    assert str(taken) in one_error_line(capsys)


def test_ed_csv_into_a_missing_directory_is_one_line(tmp_path, capsys, monkeypatch):
    # the path is checked before any Hamiltonian is built, so nothing is solved
    refuse_hamiltonian_builds(monkeypatch)
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


# Each case lays out one file that a command cannot read or write, runs the
# command and returns its exit code and the path the error must name.
def small_run(tmp_path, **fields) -> int:
    code, _ = run_config(tmp_path, "out", max_epochs=1, max_inner_steps=2, **fields)
    return code


def occupy(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def missing_config(tmp_path, ground_name):
    path = tmp_path / "missing.cfg"
    return main(["run", str(path)]), path


def output_is_a_file(tmp_path, ground_name):
    taken = write(tmp_path / "taken", "")
    return small_run(tmp_path, output=taken), taken


def trace_is_a_directory(tmp_path, ground_name):
    blocked = occupy(tmp_path / "out" / "trace.csv")
    return small_run(tmp_path), blocked


def manifest_is_a_directory(tmp_path, ground_name):
    blocked = occupy(tmp_path / "out" / "manifest.json")
    return small_run(tmp_path), blocked


def ground_file_is_a_directory(tmp_path, ground_name):
    # the load fails and the rebuild is solved, but cannot be put in place
    blocked = occupy(tmp_path / "cache" / ground_name)
    return small_run(tmp_path), blocked


def ed_csv_is_a_directory(tmp_path, ground_name):
    blocked = occupy(tmp_path / "ed.csv")
    return main(["ed", "--grid", "2x2", "--u", "4", "--csv", str(blocked)]), blocked


def compare_of_a_missing_run(tmp_path, ground_name):
    missing = tmp_path / "missing"
    return main(["compare", str(missing)]), missing


@pytest.mark.parametrize("case", [
    missing_config, output_is_a_file, trace_is_a_directory, manifest_is_a_directory,
    ground_file_is_a_directory, ed_csv_is_a_directory, compare_of_a_missing_run,
], ids=lambda case: case.__name__)
def test_a_file_the_cli_cannot_read_or_write_is_one_error_line(tmp_path, capsys, cache_2x2,
                                                               case):
    code, path = case(tmp_path, cache_2x2["ground"][0])
    assert code == 1
    assert str(path) in one_error_line(capsys)
    assert not list(tmp_path.glob("cache/*.tmp"))  # no partial cache file is left


@pytest.mark.parametrize("case", [
    ground_file_is_a_directory, trace_is_a_directory, manifest_is_a_directory,
], ids=lambda case: case.__name__)
def test_a_path_a_run_cannot_write_is_refused_before_anything_is_built(
        tmp_path, capsys, monkeypatch, cache_2x2, case):
    # the directory at the cache file's or the artifact's path is found
    # before any Hamiltonian is built, so nothing is solved only to be thrown
    # away, and no run leaves CSVs without the manifest beside them
    refuse_hamiltonian_builds(monkeypatch)
    code, path = case(tmp_path, cache_2x2["ground"][0])
    assert code == 1
    assert str(path) in one_error_line(capsys)
    assert not list(tmp_path.glob("cache/*.tmp"))
    assert not [name for name in ("trace.csv", "steps.csv") if (tmp_path / "out" / name).is_file()]


@pytest.mark.parametrize("ansatz", ["vipsa", "hva"])
def test_a_failed_manifest_write_leaves_the_run_directory_as_it_was(tmp_path, capsys,
                                                                     monkeypatch, ansatz):
    # the artifacts are written next to their names and renamed into place,
    # the manifest last: a manifest that cannot be written leaves no CSV in a
    # new directory, the last run's artifacts in an old one, and no partial file
    settings = {"ansatz": ansatz, "max_epochs": 1, "layers": 1}
    code, old = run_config(tmp_path, "old", max_inner_steps=2, **settings)
    assert code in (0, 2)
    before = {path.name: path.read_bytes() for path in old.iterdir()}
    assert sorted(before) == ["manifest.json", "steps.csv", "trace.csv"]
    write_text = Path.write_text

    def failing(path, *args, **kwargs):
        if path.name.startswith("manifest.json"):
            raise OSError(f"no space left on device: '{path}'")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)
    for name in ("new", "old"):
        capsys.readouterr()
        code, out = run_config(tmp_path, name, max_inner_steps=3, **settings)
        assert code == 1
        assert "manifest.json" in one_error_line(capsys)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == (
            before if name == "old" else {})


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


@pytest.mark.parametrize("shape", ["2x3", "2x4", "3x3"])
def test_ed_at_large_coupling_agrees_across_registers(tmp_path, capsys, shape):
    # the Hermiticity, stray-amplitude and realness checks scale with the
    # operator, so rounding residue in proportion to U does not trip them,
    # and at the largest coupling the mode register is solved at, the two
    # registers still agree
    target = tmp_path / "ed.csv"
    assert main(["ed", "--grid", shape, "--u", f"{MODE_COUPLING_LIMIT:g}", "--register", "both",
                 "--csv", str(target)]) == 0
    assert capsys.readouterr().err == ""
    k_row, real_row = read_csv(target)
    assert float(k_row["energy"]) == pytest.approx(float(real_row["energy"]), abs=1e-9)
    assert k_row["degeneracy"] == real_row["degeneracy"]


@pytest.mark.parametrize("shift, warned", [(1e-8, True), (0.0, False)], ids=["apart", "equal"])
def test_ed_warns_when_the_registers_disagree(tmp_path, capsys, monkeypatch, shift, warned):
    # one register's energy moved by more than REGISTER_AGREEMENT_TOL is one
    # warning line, after the table
    import vipsa.cli

    solve = vipsa.cli.solve_ground_space

    def shifted(grid, n_up, n_down, register):
        space = solve(grid, n_up, n_down, register)
        return dataclasses.replace(space, energy=space.energy + shift * (register == "k"))

    monkeypatch.setattr(vipsa.cli, "solve_ground_space", shifted)
    target = tmp_path / "ed.csv"
    assert main(["ed", "--grid", "2x3", "--u", "4", "--register", "both",
                 "--csv", str(target)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3 and len(read_csv(target)) == 2
    if warned:
        assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
        assert "2x3" in captured.err and "U=4" in captured.err
        assert "1.0e-08 apart" in captured.err
    else:
        assert captured.err == ""


def test_ed_warns_when_the_degeneracies_disagree(capsys, monkeypatch):
    import vipsa.cli

    monkeypatch.setattr(vipsa.cli, "solve_ground_space",
                        lambda grid, n_up, n_down, register: SimpleNamespace(
                            energy=-1.0, degeneracy=1 if register == "k" else 2))
    assert main(["ed", "--grid", "2x2", "--u", "4", "--register", "both"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and "1 (k) against 2 (real)" in err


def test_ed_free_3x3_is_the_fourfold_sea(capsys):
    # at U = 0 every sector state is a block of its own
    assert main(["ed", "--grid", "3x3", "--u", "0", "--register", "both"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[4], row[5], row[6]) for row in rows] == [("k", "-15.00000000", "4"),
                                                         ("real", "-15.00000000", "4")]


def test_ed_table_parts_a_cell_wider_than_its_column(capsys, monkeypatch):
    # an energy wider than its 16 characters still has a space before it, so
    # the row splits into its 7 fields, and a row whose cells fit keeps its
    # columns
    import vipsa.cli

    monkeypatch.setattr(vipsa.cli, "solve_ground_space",
                        lambda grid, n_up, n_down, register: SimpleNamespace(
                            energy=-8e20 if register == "k" else -1.5, degeneracy=4))
    assert main(["ed", "--grid", "2x3", "--u", "4", "--register", "both"]) == 0
    header, wide, fits = capsys.readouterr().out.splitlines()
    assert wide.split() == ["2x3", "4", "3", "3", "k", "-800000000000000000000.00000000", "4"]
    assert header == "  grid       u n_up n_down register          energy degeneracy"
    assert fits == "   2x3       4    3      3     real     -1.50000000          4"


def test_mode_register_ed_builds_one_block_per_class(capsys, monkeypatch):
    # 3x3 (5,4): 15876 states in 9 blocks of 1764, in 3 point-group classes
    from vipsa import hamiltonians

    sizes = []
    build = hamiltonians.sector_matrix
    monkeypatch.setattr(hamiltonians, "sector_matrix",
                        lambda h, states, n: sizes.append(len(states)) or build(h, states, n))
    assert main(["ed", "--grid", "3x3", "--u", "4", "--register", "k"]) == 0
    assert sizes == [1764] * 3
    assert capsys.readouterr().out.split("\n")[1].split()[-1] == "4"


def test_warm_run_imports_no_sparse_solver(tmp_path, capsys):
    # the Lanczos solver and the block solver's connectivity guard are
    # imported only by a solve, and a warm run solves nothing
    code, _ = run_config(tmp_path, "cold", max_epochs=1)
    assert code == 2
    config = tmp_path / "cold.cfg"
    probe = ("import sys\nfrom vipsa.cli import main\n"
             f"code = main(['run', {str(config)!r}])\n"
             "print(code, 'scipy.sparse.linalg' in sys.modules, "
             "'scipy.sparse.csgraph' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "2 False False"


@pytest.mark.parametrize("shape, warned", [((2, 3), True), ((2, 2), False)])
def test_run_reports_the_momentum_blocks(tmp_path, capsys, shape, warned):
    # at half filling on 2x3 the sea lies in block (0, 2) and the ground
    # state in (0, 0), so the run's fidelity stays 0
    nx, ny = shape
    out = tmp_path / "out"
    config = write(tmp_path / "run.cfg", f"nx = {nx}\nny = {ny}\nu = 4\nmax_epochs = 1\n"
                                         f"output = {out}\ncache = off\n")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    trace = read_csv(out / "trace.csv")
    if warned:
        assert manifest["reference_block"] == [0, 2] and manifest["ground_blocks"] == [[0, 0]]
        assert err.startswith("warning: ") and err.count("\n") == 1
        assert "(0, 2)" in err and "(0, 0)" in err
        assert float(trace[-1]["fidelity"]) == 0.0
    else:
        assert manifest["reference_block"] in manifest["ground_blocks"]
        assert err == "" and float(trace[-1]["fidelity"]) > 0.0
    assert len(manifest["ground_blocks"]) == manifest["ground_degeneracy"]


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
