"""The cache file's reader, and the one module that owns the record format."""

import io
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.format import write_array, write_array_header_1_0

import vipsa
from vipsa.cache import read_fields, write_record
from vipsa.cli import cached_ground_space, cached_pool_tables
from vipsa.core import PoolTables
from vipsa.hamiltonians import GroundSpace
from vipsa.lattice import GridSpec

from builds import sea_block


def numpy_records(path: Path) -> tuple[dict, dict]:
    """Each field of a cache file as np.lib.format.read_array reads it, and
    the file offset where its data starts; the 4-byte crc after each record
    is skipped."""
    arrays, starts = {}, {}
    with open(path, "rb") as handle:
        names = np.lib.format.read_array(handle)
        handle.seek(4, 1)
        for name in names.tolist():
            start = handle.tell()
            if np.lib.format.read_magic(handle) == (1, 0):
                np.lib.format.read_array_header_1_0(handle)
            else:
                np.lib.format.read_array_header_2_0(handle)
            starts[name] = handle.tell()
            handle.seek(start)
            arrays[name] = np.lib.format.read_array(handle, allow_pickle=False)
            handle.seek(4, 1)
    return arrays, starts


@pytest.mark.parametrize("kind", ["ground", "pool"])
def test_a_load_returns_aligned_arrays_with_the_bytes_numpy_reads(tmp_path, kind):
    # each record's 4-byte crc sets the next one's data 4 bytes off an 8-byte
    # boundary wherever the bytes before it add up to 4 modulo 8: views into
    # one buffer of the file would leave the pool's dst and offsets, and the
    # ground file's vectors, rows and matrix data unaligned, and every gather
    # from them slower
    grid = GridSpec.make(3, 3, u=6.0)
    label, block = sea_block(grid, 5, 4)
    if kind == "pool":
        cached_pool_tables(grid, 5, 4, (label, block), tmp_path)
        path, = tmp_path.glob("pool-*.npys")
        loaded = PoolTables.load(path)
        returned = {name: getattr(loaded, name) for name in ("states", "src", "dst", "sign", "offsets")}
    else:
        cached_ground_space(grid, 5, 4, "k", tmp_path)
        path, = tmp_path.glob("ground-*.npys")
        loaded = GroundSpace.load(path)
        returned = {"vectors": loaded.vectors, "blocks": loaded.blocks,
                    "matrix_rows": loaded.matrix_rows, "matrix_data": loaded.matrix.data,
                    "matrix_indices": loaded.matrix.indices, "matrix_indptr": loaded.matrix.indptr}
    want, starts = numpy_records(path)
    unaligned = ("dst", "offsets") if kind == "pool" else ("vectors", "matrix_rows", "matrix_data")
    assert all(starts[name] % 8 == 4 for name in unaligned)
    for fields in (read_fields(path), returned):
        for name, array in fields.items():
            assert array.flags.aligned, name
            assert (array.dtype, array.shape) == (want[name].dtype, want[name].shape), name
            assert array.tobytes() == want[name].tobytes(), name


def test_only_the_cache_module_uses_the_record_format():
    # the .npy record format lives in one module, so it cannot drift apart
    # between the ground and pool files
    package = Path(vipsa.__file__).parent
    users = [path.name for path in sorted(package.glob("*.py"))
             if re.search(r"lib\.format|lib import format", path.read_text())]
    assert users == ["cache.py"]


@pytest.mark.parametrize("record", ["names", "field"])
def test_a_record_of_zero_size_items_is_refused(tmp_path, record):
    # its header may claim any number of items in no bytes, so the size
    # check cannot bound it, and listing such names would make one string
    # per item
    path = tmp_path / "zero-size.npys"
    with open(path, "wb") as handle:
        if record == "field":
            record = io.BytesIO()
            write_array(record, np.array(["a"]))
            write_record(handle, record.getvalue())
        write_array_header_1_0(handle, {"descr": "<U0", "fortran_order": False,
                                        "shape": (1 << 10,)})
    with pytest.raises(ValueError, match="zero-size items"):
        read_fields(path)
