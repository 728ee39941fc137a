"""Cache files: their record format and their rebuild rule, in one place.

A file is a sequence of .npy records: a 1-D string array of field names,
then one record per field in that order, the cache key among them.  They
are not compressed: compressing the matrices that dominate a
ground file costs far more time than reading the raw arrays back.  Any
file a load cannot use raises ValueError (or OSError), and `cached`
rebuilds it."""

import hashlib
import math
import os
from contextlib import contextmanager

import numpy as np

_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
            (2, 0): np.lib.format.read_array_header_2_0}


def write_fields(path, fields: dict, key: str | None = None) -> None:
    """Write the named arrays, and key if given, to path (a name or binary
    file) as uncompressed .npy records; read_fields reads them back."""
    if isinstance(path, (str, os.PathLike)):
        with open(path, "wb") as handle:
            return write_fields(handle, fields, key)
    if key is not None:
        fields = {**fields, "key": key}
    for value in (np.array(list(fields), dtype=str), *fields.values()):
        np.lib.format.write_array(path, np.asanyarray(value), allow_pickle=False)


def _read_record(handle, end: int) -> np.ndarray:
    """The next .npy record of an open file that ends at byte `end`, its
    header parsed once.  It must hold no Python objects or zero-size items,
    and claim no more data than the file has left, before anything is
    allocated; the data is read into a new array, so every array is aligned."""
    version = np.lib.format.read_magic(handle)
    if version not in _HEADERS:
        raise ValueError(f"unsupported .npy record version {version}")
    shape, fortran_order, dtype = _HEADERS[version](handle)
    if dtype.hasobject or not dtype.itemsize:
        raise ValueError(f"a record of dtype {dtype} holds Python objects or zero-size items")
    count = math.prod(shape)
    if min(shape, default=0) < 0 or count * dtype.itemsize > end - handle.tell():
        raise ValueError(f"a record of shape {shape} and dtype {dtype} does not fit in "
                         f"the {end - handle.tell()} bytes left in the file")
    data = np.fromfile(handle, dtype, count)
    return data.reshape(shape[::-1]).T if fortran_order else data.reshape(shape)


def read_fields(path, key: str | None = None) -> dict[str, np.ndarray]:
    """The named arrays write_fields wrote to path.  Raise ValueError unless
    the file is exactly such a sequence of records and, with a key, was saved
    under that key."""
    with open(path, "rb") as handle:
        end = os.fstat(handle.fileno()).st_size
        names = _read_record(handle, end)
        if names.ndim != 1 or names.dtype.kind != "U" or len(set(names.tolist())) != len(names):
            raise ValueError(f"{path} does not start with a list of distinct field names")
        fields = {name: _read_record(handle, end) for name in names.tolist()}
        if handle.tell() != end:
            raise ValueError(f"{path} has {end - handle.tell()} bytes after its last record")
    if key is not None and ("key" not in fields or str(fields["key"]) != key):
        raise ValueError(f"{path} was not saved under the key {key!r}")
    return fields


@contextmanager
def reading(path, key: str | None = None):
    """read_fields(path, key), for a load to build its object from: a
    KeyError (a field the file lacks) or a TypeError (a field of another
    shape) raised in the block is a ValueError, like any other unusable file."""
    fields = read_fields(path, key)
    try:
        yield fields
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path} does not hold the fields its load needs: {err!r}") from None


def cached(cache_dir, stem: str, key: str, kind, build, fits):
    """kind.load of the file for key in cache_dir (a Path), named by stem and
    a digest of key, or build() saved there.  A file that load cannot use or
    that fails fits is rebuilt and replaced; a new file is written next to
    its final name and renamed into place, so a crash mid-write leaves no
    partial file there.  That file is opened, and a final name held by
    anything but a file is refused (OSError), before build() runs, so no
    result is built that could not be kept."""
    path = cache_dir / f"{stem}-{hashlib.sha256(key.encode()).hexdigest()[:12]}.npys"
    if path.exists():
        try:
            if fits(loaded := kind.load(path, key)):
                return loaded
        except (OSError, ValueError):
            pass
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as handle:
            if path.exists() and not path.is_file():
                raise OSError(f"{path} is not a file, so no cache file can be put there")
            result = build()
            result.save(handle, key)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return result
