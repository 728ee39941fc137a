"""Cache files: their record format and their rebuild rule, in one place.

A file is a sequence of .npy records, each followed by the zlib.crc32 of
every byte of the record, header included, as 4 little-endian bytes: a
1-D string array of field names, then one record per field in that order,
the cache key among them.  They are not compressed: compressing the
matrices that dominate a ground file costs far more time than reading the
raw arrays back.  Any file a load cannot use, a damaged one among them,
raises ValueError (or OSError), and `cached` rebuilds it."""

import hashlib
import io
import math
import os
import tokenize
import zlib
from contextlib import contextmanager

import numpy as np

_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
            (2, 0): np.lib.format.read_array_header_2_0}


def write_fields(path, fields: dict, key: str | None = None) -> None:
    """Write the named arrays, and key if given, to path (a name or binary
    file) as uncompressed .npy records, each with its crc; read_fields reads
    them back."""
    if isinstance(path, (str, os.PathLike)):
        with open(path, "wb") as handle:
            return write_fields(handle, fields, key)
    if key is not None:
        fields = {**fields, "key": key}
    for value in (np.array(list(fields), dtype=str), *fields.values()):
        record = io.BytesIO()
        np.lib.format.write_array(record, np.asanyarray(value), allow_pickle=False)
        write_record(path, record.getbuffer())


def write_record(handle, record) -> None:
    """Write the bytes of one record to an open binary file, then their crc."""
    handle.write(record)
    handle.write(zlib.crc32(record).to_bytes(4, "little"))


def _read_record(handle, end: int) -> np.ndarray:
    """The next .npy record of an open file that ends at byte `end`, and its
    crc, its header parsed once.  It must hold no Python objects or
    zero-size items, and claim no more data than the file has left, before
    anything is allocated; the data is read into a new array, so every array
    is aligned.  A crc that is not that of the record's bytes is a ValueError."""
    start = handle.tell()
    version = np.lib.format.read_magic(handle)
    if version not in _HEADERS:
        raise ValueError(f"unsupported .npy record version {version}")
    try:
        shape, fortran_order, dtype = _HEADERS[version](handle)
    except (SyntaxError, tokenize.TokenError) as err:  # a damaged header numpy cannot parse
        raise ValueError(f"unreadable .npy record header: {err}") from None
    if dtype.hasobject or not dtype.itemsize:
        raise ValueError(f"a record of dtype {dtype} holds Python objects or zero-size items")
    count = math.prod(shape)
    header = handle.tell() - start
    left = end - handle.tell() - 4  # the crc follows the data
    if min(shape, default=0) < 0 or count * dtype.itemsize > left:
        raise ValueError(f"a record of shape {shape} and dtype {dtype} does not fit in "
                         f"the {left} bytes left in the file before its crc")
    handle.seek(start)
    crc = zlib.crc32(handle.read(header))
    data = np.fromfile(handle, dtype, count)
    if zlib.crc32(data, crc) != int.from_bytes(handle.read(4), "little"):
        raise ValueError(f"a record of shape {shape} and dtype {dtype} fails its crc")
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


@contextmanager
def replacing(paths):
    """Yield a {name}.{pid}.tmp path next to each of paths to write in its
    place, renamed onto paths in order at the end, or all removed on any error."""
    partial = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        yield partial
        for written, path in zip(partial, paths):
            os.replace(written, path)
    except BaseException:
        for written in partial:
            written.unlink(missing_ok=True)
        raise


def cached(cache_dir, stem: str, key: str, kind, build, fits):
    """kind.load of the file for key in cache_dir (a Path), named by stem and
    a digest of key, or build() saved there through `replacing`; a file that
    load cannot use or that fails fits is rebuilt.  The new file is opened,
    and a final name held by anything but a file refused (OSError), before
    build() runs, so no result is built that could not be kept."""
    path = cache_dir / f"{stem}-{hashlib.sha256(key.encode()).hexdigest()[:12]}.npys"
    if path.exists():
        try:
            if fits(loaded := kind.load(path, key)):
                return loaded
        except (OSError, ValueError):
            pass
    with replacing([path]) as (partial,), open(partial, "wb") as handle:
        if path.exists() and not path.is_file():
            raise OSError(f"{path} is not a file, so no cache file can be put there")
        result = build()
        result.save(handle, key)
    return result
