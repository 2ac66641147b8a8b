"""Bit-exact binary tensor format and model-checkpoint helpers.

Layout (little-endian throughout):

    bytes 0..5   magic "MRFB1\\0"
    byte  6      dtype code: 1=float32, 2=float64, 3=complex64, 4=complex128
    byte  7      ndim (uint8)
    8 .. 8+8n    dims, ndim x uint64
    payload      row-major values; complex stored interleaved re,im

Round-trips are bit-exact for every supported dtype, including empty tensors.

Every file the package writes is opened through `open_fresh`, which replaces a
regular file already at the path with a new one instead of truncating and
rewriting it. On ext4 (default `auto_da_alloc`), closing a file that was
truncated and rewritten starts its writeback, which gives it blocks on disk,
and freeing a file's blocks on disk waits for the disk, tens of milliseconds
per file. A new file stays in the page cache until the periodic writeback
(about 30 s), so replacing it within that window costs no wait. The
difference shows from the third write of one path on, when the writes follow
each other within about 30 s: rewritten in place, each waits; replaced, none
does. A single rewrite costs the same either way: nothing when it follows
the first write closely, a wait when the old file has reached the disk. A
temp file renamed over the old one starts the same close-time flush as a
truncation.
"""

import json
import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MRFB1\x00"

_CODE_TO_DTYPE = {1: "<f4", 2: "<f8", 3: "<c8", 4: "<c16"}
_KIND_TO_CODE = {"f4": 1, "f8": 2, "c8": 3, "c16": 4}


def _dtype_code(arr):
    key = f"{arr.dtype.kind}{arr.dtype.itemsize}"
    if key not in _KIND_TO_CODE:
        raise ValueError(
            f"unsupported dtype {arr.dtype}; use float32/float64/complex64/complex128"
        )
    return _KIND_TO_CODE[key]


def open_fresh(path, mode):
    """Open `path` for writing ("w" or "wb") as a new file.

    A regular file already at `path` is unlinked and a new one created in its
    place, so a hardlink to the old file keeps the old contents. Any other path
    (none yet, a symlink, a FIFO, a device such as /dev/stdout) is opened in
    place as by `open(path, mode)`; symlinks and special files are never
    removed.

    A replaced file is a new inode: it gets default permissions (from the
    umask), not the old file's mode, owner or extended attributes, and a
    read-only output is replaced rather than refused. The directory must be
    writable, even when the old file is. The new file is not flushed when it
    is closed (ext4 flushes only a file that was truncated), so after a power
    loss shortly after a write the path can be empty or missing.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
            mode = mode.replace("w", "x")
    except FileNotFoundError:
        pass
    return open(path, mode)


def write_tensor(path, arr):
    """Write an ndarray to `path` in the binary tensor format."""
    arr = np.asarray(arr)
    code = _dtype_code(arr)
    target = np.dtype(_CODE_TO_DTYPE[code])
    data = np.ascontiguousarray(arr, dtype=target)
    header = MAGIC + struct.pack("<BB", code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    with open_fresh(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_tensor(path):
    """Read a tensor written by write_tensor; returns a native-dtype ndarray.

    A truncated or corrupt file raises ValueError naming the path.
    """
    raw = Path(path).read_bytes()
    if raw[:6] != MAGIC:
        raise ValueError(f"{path}: bad magic, not a tensor file")
    if len(raw) < 8 or len(raw) < 8 + 8 * raw[7]:
        raise ValueError(f"{path}: truncated header")
    code, ndim = raw[6], raw[7]
    if code not in _CODE_TO_DTYPE:
        raise ValueError(f"{path}: unknown dtype code {code}")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 8)
    offset = 8 + 8 * ndim
    dtype = np.dtype(_CODE_TO_DTYPE[code])
    if math.prod(d for d in dims if d) * dtype.itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"{path}: dims {dims} exceed the addressable size")
    count = math.prod(dims)
    payload = raw[offset:]
    if len(payload) != count * dtype.itemsize:
        raise ValueError(f"{path}: payload length does not match dims")
    arr = np.frombuffer(payload, dtype=dtype, count=count).reshape(dims)
    return arr.copy()


def write_json(path, obj):
    with open_fresh(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _JsonObject(dict):
    """A JSON object read from `path`: a missing key raises ValueError naming both."""

    def __missing__(self, key):
        raise ValueError(f"{self.path}: missing key {key!r}")


def read_json(path):
    """Read a JSON file; undecodable contents or a missing key raise ValueError
    naming the path."""

    def named(pairs):
        obj = _JsonObject(pairs)
        obj.path = path
        return obj

    with open(path) as fh:
        try:
            return json.load(fh, object_hook=named)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def save_checkpoint(directory, arrays, manifest):
    """Save named weight arrays plus a JSON manifest into a directory.

    `arrays` maps a name to an ndarray; each is stored as `<name>.mrfb` and the
    manifest records the names so loading does not depend on directory listing
    order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(arrays)
    for name in names:
        write_tensor(directory / f"{name}.mrfb", arrays[name])
    manifest = dict(manifest)
    manifest["weights"] = names
    write_json(directory / "checkpoint.json", manifest)


def load_checkpoint(directory):
    """Load (arrays, manifest) from a checkpoint directory."""
    directory = Path(directory)
    manifest = read_json(directory / "checkpoint.json")
    arrays = {
        name: read_tensor(directory / f"{name}.mrfb") for name in manifest["weights"]
    }
    return arrays, manifest
