"""Bit-exact binary tensor format and model-checkpoint helpers.

Layout (little-endian throughout):

    bytes 0..5   magic "MRFB1\\0"
    byte  6      dtype code: 1=float32, 2=float64, 3=complex64, 4=complex128
    byte  7      ndim (uint8)
    8 .. 8+8n    dims, ndim x uint64
    payload      row-major values; complex stored interleaved re,im

Round-trips are bit-exact for every supported dtype, including empty tensors.
"""

import json
import math
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


def write_tensor(path, arr):
    """Write an ndarray to `path` in the binary tensor format."""
    arr = np.asarray(arr)
    code = _dtype_code(arr)
    target = np.dtype(_CODE_TO_DTYPE[code])
    data = np.ascontiguousarray(arr, dtype=target)
    header = MAGIC + struct.pack("<BB", code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    with open(path, "wb") as fh:
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
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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
