"""Bit-exact binary tensor format and the artifact directories built from it.

Layout (little-endian throughout):

    bytes 0..5   magic "MRFB1\\0"
    byte  6      dtype code: 1=float32, 2=float64, 3=complex64, 4=complex128
    byte  7      ndim (uint8)
    8 .. 8+8n    dims, ndim x uint64
    payload      row-major values; complex stored interleaved re,im

Round-trips are bit-exact for every supported dtype, including empty tensors.

Every artifact directory (dictionary, simulation, maps, model checkpoint) is a
set of named tensors, each `<name>.mrfb`, plus JSON sidecars. Its layout is
defined here, and its tensors go through one pair: write_tensors and
read_tensors.

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

import hashlib
import json
import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .acquisition import Trajectory
from .dictionary import DictionaryGrid, Subspace
from .epg import SequenceParams
from .maps import QMaps

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


def sha256(path):
    """Hex SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# artifact directories: named tensors, each `<name>.mrfb`, plus JSON sidecars


def write_tensors(directory, arrays):
    """Write each array of `arrays` ({name: ndarray}) as <directory>/<name>.mrfb."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, arr in arrays.items():
        write_tensor(directory / f"{name}.mrfb", arr)


def read_tensors(directory, names):
    """{name: ndarray} of the <directory>/<name>.mrfb files."""
    return {name: read_tensor(Path(directory) / f"{name}.mrfb") for name in names}


def _float64(**arrays):
    return {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}


def save_dictionary(directory, grid, sub):
    """Atoms, their norms and grid values, and the subspace, all f64, plus a
    dict.json sidecar (grid values, s, sequence)."""
    write_tensors(
        directory,
        _float64(
            atoms=grid.atoms,
            atom_norms=grid.atom_norms,
            atom_t1=grid.atom_t1_ms,
            atom_t2=grid.atom_t2_ms,
            subspace=sub.basis,
            singular_values=sub.singular_values,
        ),
    )
    seq = grid.seq
    meta = {
        "t1_values_ms": grid.t1_values_ms.tolist(),
        "t2_values_ms": grid.t2_values_ms.tolist(),
        "n_atoms": grid.n_atoms,
        "n_frames": grid.n_frames,
        "s": sub.s,
        "sequence": {
            "flip_angles_rad": seq.flip_angles_rad.tolist(),
            "tr_ms": seq.tr_ms,
            "te_ms": seq.te_ms,
            "ti_ms": seq.ti_ms,
            "invert_first": seq.invert_first,
        },
    }
    write_json(Path(directory) / "dict.json", meta)


def load_dictionary(directory):
    """(DictionaryGrid, Subspace) of a directory written by save_dictionary."""
    meta = read_json(Path(directory) / "dict.json")
    sq = meta["sequence"]
    seq = SequenceParams(
        np.asarray(sq["flip_angles_rad"]), sq["tr_ms"], sq["te_ms"], sq["ti_ms"], sq["invert_first"]
    )
    t = read_tensors(
        directory, ("atoms", "atom_norms", "atom_t1", "atom_t2", "subspace", "singular_values")
    )
    t1_values, t2_values = np.asarray(meta["t1_values_ms"]), np.asarray(meta["t2_values_ms"])
    try:
        grid = DictionaryGrid(
            t1_values_ms=t1_values,
            t2_values_ms=t2_values,
            atoms=t["atoms"],
            atom_norms=t["atom_norms"],
            atom_t1_ms=t["atom_t1"],
            atom_t2_ms=t["atom_t2"],
            seq=seq,
        )
    except ValueError as exc:
        raise ValueError(f"{directory}: {exc}") from None
    if len(t["subspace"]) != grid.n_frames:
        raise ValueError(f"{directory}: subspace has not one row per frame of the atoms")
    return grid, Subspace(basis=t["subspace"], singular_values=t["singular_values"])


def save_maps(directory, qmaps):
    """T1, T2, PD and mask (1.0 inside), each an f64 tensor."""
    maps = _float64(t1=qmaps.t1_ms, t2=qmaps.t2_ms, pd=qmaps.pd, mask=qmaps.mask)
    write_tensors(directory, maps)


def load_maps(directory):
    t = read_tensors(directory, ("t1", "t2", "pd", "mask"))
    return QMaps(t1_ms=t["t1"], t2_ms=t["t2"], pd=t["pd"], mask=t["mask"] > 0.5)


def save_simulation(directory, kspace, coil_maps, traj, r, truth):
    """k-space and coil maps as given, the trajectory points in f64 plus a
    trajectory.json sidecar (kind, matrix, d, frames, r), and the true maps
    under truth/."""
    points = np.asarray(traj.points, dtype=np.float64)
    write_tensors(directory, {"kspace": kspace, "coil_maps": coil_maps, "trajectory": points})
    meta = {"kind": traj.kind, "matrix": traj.matrix, "d": traj.d, "frames": traj.frames, "r": int(r)}
    write_json(Path(directory) / "trajectory.json", meta)
    save_maps(Path(directory) / "truth", truth)


def load_simulation(directory):
    """(k-space, coil maps, Trajectory, the inputs its manifest records) of a
    simulation directory."""
    directory = Path(directory)
    t = read_tensors(directory, ("kspace", "coil_maps", "trajectory"))
    meta = read_json(directory / "trajectory.json")
    traj = Trajectory(kind=meta["kind"], matrix=meta["matrix"], points=t["trajectory"])
    inputs = read_json(directory / "manifest.json").get("inputs", {})
    return t["kspace"], t["coil_maps"], traj, inputs


def input_hashes(dict_dir, data_dir=None, model_dir=None):
    """A manifest's `inputs`: the paths read, with the hashes of the
    dictionary's subspace and atoms and of the simulation's k-space."""
    dict_dir = Path(dict_dir)
    inputs = {
        "dictionary": {
            "path": str(dict_dir),
            "subspace_sha256": sha256(dict_dir / "subspace.mrfb"),
            "atoms_sha256": sha256(dict_dir / "atoms.mrfb"),
        }
    }
    if data_dir is not None:
        kspace_hash = sha256(Path(data_dir) / "kspace.mrfb")
        inputs["data"] = {"path": str(data_dir), "kspace_sha256": kspace_hash}
    if model_dir is not None:
        inputs["model"] = {"path": str(model_dir)}
    return inputs


def save_checkpoint(directory, arrays, manifest):
    """Save named weight arrays plus a JSON manifest into a directory.

    The manifest (checkpoint.json) records the names, so loading does not
    depend on directory listing order.
    """
    write_tensors(directory, arrays)
    write_json(Path(directory) / "checkpoint.json", {**manifest, "weights": sorted(arrays)})


def load_checkpoint(directory):
    """Load (arrays, manifest) from a checkpoint directory."""
    manifest = read_json(Path(directory) / "checkpoint.json")
    return read_tensors(directory, manifest["weights"]), manifest
