import ast
import os
import re
import stat
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrfrecon
from mrfrecon.tensorfile import (
    load_checkpoint,
    load_dictionary,
    open_fresh,
    read_json,
    read_tensor,
    save_checkpoint,
    save_dictionary,
    write_json,
    write_tensor,
)

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


@pytest.mark.parametrize("dtype", DTYPES)
def test_roundtrip_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5))
    if np.issubdtype(dtype, np.complexfloating):
        arr = arr + 1j * rng.standard_normal((3, 4, 5))
    arr = arr.astype(dtype)
    path = tmp_path / "t.mrfb"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == arr.dtype
    assert arr.tobytes() == back.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_empty_tensor_roundtrip(tmp_path, dtype):
    arr = np.zeros((0, 7), dtype=dtype)
    path = tmp_path / "empty.mrfb"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == (0, 7) and back.dtype == arr.dtype


def test_zero_dim_tensor_roundtrip(tmp_path):
    arr = np.array(3.25, dtype=np.float64)
    path = tmp_path / "scalar.mrfb"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == () and back == arr


@settings(max_examples=30, deadline=None)
@given(
    shape=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**31 - 1),
)
def test_roundtrip_property(tmp_path_factory, shape, dtype, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        arr = arr + 1j * rng.standard_normal(shape)
    arr = arr.astype(dtype)
    path = tmp_path_factory.mktemp("rt") / "x.mrfb"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == arr.shape and back.tobytes() == arr.tobytes()


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError, match="unsupported dtype"):
        write_tensor(tmp_path / "bad.mrfb", np.zeros(3, dtype=np.int32))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.mrfb"
    path.write_bytes(b"NOTFMT" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_tensor(path)


def test_unknown_dtype_code_rejected(tmp_path):
    path = tmp_path / "bad2.mrfb"
    path.write_bytes(b"MRFB1\x00" + bytes([9, 1]) + (8).to_bytes(8, "little"))
    with pytest.raises(ValueError, match="dtype code"):
        read_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.mrfb"
    arr = np.arange(6, dtype=np.float64)
    write_tensor(path, arr)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_tensor(path)


def _read_raises_value_error(path, data):
    """Write `data` to `path`; reading it must raise ValueError naming it."""
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning is a failure too
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_tensor(path)


@settings(max_examples=20, deadline=None)
@given(
    shape=st.lists(st.integers(0, 3), min_size=0, max_size=3),
    dtype=st.sampled_from(DTYPES),
)
def test_every_prefix_of_a_valid_file_rejected(tmp_path_factory, shape, dtype):
    # each cut goes to a new file: rewriting one file in place for every cut
    # would time the filesystem's writeback, not the reader
    directory = tmp_path_factory.mktemp("cut")
    write_tensor(directory / "x.mrfb", np.ones(shape, dtype=dtype))
    data = (directory / "x.mrfb").read_bytes()
    for cut in range(len(data)):
        _read_raises_value_error(directory / f"x{cut}.mrfb", data[:cut])


@settings(max_examples=50, deadline=None)
@given(
    dims=st.lists(st.integers(1, 2**64 - 1), min_size=0, max_size=3),
    huge=st.integers(2**40, 2**64 - 1),
    code=st.integers(1, 4),
    payload=st.binary(max_size=64),
)
def test_absurd_dims_rejected(tmp_path_factory, dims, huge, code, payload):
    dims = [huge] + dims
    header = b"MRFB1\x00" + bytes([code, len(dims)])
    header += b"".join(d.to_bytes(8, "little") for d in dims)
    path = tmp_path_factory.mktemp("dims") / "x.mrfb"
    _read_raises_value_error(path, header + payload)


@pytest.mark.parametrize("dims", [(0, 2**63), (0, 2**62, 2**62)])
def test_empty_tensor_with_unaddressable_dims_rejected(tmp_path, dims):
    header = b"MRFB1\x00" + bytes([2, len(dims)])
    header += b"".join(d.to_bytes(8, "little") for d in dims)
    _read_raises_value_error(tmp_path / "x.mrfb", header)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "w1": rng.standard_normal((4, 3)),
        "b1": rng.standard_normal(4),
    }
    save_checkpoint(tmp_path / "ck", arrays, {"iterations": 5, "seed": 0})
    back, manifest = load_checkpoint(tmp_path / "ck")
    assert manifest["iterations"] == 5
    assert set(back) == {"w1", "b1"}
    npt.assert_array_equal(back["w1"], arrays["w1"])


def test_load_dictionary_holds_a_complex128_dictionary_as_float64(tmp_path, small_dict):
    # dictionaries written before float64 storage hold atoms and subspace as
    # complex128 with a zero imaginary part
    grid, sub = small_dict
    save_dictionary(tmp_path, grid, sub)
    for name in ("atoms", "subspace"):
        path = tmp_path / f"{name}.mrfb"
        write_tensor(path, read_tensor(path).astype(np.complex128))
    back, back_sub = load_dictionary(tmp_path)
    assert back.atoms.dtype == back_sub.basis.dtype == np.float64
    npt.assert_array_equal(back.atoms, grid.atoms)
    npt.assert_array_equal(back_sub.basis, sub.basis)


@pytest.mark.parametrize(
    "name, what", [("atoms", "real atom table"), ("subspace", "real temporal basis")]
)
def test_load_dictionary_rejects_an_imaginary_part(tmp_path, small_dict, name, what):
    save_dictionary(tmp_path, *small_dict)
    path = tmp_path / f"{name}.mrfb"
    write_tensor(path, read_tensor(path) * np.exp(0.1j))
    with pytest.raises(ValueError, match=what):
        load_dictionary(tmp_path)


# ---------------------------------------------------------------------------
# writes replace regular files and go through symlinks and special files

WRITERS = {
    "tensor": (write_tensor, np.arange(4.0), np.arange(9.0), read_tensor),
    "json": (write_json, {"a": 1}, {"b": [2, 3]}, read_json),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_rewrite_replaces_regular_file(tmp_path, kind):
    write, old, new, read = WRITERS[kind]
    path, link = tmp_path / "out", tmp_path / "link"
    write(path, old)
    old_bytes = path.read_bytes()
    os.link(path, link)
    write(path, new)
    assert not os.path.samefile(path, link)
    assert link.read_bytes() == old_bytes
    npt.assert_equal(read(path), new)


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_write_through_symlink_updates_target(tmp_path, kind):
    write, old, new, read = WRITERS[kind]
    target, path = tmp_path / "target", tmp_path / "out"
    write(target, old)
    path.symlink_to(target)
    write(path, new)
    assert path.is_symlink() and os.readlink(path) == str(target)
    npt.assert_equal(read(target), new)


def test_open_fresh_writes_into_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer does not block
    try:
        with open_fresh(fifo, "wb") as fh:
            fh.write(b"abc")
        assert os.read(reader, 16) == b"abc"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_read_json_names_a_corrupt_file(tmp_path):
    path = tmp_path / "cut.json"
    write_json(path, {"a": [1, 2]})
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_json(path)


def test_read_json_names_a_missing_key(tmp_path):
    path = tmp_path / "meta.json"
    write_json(path, {"a": {"b": 1}})
    meta = read_json(path)
    assert meta == {"a": {"b": 1}} and meta.get("c") is None
    for get in (lambda m: m["c"], lambda m: m["a"]["c"]):
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing key 'c'")):
            get(meta)


# ---------------------------------------------------------------------------
# guard: every file the package writes is opened by open_fresh

STREAM_MODULES = {"io", "builtins", "gzip", "bz2", "lzma", "codecs"}
IN_PLACE_WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez", "savetxt"}


def _mode_arg(call):
    """The mode argument of an open call, or None when it takes the default."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    func = call.func
    stream = isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id in STREAM_MODULES
    )
    index = 1 if stream else 0  # Path.open takes the mode first
    return call.args[index] if len(call.args) > index else None


def _writes_in_place(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if isinstance(func, ast.Attribute) and name in IN_PLACE_WRITERS:
        return True
    if name != "open":
        return False
    mode = _mode_arg(call)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode the scan cannot read may write
    return any(c in mode.value for c in "wa+")


def in_place_writes(source, filename):
    """Line numbers of calls in `source` that may write a file in place.

    Calls inside tensorfile.open_fresh, which replaces regular files, are exempt.
    """
    tree = ast.parse(source)
    exempt = set()
    if filename == "tensorfile.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "open_fresh":
                exempt.update(id(n) for n in ast.walk(node))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in exempt and _writes_in_place(node)
    ]


@pytest.mark.parametrize(
    "line, flagged",
    [
        ('open(p, "w")', True),
        ('open(p, mode="ab")', True),
        ('open(p, "r+b")', True),
        ("open(p, m)", True),
        ('io.open(p, "w")', True),
        ('gzip.open(p, "wt")', True),
        ('p.open("w")', True),
        ('p.write_text("x")', True),
        ("np.save(p, a)", True),
        ("open(p)", False),
        ('open(p, "rb")', False),
        ('io.open("w.txt")', False),
        ('p.open("rb")', False),
        ("p.read_text()", False),
    ],
)
def test_in_place_write_scan(line, flagged):
    assert bool(in_place_writes(line, "cli.py")) == flagged
    wrapped = f"def open_fresh(p, m):\n    return {line}\n"
    assert in_place_writes(wrapped, "tensorfile.py") == []


def test_package_opens_files_for_writing_only_through_open_fresh():
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(Path(mrfrecon.__file__).parent.glob("*.py"))
        for line in in_place_writes(path.read_text(), path.name)
    ]
    assert not offenders, f"write through tensorfile.open_fresh instead: {offenders}"
