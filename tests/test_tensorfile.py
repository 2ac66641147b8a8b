import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfrecon.tensorfile import (
    load_checkpoint,
    read_tensor,
    save_checkpoint,
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
    path = tmp_path_factory.mktemp("cut") / "x.mrfb"
    write_tensor(path, np.ones(shape, dtype=dtype))
    data = path.read_bytes()
    for cut in range(len(data)):
        _read_raises_value_error(path, data[:cut])


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
