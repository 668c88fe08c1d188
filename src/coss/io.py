"""Binary file formats and report serialisation.

Three little-endian formats, each opening with a 4-byte magic and a u32
version:

  dataset   "CSSD"  v1  n:u64  dim:u64  has_labels:u8  inputs:f32[n*dim]  labels:i64[n]?
  index     "CSSK"  v1  n:u64  pool:u64  neighbors:u32[n*pool]
  model     "CSSM"  v1  layer_count:u32  then per layer:
                        out:u32  in:u32  activation:u8  weights:f32[out*in]  bias:f32[out]

Unknown versions are rejected outright.  The decoders check the byte
layout and the type each builds checks the content; that type's
ValueError is raised as FormatError.  Values are float32 on disk and
float64 in memory; the encoders raise NumericalError for a value float32
cannot hold finitely, as ``Dataset`` and ``Layer`` would on decode.  All
writers go through a write-temp-then-rename step so a crash never leaves
a half-written file behind.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile

import numpy as np

from .data import Dataset
from .errors import FormatError, NumericalError
from .knn import NeighborIndex
from .linalg import float32_copy
from .models import ACTIVATIONS, Layer, MlpModel

MAGIC_DATASET = b"CSSD"
MAGIC_INDEX = b"CSSK"
MAGIC_MODEL = b"CSSM"
FORMAT_VERSION = 1

_ACT_CODE = {"identity": 0, "relu": 1, "tanh": 2}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}
assert set(_ACT_CODE) == set(ACTIVATIONS)


class _Reader:
    """Cursor over a byte blob that raises 'truncated' on short reads."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, nbytes: int) -> bytes:
        if self.pos + nbytes > len(self.blob):
            raise FormatError("truncated")
        out = self.blob[self.pos : self.pos + nbytes]
        self.pos += nbytes
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int, to) -> np.ndarray:
        """The next ``count`` values of ``dtype``, cast to a fresh array of ``to``."""
        nbytes = np.dtype(dtype).itemsize * count
        # a signalling NaN warns in the cast; the built type rejects it as NumericalError
        with np.errstate(invalid="ignore"):
            return np.frombuffer(self.take(nbytes), dtype=dtype).astype(to)

    def done(self) -> None:
        if self.pos != len(self.blob):
            raise FormatError("trailing bytes")


def _check_header(r: _Reader, magic: bytes) -> None:
    if r.take(4) != magic:
        raise FormatError("bad magic")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}")


def _build(make):
    """``make()``, whose ValueError is raised as FormatError.

    NumericalError is a ValueError too; it passes through, so a non-finite
    payload keeps its own exit code.
    """
    try:
        return make()
    except NumericalError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# The mode open() would give a new file; mkstemp's own is 0600.  Read once:
# os.umask can only be read by setting it.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path, blob: bytes) -> None:
    """Write to a fresh temp file in the same directory, fsync it, rename it into place
    and fsync the directory.

    Every call gets its own temp name, so concurrent writers of one path
    never share a temp file, and the temp file is removed if the write fails.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory or ".", os.O_RDONLY)  # or a crash can lose the rename
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read_file(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _float32_bytes(values: np.ndarray, what: str) -> bytes:
    """``values`` as little-endian float32 bytes (see ``linalg.float32_copy``).

    An inf would be written where float32 cannot hold a value, which the
    decoders reject, so the file could not be read back.
    """
    return np.asarray(float32_copy(values, what), dtype="<f4").tobytes()


# ---------------------------------------------------------------------------
# dataset

def encode_dataset(dataset: Dataset) -> bytes:
    has_labels = dataset.labels is not None
    parts = [
        MAGIC_DATASET,
        struct.pack("<IQQB", FORMAT_VERSION, dataset.n, dataset.dim, int(has_labels)),
        _float32_bytes(dataset.inputs, "dataset"),
    ]
    if has_labels:
        parts.append(dataset.labels.astype("<i8").tobytes())
    return b"".join(parts)


def decode_dataset(blob: bytes) -> Dataset:
    r = _Reader(blob)
    _check_header(r, MAGIC_DATASET)
    n, dim, has_labels = r.unpack("<QQB")
    if has_labels not in (0, 1):
        raise FormatError("bad has_labels flag")
    inputs = r.array("<f4", n * dim, np.float64)
    labels = r.array("<i8", n, np.int64) if has_labels else None
    r.done()
    return _build(lambda: Dataset(inputs.reshape(n, dim), labels))


def write_dataset(path, dataset: Dataset) -> None:
    atomic_write(path, encode_dataset(dataset))


def read_dataset(path) -> Dataset:
    return decode_dataset(_read_file(path))


# ---------------------------------------------------------------------------
# neighbour index

def encode_index(index: NeighborIndex) -> bytes:
    return b"".join(
        [
            MAGIC_INDEX,
            struct.pack("<IQQ", FORMAT_VERSION, index.n, index.pool),
            index.neighbors.astype("<u4").tobytes(),
        ]
    )


def decode_index(blob: bytes) -> NeighborIndex:
    r = _Reader(blob)
    _check_header(r, MAGIC_INDEX)
    n, pool = r.unpack("<QQ")
    neighbors = r.array("<u4", n * pool, np.int64)
    r.done()
    return _build(lambda: NeighborIndex(neighbors.reshape(n, pool)))


def write_index(path, index: NeighborIndex) -> None:
    atomic_write(path, encode_index(index))


def read_index(path) -> NeighborIndex:
    return decode_index(_read_file(path))


# ---------------------------------------------------------------------------
# model checkpoint

def encode_model(model: MlpModel) -> bytes:
    parts = [MAGIC_MODEL, struct.pack("<II", FORMAT_VERSION, len(model.layers))]
    for layer in model.layers:
        out_dim, in_dim = layer.weight.shape
        parts.append(struct.pack("<IIB", out_dim, in_dim, _ACT_CODE[layer.activation]))
        parts.append(_float32_bytes(layer.weight, "checkpoint"))
        parts.append(_float32_bytes(layer.bias, "checkpoint"))
    return b"".join(parts)


def decode_model(blob: bytes) -> MlpModel:
    r = _Reader(blob)
    _check_header(r, MAGIC_MODEL)
    (layer_count,) = r.unpack("<I")
    parts = []
    for _ in range(layer_count):
        out_dim, in_dim, act_code = r.unpack("<IIB")
        if act_code not in _ACT_NAME:
            raise FormatError(f"unknown activation code {act_code}")
        W = r.array("<f4", out_dim * in_dim, np.float64).reshape(out_dim, in_dim)
        parts.append((W, r.array("<f4", out_dim, np.float64), _ACT_NAME[act_code]))
    r.done()
    return _build(lambda: MlpModel([Layer(*p) for p in parts]))


def write_model(path, model: MlpModel) -> None:
    atomic_write(path, encode_model(model))


def read_model(path) -> MlpModel:
    return decode_model(_read_file(path))


# ---------------------------------------------------------------------------
# metrics reports: line-delimited key<TAB>value records

def format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)  # repr round-trips float64 exactly
    return str(value)


def render_report(records) -> str:
    """``records`` is an ordered mapping or (key, value) iterable."""
    items = records.items() if hasattr(records, "items") else records
    lines = []
    for key, value in items:
        key = str(key)
        if "\t" in key or "\n" in key:
            raise ValueError("report keys must not contain tabs or newlines")
        lines.append(f"{key}\t{format_value(value)}\n")
    return "".join(lines)


def parse_report(text: str) -> dict[str, str]:
    """Each line's key and value text; a reader converts the values it needs."""
    out = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        key, sep, raw = line.partition("\t")
        if not sep:
            raise FormatError(f"report line {line_no} has no tab separator")
        out[key] = raw
    return out


def write_report(path, records) -> None:
    atomic_write(path, render_report(records).encode("utf-8"))


def read_report(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_report(fh.read())
