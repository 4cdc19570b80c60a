"""Bit-exact encoder checkpoints.

Layout: 4-byte magic ``S2C1``, a little-endian uint32 header length, a
UTF-8 JSON header, then raw little-endian float blobs in the order the
header's tensor manifest declares. The header pins the analyzer schema
and normalization caps so a checkpoint cannot be silently paired with a
different feature space. ``save -> load -> save`` is byte-identical.
``load`` checks every manifest shape against the header's dimensions and
their total size against the file before it allocates, then builds the
towers from the blobs without drawing any random weights.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .features import NORMALIZATION_CAPS, SCHEMA
from .nn import CodeTower, EncoderModel, StyleTower

MAGIC = b"S2C1"

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


class CheckpointError(Exception):
    pass


class BadMagic(CheckpointError):
    pass


class SchemaVersionMismatch(CheckpointError):
    pass


class TruncatedBlob(CheckpointError):
    pass


class MalformedHeader(CheckpointError):
    """A header field that is missing or malformed, or towers it cannot build."""


def _tensor_manifest(model: EncoderModel) -> list[dict]:
    entries = []
    for prefix, tower in (("style", model.style), ("code", model.code)):
        for name in sorted(tower.params):
            arr = tower.params[name]
            entries.append({
                "name": f"{prefix}.{name}",
                "shape": list(arr.shape),
                "dtype": "<f8" if arr.dtype == np.float64 else "<f4",
            })
    return entries


def _header(model: EncoderModel) -> dict:
    return {
        "schema": SCHEMA,
        "dims": {
            "style_layers": list(model.style.layers),
            "code": {
                "vocab": model.code.vocab,
                "embed_dim": model.code.embed_dim,
                "hidden_dim": model.code.hidden_dim,
                "out_dim": model.code.out_dim,
            },
        },
        "hash_seed": model.code.hash_seed,
        "caps": {k: NORMALIZATION_CAPS[k] for k in sorted(NORMALIZATION_CAPS)},
        "tensors": _tensor_manifest(model),
    }


def save(model: EncoderModel, path: str | Path) -> None:
    header = json.dumps(_header(model), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for entry in _tensor_manifest(model):
            prefix, name = entry["name"].split(".", 1)
            tower = model.style if prefix == "style" else model.code
            arr = np.ascontiguousarray(tower.params[name])
            fh.write(arr.astype(entry["dtype"], copy=False).tobytes())


def _layout(header: dict) -> tuple[dict, dict, list[tuple[str, tuple, np.dtype]]]:
    """The towers' sizes and the manifest's tensors, read from the header;
    every shape is checked against the sizes before anything is allocated."""
    dims = header["dims"]
    style_dims = {"layers": dims["style_layers"]}
    code_dims = {k: dims["code"][k] for k in ("vocab", "embed_dim", "hidden_dim", "out_dim")}
    expected = {f"style.{name}": shape
                for name, shape in StyleTower.param_shapes(**style_dims).items()}
    expected.update({f"code.{name}": shape
                     for name, shape in CodeTower.param_shapes(**code_dims).items()})
    if expected["style.br"] != expected["code.b2"]:
        raise ValueError(f"style width {expected['style.br'][0]} "
                         f"!= code width {expected['code.b2'][0]}")
    tensors = [(str(entry["name"]), tuple(int(d) for d in entry["shape"]),
                _DTYPES[entry["dtype"]]) for entry in header["tensors"]]
    for name, shape, _ in tensors:
        if name not in expected:
            raise SchemaVersionMismatch(f"unknown tensor {name!r}")
        if expected[name] != shape:
            raise SchemaVersionMismatch(f"tensor {name!r} shape {shape} does not fit the model")
    if sorted(name for name, _, _ in tensors) != sorted(expected):
        raise SchemaVersionMismatch("the manifest must list each tensor of the model once")
    code_dims["hash_seed"] = header["hash_seed"]
    CodeTower.hash_key(code_dims["hash_seed"])
    return style_dims, code_dims, tensors


def load(path: str | Path) -> EncoderModel:
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise BadMagic(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise TruncatedBlob(f"{path}: missing header length")
    (header_len,) = struct.unpack("<I", blob[4:8])
    header_end = 8 + header_len
    if len(blob) < header_end:
        raise TruncatedBlob(f"{path}: truncated header")
    try:
        header = json.loads(blob[8:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TruncatedBlob(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeader(f"{path}: header is not an object")
    if header.get("schema") != SCHEMA:
        raise SchemaVersionMismatch(
            f"checkpoint schema {header.get('schema')!r} != {SCHEMA!r}"
        )
    caps = {k: NORMALIZATION_CAPS[k] for k in sorted(NORMALIZATION_CAPS)}
    if header.get("caps") != caps:
        raise SchemaVersionMismatch("normalization caps do not match this analyzer")

    try:
        style_dims, code_dims, tensors = _layout(header)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedHeader(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    counts = [math.prod(shape) for _, shape, _ in tensors]
    needed = sum(count * dt.itemsize for count, (_, _, dt) in zip(counts, tensors))
    if needed != len(blob) - header_end:
        raise TruncatedBlob(f"{path}: the tensors take {needed} bytes, "
                            f"the file holds {len(blob) - header_end} after the header")

    params: dict[str, dict[str, np.ndarray]] = {"style": {}, "code": {}}
    offset = header_end
    for count, (full_name, shape, dt) in zip(counts, tensors):
        prefix, _, name = full_name.partition(".")
        params[prefix][name] = np.frombuffer(
            blob, dtype=dt, count=count, offset=offset).reshape(shape).copy()
        offset += count * dt.itemsize
    dtype = np.float64 if tensors[0][2].itemsize == 8 else np.float32
    return EncoderModel(
        style=StyleTower.from_params(params["style"], **style_dims, dtype=dtype),
        code=CodeTower.from_params(params["code"], **code_dims, dtype=dtype),
    )
