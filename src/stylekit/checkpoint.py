"""Bit-exact encoder checkpoints.

Layout: 4-byte magic ``S2C1``, a little-endian uint32 header length, a
UTF-8 JSON header, then raw little-endian float blobs in the order the
header's tensor manifest declares. The header pins the analyzer schema
and normalization caps so a checkpoint cannot be silently paired with a
different feature space. ``save -> load -> save`` is byte-identical.
"""

from __future__ import annotations

import json
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


def _empty_model(header: dict) -> EncoderModel:
    """Towers of the header's sizes, dtype and hash seed; the blobs set their weights."""
    dims = header["dims"]
    dtype = header["tensors"][0]["dtype"] if header["tensors"] else "<f4"
    np_dtype = np.float64 if dtype == "<f8" else np.float32
    style = StyleTower(seed=0, layers=tuple(dims["style_layers"]), dtype=np_dtype)
    code = CodeTower(
        seed=0,
        vocab=dims["code"]["vocab"],
        embed_dim=dims["code"]["embed_dim"],
        hidden_dim=dims["code"]["hidden_dim"],
        out_dim=dims["code"]["out_dim"],
        hash_seed=header["hash_seed"],
        dtype=np_dtype,
    )
    if style.layers[-1] != code.out_dim:
        raise ValueError(f"style width {style.layers[-1]} != code width {code.out_dim}")
    return EncoderModel(style=style, code=code)


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
        model = _empty_model(header)
        tensors = [(str(entry["name"]), tuple(int(d) for d in entry["shape"]),
                    _DTYPES[entry["dtype"]]) for entry in header["tensors"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedHeader(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc

    offset = header_end
    for full_name, shape, dt in tensors:
        prefix, _, name = full_name.partition(".")
        tower = model.style if prefix == "style" else model.code
        if name not in tower.params:
            raise SchemaVersionMismatch(f"unknown tensor {full_name!r}")
        if tower.params[name].shape != shape:
            raise SchemaVersionMismatch(
                f"tensor {full_name!r} shape {shape} does not fit the model"
            )
        nbytes = int(np.prod(shape)) * dt.itemsize
        chunk = blob[offset:offset + nbytes]
        if len(chunk) < nbytes:
            raise TruncatedBlob(
                f"{path}: tensor {full_name!r} needs {nbytes} bytes, "
                f"got {len(chunk)}"
            )
        tower.params[name] = np.frombuffer(chunk, dtype=dt).reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise TruncatedBlob(f"{path}: {len(blob) - offset} trailing bytes")
    return model
