"""Bit-exact encoder checkpoints.

Layout: 4-byte magic ``S2C1``, a little-endian uint32 header length, a
UTF-8 JSON header, then raw little-endian float blobs in the order the
header's tensor manifest declares. The header pins the analyzer schema
and normalization caps so a checkpoint cannot be silently paired with a
different feature space. ``save -> load -> save`` is byte-identical.
One function builds the tensor manifest from the towers' parameter
shapes, for ``save`` and for ``load``: ``load`` accepts exactly the
manifest ``save`` writes for the header's dimensions, checks its total
size against the file before it allocates, then builds the towers from the
blobs without drawing any random weights.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .features import NORMALIZATION_CAPS, SCHEMA
from .lexer import InputError
from .nn import CodeTower, EncoderModel, StyleTower

MAGIC = b"S2C1"

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


class CheckpointError(InputError):
    pass


class BadMagic(CheckpointError):
    pass


class SchemaVersionMismatch(CheckpointError):
    pass


class TruncatedBlob(CheckpointError):
    pass


class MalformedHeader(CheckpointError):
    """A header field that is missing or malformed, or towers it cannot build."""


def _tensor_manifest(shapes: dict[str, dict[str, tuple]], dtype) -> list[dict]:
    """The header's tensor list for towers of these parameter shapes (by
    prefix, ``style`` first) and one dtype: each tower's tensors by name."""
    label = "<f8" if dtype == np.float64 else "<f4"
    return [{"name": f"{prefix}.{name}", "shape": list(tower[name]), "dtype": label}
            for prefix, tower in shapes.items() for name in sorted(tower)]


def _header(model: EncoderModel, manifest: list[dict]) -> dict:
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
        "tensors": manifest,
    }


def save(model: EncoderModel, path: str | Path) -> None:
    if model.style.dtype != model.code.dtype:
        raise ValueError(f"the towers' dtypes differ: {model.style.dtype} and {model.code.dtype}")
    towers = {"style": model.style.params, "code": model.code.params}
    manifest = _tensor_manifest(
        {prefix: {name: arr.shape for name, arr in params.items()}
         for prefix, params in towers.items()}, model.style.dtype)
    header = json.dumps(_header(model, manifest), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for entry in manifest:
            prefix, name = entry["name"].split(".", 1)
            fh.write(towers[prefix][name].astype(entry["dtype"], copy=False).tobytes())


def load(path: str | Path) -> EncoderModel:
    with Path(path).open("rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagic(f"{path}: bad magic {magic!r}")
        raw_len = fh.read(4)
        if len(raw_len) < 4:
            raise TruncatedBlob(f"{path}: missing header length")
        (header_len,) = struct.unpack("<I", raw_len)
        raw = fh.read(header_len)
        if len(raw) < header_len:
            raise TruncatedBlob(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
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

        # Header fields that are missing or of the wrong type or value, the
        # towers' own checks of their sizes and hash seed included.
        try:
            dims = header["dims"]
            style_dims = {"layers": dims["style_layers"]}
            code_dims = {k: dims["code"][k]
                         for k in ("vocab", "embed_dim", "hidden_dim", "out_dim")}
            shapes = {"style": StyleTower.param_shapes(**style_dims),
                      "code": CodeTower.param_shapes(**code_dims)}
            if shapes["style"]["br"] != shapes["code"]["b2"]:
                raise ValueError(f"style width {shapes['style']['br'][0]} "
                                 f"!= code width {shapes['code']['b2'][0]}")
            tensors = header["tensors"]
            dtype = _DTYPES[tensors[0]["dtype"] if tensors else "<f4"]
            manifest = _tensor_manifest(shapes, dtype)
            if tensors != manifest:
                raise SchemaVersionMismatch("the tensor manifest is not the one save writes "
                                            "for the header's dims")
            counts = [math.prod(entry["shape"]) for entry in manifest]
            needed = sum(counts) * dtype.itemsize
            held = os.fstat(fh.fileno()).st_size - 8 - header_len
            if needed != held:
                raise TruncatedBlob(f"{path}: the tensors take {needed} bytes, "
                                    f"the file holds {held} after the header")
            params: dict[str, dict[str, np.ndarray]] = {"style": {}, "code": {}}
            for entry, count in zip(manifest, counts):
                prefix, name = entry["name"].split(".", 1)
                params[prefix][name] = np.fromfile(fh, dtype, count).reshape(entry["shape"])
            return EncoderModel(
                style=StyleTower(**style_dims, dtype=dtype, params=params["style"]),
                code=CodeTower(**code_dims, hash_seed=header["hash_seed"], dtype=dtype,
                               params=params["code"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedHeader(
                f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
