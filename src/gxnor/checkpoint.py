"""Versioned binary checkpoints ("GXNR1").

Layout: 5-byte magic ``GXNR1``, one format-version byte, a little-endian
uint32 header length, a UTF-8 JSON header, then raw array payloads.  The
header carries the full run config (enough to rebuild the network), the
input shape, measured activation zero fractions, and one descriptor per
stored array (encoding, dtype, shape, offset, byte count).

Ternary weight tensors are stored as mask/sign bit planes (64-bit
little-endian words, lane i at bit i mod 64 of word i div 64); other grid
tensors as uint16 grid indices, so a grid has at most 2**16 states; batch-norm
state as float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from math import prod

import numpy as np

from .config import ConfigError, RunConfig, _atomic_write
from .kernel import WORD_BITS, PackedTernary, pack_ternary_matrix, unpack_ternary
from .layers import BatchNorm, Conv2d, Dense
from .network import Network, network_from_config

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"GXNR1"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Unreadable, corrupt, or wrong-format checkpoint."""


# Keys every header and every array descriptor carries, with their JSON types.
HEADER_KEYS = {
    "format_version": int,
    "config": dict,
    "input_shape": list,
    "classes": int,
    "activation_zero_fractions": (list, type(None)),
    "arrays": list,
}
ARRAY_KEYS = {"name": str, "encoding": str, "dtype": str, "shape": list, "offset": int,
              "nbytes": int}
ENCODING_DTYPES = {"ternary-planes": "<u8", "grid-index": "<u2", "float": "<f8"}


def _check_keys(obj, keys: dict, path: str, what: str) -> None:
    if not isinstance(obj, dict):
        raise CheckpointError(f"{path}: {what} is not a JSON object")
    for key, kind in keys.items():
        if key not in obj:
            raise CheckpointError(f"{path}: {what} lacks {key!r}")
        # JSON true/false parse to bool, which Python counts as an int.
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise CheckpointError(f"{path}: {what} has a mistyped {key!r}")


class _PayloadWriter:
    def __init__(self):
        self.chunks: list[bytes] = []
        self.arrays: list[dict] = []
        self.offset = 0

    def add(self, name: str, encoding: str, arr: np.ndarray, dtype: str) -> None:
        blob = np.ascontiguousarray(arr).astype(dtype).tobytes()
        self.arrays.append({
            "name": name,
            "encoding": encoding,
            "dtype": dtype,
            "shape": list(arr.shape),
            "offset": self.offset,
            "nbytes": len(blob),
        })
        self.chunks.append(blob)
        self.offset += len(blob)


def _add_grid_tensor(writer: _PayloadWriter, name: str, param) -> None:
    value, space = param.value, param.space
    if space.n == 1:
        rows = value.reshape(value.shape[0], -1)
        planes = pack_ternary_matrix(np.rint(rows / space.h).astype(np.int64))
        writer.add(f"{name}.mask", "ternary-planes", planes.mask, "<u8")
        writer.add(f"{name}.sign", "ternary-planes", planes.sign, "<u8")
        writer.arrays[-2]["value_shape"] = list(value.shape)
        writer.arrays[-1]["value_shape"] = list(value.shape)
    elif space.num_states > 1 << 16:
        raise CheckpointError(f"{name}: {space.num_states} grid states overflow uint16 indices")
    else:
        writer.add(name, "grid-index", space.index_of(value).astype(np.uint16), "<u2")


def save_checkpoint(
    path: str,
    net: Network,
    config: RunConfig,
    activation_zero_fractions: list[float] | None = None,
) -> None:
    writer = _PayloadWriter()
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Dense, Conv2d)):
            _add_grid_tensor(writer, f"layer{i}.weight", layer.weight)
        elif isinstance(layer, BatchNorm):
            writer.add(f"layer{i}.gamma", "float", layer.gamma.value, "<f8")
            writer.add(f"layer{i}.beta", "float", layer.beta.value, "<f8")
            writer.add(f"layer{i}.running_mean", "float", layer.running_mean, "<f8")
            writer.add(f"layer{i}.running_var", "float", layer.running_var, "<f8")
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "activation_zero_fractions": activation_zero_fractions,
        "arrays": writer.arrays,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = b"".join([MAGIC, bytes([FORMAT_VERSION]), struct.pack("<I", len(header_bytes)),
                     header_bytes, *writer.chunks])
    try:
        _atomic_write(path, blob)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _read_header(blob: bytes, path: str) -> tuple[dict, bytes]:
    lead = len(MAGIC) + 1 + 4
    if len(blob) < lead:
        raise CheckpointError(f"{path}: too short to be a checkpoint")
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:len(MAGIC)]!r}, expected {MAGIC!r}")
    version = blob[len(MAGIC)]
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack("<I", blob[len(MAGIC) + 1:lead])
    if len(blob) < lead + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[lead:lead + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    _check_keys(header, HEADER_KEYS, path, "header")
    for desc in header["arrays"]:
        _check_keys(desc, ARRAY_KEYS, path, "array descriptor")
        if ENCODING_DTYPES.get(desc["encoding"]) != desc["dtype"]:
            raise CheckpointError(
                f"{path}: array {desc['name']!r} has dtype {desc['dtype']!r} "
                f"for encoding {desc['encoding']!r}")
    return header, blob[lead + header_len:]


def _take(payload: bytes, desc: dict, path: str) -> np.ndarray:
    lo, hi = desc["offset"], desc["offset"] + desc["nbytes"]
    if lo < 0 or hi < lo:
        raise CheckpointError(f"{path}: negative extent for array {desc['name']!r}")
    if hi > len(payload):
        raise CheckpointError(f"{path}: truncated payload for {desc['name']}")
    try:
        return np.frombuffer(payload[lo:hi], dtype=desc["dtype"]).reshape(desc["shape"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad extent for array {desc['name']!r}: {exc}") from exc


def load_checkpoint(path: str) -> tuple[Network, RunConfig, dict]:
    """Rebuild the network stored at ``path``; returns (net, config, header)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    header, payload = _read_header(blob, path)
    try:
        config = RunConfig(**header["config"]).validate()
    except (TypeError, KeyError, ConfigError) as exc:
        raise CheckpointError(f"{path}: invalid embedded config: {exc}") from exc
    try:
        net = network_from_config(config, header["input_shape"], header["classes"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: header does not fit its config: {exc}") from exc
    by_name = {desc["name"]: desc for desc in header["arrays"]}

    def grab(name: str, shape) -> np.ndarray:
        if name not in by_name:
            raise CheckpointError(f"{path}: missing array {name!r}")
        arr = _take(payload, by_name[name], path)
        if arr.shape != tuple(shape):
            raise CheckpointError(
                f"{path}: array {name!r} has shape {list(arr.shape)}, expected {list(shape)}")
        return arr

    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Dense, Conv2d)):
            space, shape = layer.weight.space, layer.weight.value.shape
            if space.n == 1:
                length = prod(shape[1:])
                planes_shape = (shape[0], (length + WORD_BITS - 1) // WORD_BITS)
                planes = PackedTernary(
                    length=length,
                    mask=grab(f"layer{i}.weight.mask", planes_shape),
                    sign=grab(f"layer{i}.weight.sign", planes_shape),
                )
                value_shape = by_name[f"layer{i}.weight.mask"].get("value_shape")
                if value_shape != list(shape):
                    raise CheckpointError(
                        f"{path}: layer {i} weight shape {value_shape} should be {list(shape)}")
                layer.weight.value = (unpack_ternary(planes) * space.h).reshape(shape)
            else:
                idx = grab(f"layer{i}.weight", shape).astype(np.int64)
                if idx.size and idx.max() >= space.num_states:
                    raise CheckpointError(f"{path}: grid index out of range in layer {i}")
                layer.weight.value = space.states()[idx]
        elif isinstance(layer, BatchNorm):
            shape = layer.gamma.value.shape
            layer.gamma.value = grab(f"layer{i}.gamma", shape).copy()
            layer.beta.value = grab(f"layer{i}.beta", shape).copy()
            layer.running_mean = grab(f"layer{i}.running_mean", shape).copy()
            layer.running_var = grab(f"layer{i}.running_var", shape).copy()
    return net, config, header
