"""Versioned binary checkpoints ("GXNR1").

Layout: 5-byte magic ``GXNR1``, one format-version byte, a little-endian
uint32 header length, a UTF-8 JSON header, then raw array payloads.  The
header carries the full run config (enough to rebuild the network), the
input shape, measured activation zero fractions, and one descriptor per
stored array (encoding, dtype, shape, offset, byte count).

The array table is a function of the config: ``_layout`` lays it out for a
network, ``save_checkpoint`` writes what it returns, and ``load_checkpoint``
lays it out again for the network rebuilt from the embedded config.  A load
requires the stored table to equal that one exactly, as JSON text, and the
payload to be exactly as long as the table says.

Ternary weight tensors are stored as mask/sign bit planes (64-bit
little-endian words, lane i at bit i mod 64 of word i div 64); other grid
tensors as uint16 grid indices, so a grid has at most 2**16 states; batch-norm
state as float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields
from math import prod

import numpy as np

from .config import ConfigError, RunConfig, _atomic_write
from .kernel import PackedTernary, pack_ternary_matrix, unpack_ternary
from .layers import BatchNorm, Conv2d, Dense
from .network import Network, network_from_config

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"GXNR1"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Unreadable, corrupt, or wrong-format checkpoint."""


# Keys every header carries, with their JSON types.
HEADER_KEYS = {
    "format_version": int,
    "config": dict,
    "input_shape": list,
    "classes": int,
    "activation_zero_fractions": (list, type(None)),
    "arrays": list,
}
ENCODING_DTYPES = {"ternary-planes": "<u8", "grid-index": "<u2", "float": "<f8"}
# The embedded config carries every RunConfig field; an int is a valid float.
CONFIG_KEYS = {f.name: {"int": int, "float": (int, float), "str": str}[f.type]
               for f in fields(RunConfig)}
BN_ARRAYS = ("gamma", "beta", "running_mean", "running_var")


def _check_keys(obj, keys: dict, path: str, what: str) -> None:
    if not isinstance(obj, dict):
        raise CheckpointError(f"{path}: {what} is not a JSON object")
    for key, kind in keys.items():
        if key not in obj:
            raise CheckpointError(f"{path}: {what} lacks {key!r}")
        # JSON true/false parse to bool, which Python counts as an int.
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise CheckpointError(f"{path}: {what} has a mistyped {key!r}")


def _check_fractions(fractions, quant: int, path: str) -> None:
    """Refuse activation zero fractions that are neither None nor one number
    in [0, 1] per quantized layer; save and load hold files to the same rule."""
    if fractions is None:
        return
    # type(), not isinstance: True would pass for 1 and a NumPy float for a float.
    if not all(type(z) in (int, float) and 0 <= z <= 1 for z in fractions):
        raise CheckpointError(f"{path}: activation zero fractions must be numbers in [0, 1]")
    if len(fractions) != quant:
        raise CheckpointError(f"{path}: {len(fractions)} zero fractions for {quant} quantizers")


def _layout(net: Network) -> list[tuple[dict, bytes]]:
    """Every stored array's descriptor and little-endian bytes, in file order."""
    table: list[tuple[dict, bytes]] = []
    offset = 0

    def add(name: str, encoding: str, arr: np.ndarray, **extra) -> None:
        nonlocal offset
        dtype = ENCODING_DTYPES[encoding]
        blob = np.ascontiguousarray(arr).astype(dtype).tobytes()
        table.append(({"name": name, "encoding": encoding, "dtype": dtype,
                       "shape": list(arr.shape), "offset": offset, "nbytes": len(blob),
                       **extra}, blob))
        offset += len(blob)

    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Dense, Conv2d)):
            name, value, space = f"layer{i}.weight", layer.weight.value, layer.weight.space
            if space.n == 1:
                rows = value.reshape(value.shape[0], -1)
                planes = pack_ternary_matrix(np.rint(rows / space.h).astype(np.int64))
                add(f"{name}.mask", "ternary-planes", planes.mask, value_shape=list(value.shape))
                add(f"{name}.sign", "ternary-planes", planes.sign, value_shape=list(value.shape))
            elif space.num_states > 1 << 16:
                raise CheckpointError(
                    f"{name}: {space.num_states} grid states overflow uint16 indices")
            else:
                add(name, "grid-index", space.index_of(value))
        elif isinstance(layer, BatchNorm):
            state = (layer.gamma.value, layer.beta.value, layer.running_mean, layer.running_var)
            for name, arr in zip(BN_ARRAYS, state):
                add(f"layer{i}.{name}", "float", arr)
    return table


def save_checkpoint(
    path: str,
    net: Network,
    config: RunConfig,
    activation_zero_fractions: list[float] | None = None,
) -> None:
    _check_fractions(activation_zero_fractions, len(net.quant_layers()), path)
    table = _layout(net)
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "activation_zero_fractions": activation_zero_fractions,
        "arrays": [desc for desc, _ in table],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = b"".join([MAGIC, bytes([FORMAT_VERSION]), struct.pack("<I", len(header_bytes)),
                     header_bytes, *(data for _, data in table)])
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
    _check_keys(header["config"], CONFIG_KEYS, path, "embedded config")
    return header, blob[lead + header_len:]


def _check_table(stored: list, table: list[dict], payload: bytes, path: str) -> None:
    """Refuse a file whose array table is not, text for text, the config's."""
    for got, want in zip(stored, table):
        # As JSON text, so that true never passes for 1 nor 2.0 for 2.
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            raise CheckpointError(
                f"{path}: array {want['name']!r} is not as the embedded config lays it out")
    if len(stored) != len(table):
        raise CheckpointError(
            f"{path}: {len(stored)} arrays stored, the embedded config lays out {len(table)}")
    size = sum(desc["nbytes"] for desc in table)
    if len(payload) != size:
        problem = "truncated payload" if len(payload) < size else "trailing bytes after payload"
        raise CheckpointError(f"{path}: {problem}: {len(payload)} bytes, expected {size}")


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
    _check_fractions(header["activation_zero_fractions"], len(net.quant_layers()), path)
    table = [desc for desc, _ in _layout(net)]
    _check_table(header["arrays"], table, payload, path)
    arrays = {desc["name"]: np.frombuffer(payload, desc["dtype"], prod(desc["shape"]),
                                          desc["offset"]).reshape(desc["shape"])
              for desc in table}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Dense, Conv2d)):
            name, space, shape = f"layer{i}.weight", layer.weight.space, layer.weight.value.shape
            if space.n == 1:
                planes = PackedTernary(prod(shape[1:]), arrays[f"{name}.mask"],
                                       arrays[f"{name}.sign"])
                layer.weight.value = (unpack_ternary(planes) * space.h).reshape(shape)
            else:
                idx = arrays[name].astype(np.int64)
                if idx.max() >= space.num_states:
                    raise CheckpointError(f"{path}: grid index out of range in layer {i}")
                layer.weight.value = space.states()[idx]
        elif isinstance(layer, BatchNorm):
            gamma, beta, mean, var = (arrays[f"layer{i}.{name}"].copy() for name in BN_ARRAYS)
            if not (np.isfinite([gamma, beta, mean, var]).all() and (var >= 0).all()):
                raise CheckpointError(
                    f"{path}: layer {i} batch-norm state is not finite or has a negative variance")
            layer.gamma.value, layer.beta.value = gamma, beta
            layer.running_mean, layer.running_var = mean, var
    return net, config, header
