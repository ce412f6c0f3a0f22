"""Workload inputs: generation, the on-disk cache and its digest check.

A workload's network (topology + per-peer databases) is a pure function
of its generator parameters, its seed included.  Generating the 200k-peer
network takes ~17 s, so the first run stores the result under
``perfbench/.cache/`` and later runs load it.

Generation always runs in a child process (``run.py --generate``): the
measuring process then only ever *loads* inputs, so its peak resident
memory is the same on a cold and a warm cache.  Every entry carries a
sha256 over the rebuilt topology's CSR arrays and the concatenated
tuple values; loading recomputes it over the objects it hands to the
workload, so a cache hit is bit-identical to fresh generation or is
thrown away and regenerated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.network.generators import power_law_topology
from repro.network.topology import Topology

CACHE_DIR = Path(__file__).resolve().parent / ".cache"


@dataclasses.dataclass(frozen=True)
class NetworkParams:
    """Generator parameters of one workload's network."""

    peers: int
    edges: int
    tuples: int
    seed: int
    block_size: int = 25

    def key(self) -> str:
        return (
            f"p{self.peers}-e{self.edges}-t{self.tuples}-b{self.block_size}-s{self.seed}"
        )


@dataclasses.dataclass
class Network:
    """Loaded inputs, ready to hand to the program."""

    topology: Topology
    databases: List[LocalDatabase]
    digest: str
    source: str  # "generated" | "cache"
    generate_s: float
    load_s: float


def _digest(topology: Topology, values: np.ndarray, lengths: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in (topology.indptr, topology.indices, values, lengths):
        h.update(str(array.dtype).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _narrow(values: np.ndarray) -> np.ndarray:
    """The smallest unsigned dtype holding ``values`` exactly (disk only)."""
    if values.size and values.min() >= 0:
        for dtype in (np.uint8, np.uint16, np.uint32):
            if values.max() <= np.iinfo(dtype).max:
                return values.astype(dtype)
    return values


def generate(params: NetworkParams) -> Path:
    """Generate one network and store it in the cache; returns the entry."""
    started = time.perf_counter()
    topology = power_law_topology(params.peers, params.edges, seed=params.seed)
    dataset = generate_dataset(
        topology,
        DatasetConfig(num_tuples=params.tuples, block_size=params.block_size),
        seed=params.seed,
    )
    columns = [db.column("A") for db in dataset.databases]
    lengths = np.asarray([c.size for c in columns], dtype=np.int64)
    values = np.concatenate(columns)
    digest = _digest(topology, values, lengths)
    elapsed = time.perf_counter() - started
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    entry = CACHE_DIR / f"{params.key()}.npz"
    partial = entry.with_suffix(".partial.npz")
    np.savez(
        partial,
        edges=topology.edge_array.astype(np.int32),
        values=_narrow(values),
        lengths=lengths,
        meta=np.frombuffer(
            json.dumps(
                {
                    "digest": digest,
                    "values_dtype": str(values.dtype),
                    "num_peers": topology.num_peers,
                    "generate_s": elapsed,
                }
            ).encode(),
            dtype=np.uint8,
        ),
    )
    partial.replace(entry)
    return entry


def _load(entry: Path, block_size: int) -> Tuple[Network, bool]:
    started = time.perf_counter()
    with np.load(entry) as data:
        meta = json.loads(data["meta"].tobytes().decode())
        edges = data["edges"]
        values = data["values"].astype(meta["values_dtype"])
        lengths = data["lengths"]
    topology = Topology.from_edge_array(meta["num_peers"], edges)
    ok = _digest(topology, values, lengths) == meta["digest"]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    databases = [
        LocalDatabase({"A": values[start:stop].copy()}, block_size=block_size)
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
    network = Network(
        topology=topology,
        databases=databases,
        digest=meta["digest"],
        source="cache",
        generate_s=float(meta["generate_s"]),
        load_s=time.perf_counter() - started,
    )
    return network, ok


def load_network(params: NetworkParams) -> Network:
    """The workload's network, generating it (in a child) on a miss.

    A corrupt or stale entry fails its digest check and is regenerated
    once; a second mismatch is a bug in generation and raises.
    """
    entry = CACHE_DIR / f"{params.key()}.npz"
    script = Path(__file__).with_name("run.py")
    for _ in range(2):
        fresh = not entry.exists()
        if fresh:
            subprocess.run(
                [
                    sys.executable,
                    str(script),
                    "--generate",
                    json.dumps(dataclasses.asdict(params)),
                ],
                check=True,
                stdout=subprocess.DEVNULL,
            )
        network, ok = _load(entry, params.block_size)
        if ok:
            if fresh:
                network.source = "generated"
            return network
        entry.unlink(missing_ok=True)
    raise RuntimeError(f"cache entry {entry.name} fails its digest check")
