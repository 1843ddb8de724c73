"""The shared result schema of the unified API.

Every analysis kind returns the same record shape — a :class:`Result` — so
downstream code (caching, aggregation, serialization, reporting) never
branches on which analysis produced a value:

* ``arrays`` — the numeric payload (solution vectors/stacks, time axes,
  per-trial statistics) as NumPy arrays;
* ``scalars`` — JSON-safe summary values (converged, iterations, strategy);
* ``convergence`` — how the result was obtained: always carries
  ``newton_iterations`` (total Newton iterations *performed* to compute
  this result) plus the analysis-specific detail, including the engine's
  :class:`~repro.spice.dcop.ConvergenceInfo` /
  :class:`~repro.spice.transient.TransientConvergenceInfo` rendered as a
  tagged dict (reconstructable through :attr:`Result.convergence_info`);
* ``provenance`` — the spec hash, a git describe of the source tree and
  the library versions the result was computed with;
* ``meta`` — circuit bookkeeping (node names, source branch positions) so
  results stay usable without the circuit object;
* ``children`` — nested results of composite analyses (one per corner).

Serialization is exact: arrays round-trip through JSON bitwise (floats are
rendered with :func:`repr`, which is shortest-round-trip for IEEE doubles;
NaN/Infinity use the JSON extension Python's :mod:`json` accepts by
default), so a result loaded from the on-disk cache is indistinguishable
from the freshly computed one.
"""

from __future__ import annotations

import copy as copy_module
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.spice.dcop import ConvergenceInfo
from repro.spice.netlist import GROUND
from repro.spice.transient import TransientConvergenceInfo

#: Version stamp of the serialized result schema.
RESULT_SCHEMA_VERSION = 1

#: dtypes the exact-JSON array codec supports.
_ARRAY_DTYPES = {"float64", "int64", "bool"}


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Encode an array as a JSON-safe dict (bitwise-exact for float64)."""
    array = np.asarray(array)
    name = str(array.dtype)
    if name.startswith("int"):
        array = array.astype(np.int64)
        name = "int64"
    if name not in _ARRAY_DTYPES:
        raise TypeError(f"unsupported result array dtype {name!r}")
    return {
        "dtype": name,
        "shape": list(array.shape),
        "data": array.ravel().tolist(),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    array = np.array(payload["data"], dtype=payload["dtype"])
    return array.reshape(payload["shape"])


def convergence_info_to_dict(
    info: Union[ConvergenceInfo, TransientConvergenceInfo, None]
) -> Optional[Dict[str, Any]]:
    """Render an engine convergence-info record as a tagged JSON-safe dict."""
    if info is None:
        return None
    if isinstance(info, ConvergenceInfo):
        return {
            "type": "ConvergenceInfo",
            "strategy": info.strategy,
            "iterations": int(info.iterations),
            "final_max_update_v": float(info.final_max_update_v),
            "factorizations": int(info.factorizations),
            "factorization_reuses": int(info.factorization_reuses),
        }
    if isinstance(info, TransientConvergenceInfo):
        return {
            "type": "TransientConvergenceInfo",
            "strategy": info.strategy,
            "newton_iterations": int(info.newton_iterations),
            "max_newton_residual_v": float(info.max_newton_residual_v),
            "accepted_steps": int(info.accepted_steps),
            "rejected_steps": int(info.rejected_steps),
            "min_step_s": float(info.min_step_s),
            "max_step_s": float(info.max_step_s),
            "factorizations": int(info.factorizations),
            "factorization_reuses": int(info.factorization_reuses),
            "dc_strategy": info.dc_strategy,
        }
    raise TypeError(f"unsupported convergence info {type(info).__qualname__}")


def convergence_info_from_dict(
    payload: Optional[Dict[str, Any]]
) -> Union[ConvergenceInfo, TransientConvergenceInfo, None]:
    """Rebuild the engine dataclass from its tagged dict."""
    if payload is None:
        return None
    kind = payload.get("type")
    fields = {k: v for k, v in payload.items() if k != "type"}
    if kind == "ConvergenceInfo":
        return ConvergenceInfo(**fields)
    if kind == "TransientConvergenceInfo":
        return TransientConvergenceInfo(**fields)
    raise ValueError(f"unknown convergence info type {kind!r}")


@dataclass
class Result:
    """One analysis result in the shared schema (see the module docstring)."""

    kind: str
    spec_hash: str
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    scalars: Dict[str, Any] = field(default_factory=dict)
    convergence: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    children: Dict[str, "Result"] = field(default_factory=dict)
    from_cache: bool = False

    def copy(self) -> "Result":
        """An independent copy (arrays and containers are not shared).

        The session hands copies across the cache boundary in both
        directions, so a caller mutating a returned result can never
        corrupt later cache hits.
        """
        return Result(
            kind=self.kind,
            spec_hash=self.spec_hash,
            arrays={name: array.copy() for name, array in self.arrays.items()},
            scalars=copy_module.deepcopy(self.scalars),
            convergence=copy_module.deepcopy(self.convergence),
            provenance=copy_module.deepcopy(self.provenance),
            meta=copy_module.deepcopy(self.meta),
            children={name: child.copy() for name, child in self.children.items()},
            from_cache=self.from_cache,
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def converged(self) -> bool:
        own = bool(self.scalars.get("converged", True))
        return own and all(child.converged for child in self.children.values())

    @property
    def newton_iterations(self) -> int:
        """Total Newton iterations performed to compute this result tree."""
        own = int(self.convergence.get("newton_iterations", 0))
        return own + sum(child.newton_iterations for child in self.children.values())

    @property
    def factorizations(self) -> int:
        """Total numeric factorizations performed to compute this result tree."""
        own = int(self.convergence.get("factorizations", 0))
        return own + sum(child.factorizations for child in self.children.values())

    @property
    def factorization_reuses(self) -> int:
        """Total solves served by an existing factorization across the tree."""
        own = int(self.convergence.get("factorization_reuses", 0))
        return own + sum(
            child.factorization_reuses for child in self.children.values()
        )

    @property
    def convergence_info(
        self,
    ) -> Union[ConvergenceInfo, TransientConvergenceInfo, None]:
        """The engine's convergence record, rebuilt from the stored dict."""
        return convergence_info_from_dict(self.convergence.get("info"))

    def _node_index(self, node_name: str) -> int:
        names = self.meta.get("node_names")
        if names is None:
            raise KeyError("this result carries no node-name metadata")
        if node_name == GROUND:
            return -1
        if node_name not in names:
            # Match the legacy result types, which raise through
            # Circuit.node_index — a typo must not read as 0 V.
            raise KeyError(f"unknown node {node_name!r}")
        return names.index(node_name)

    def voltage(self, node_name: str) -> Union[float, np.ndarray]:
        """Voltage of a named node: scalar for a DC op, column otherwise."""
        index = self._node_index(node_name)
        if "solution" in self.arrays:
            return 0.0 if index < 0 else float(self.arrays["solution"][index])
        solutions = self.arrays["solutions"]
        if index < 0:
            return np.zeros(solutions.shape[0])
        return solutions[:, index].copy()

    def source_current(self, source_name: str) -> Union[float, np.ndarray]:
        """Current through a named voltage source (scalar or column)."""
        positions = self.meta.get("branch_positions", {})
        if source_name not in positions:
            raise KeyError(f"{source_name!r} is not a voltage source of the circuit")
        index = int(positions[source_name])
        if "solution" in self.arrays:
            return float(self.arrays["solution"][index])
        return self.arrays["solutions"][:, index].copy()

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": self.kind,
            "spec_hash": self.spec_hash,
            "arrays": {name: encode_array(a) for name, a in self.arrays.items()},
            "scalars": self.scalars,
            "convergence": self.convergence,
            "provenance": self.provenance,
            "meta": self.meta,
            "children": {
                name: child.to_jsonable() for name, child in self.children.items()
            },
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "Result":
        version = payload.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema version {version!r} "
                f"(this build reads version {RESULT_SCHEMA_VERSION})"
            )
        return cls(
            kind=payload["kind"],
            spec_hash=payload["spec_hash"],
            arrays={
                name: decode_array(a) for name, a in payload.get("arrays", {}).items()
            },
            scalars=dict(payload.get("scalars", {})),
            convergence=dict(payload.get("convergence", {})),
            provenance=dict(payload.get("provenance", {})),
            meta=dict(payload.get("meta", {})),
            children={
                name: cls.from_jsonable(child)
                for name, child in payload.get("children", {}).items()
            },
        )

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Result":
        return cls.from_jsonable(json.loads(text))


@dataclass
class ResultSet:
    """An ordered collection of results with tidy columnar access."""

    results: List[Result] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Result]:
        return iter(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]

    @property
    def all_converged(self) -> bool:
        return all(result.converged for result in self.results)

    @property
    def newton_iterations(self) -> int:
        return sum(result.newton_iterations for result in self.results)

    @property
    def factorizations(self) -> int:
        return sum(result.factorizations for result in self.results)

    @property
    def factorization_reuses(self) -> int:
        return sum(result.factorization_reuses for result in self.results)

    def column(self, key: str) -> np.ndarray:
        """One scalar across all results, as an array (tidy column access)."""
        return np.array(
            [float(result.scalars[key]) for result in self.results], dtype=float
        )

    def columns(self, keys: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Tidy columnar view: scalar name -> per-result value array."""
        if keys is None:
            keys = sorted(
                {
                    key
                    for result in self.results
                    for key, value in result.scalars.items()
                    if isinstance(value, (int, float, bool))
                }
            )
        return {key: self.column(key) for key in keys}

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "results": [result.to_jsonable() for result in self.results],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "ResultSet":
        return cls(
            results=[Result.from_jsonable(item) for item in payload.get("results", [])]
        )

    def to_json(self, fp: Optional[io.TextIOBase] = None) -> str:
        text = json.dumps(self.to_jsonable(), sort_keys=True)
        if fp is not None:
            fp.write(text)
        return text

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_jsonable(json.loads(text))

    # ------------------------------------------------------------------ #
    # store-backed construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_store(
        cls,
        store,
        keys: Optional[Sequence[str]] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> "ResultSet":
        """Materialize stored results into an ordered set.

        With ``keys``, results come back in that order and a missing key
        raises ``KeyError`` (an explicit selection must not silently
        shrink).  Without ``keys``, stored results are taken in *sorted key
        order* — deterministic whatever the backend's own iteration order
        (the in-memory store iterates LRU order, for instance) — optionally
        filtered by result ``kind``.

        ``offset``/``limit`` paginate the (kind-filtered) sequence: skip
        the first ``offset`` matches, return at most ``limit``.  This is
        the single pagination code path shared by library users and the
        service front door's ``GET /results`` endpoint; because the
        ordering is the sorted key sequence, page N+1 continues exactly
        where page N stopped even across processes.

        Persistent stores deserialize fresh objects; a
        :class:`~repro.api.stores.MemoryStore` hands back its stored
        references — ``.copy()`` before mutating those.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        results: List[Result] = []
        if keys is not None:
            matched = 0
            for key in keys:
                result = store.get(key)
                if result is None:
                    raise KeyError(f"store has no result under key {key!r}")
                if kind is not None and result.kind != kind:
                    continue
                matched += 1
                if matched <= offset:
                    continue
                if limit is not None and len(results) >= limit:
                    # Keep validating the remaining keys (missing keys must
                    # still raise) but collect nothing past the page.
                    continue
                results.append(result)
            return cls(results=results)
        if limit == 0:
            return cls(results=[])
        matched = 0
        for key in sorted(store.keys()):
            result = store.get(key)
            if result is None:  # evicted/expired between keys() and get()
                continue
            if kind is not None and result.kind != kind:
                continue
            matched += 1
            if matched <= offset:
                continue
            results.append(result)
            if limit is not None and len(results) >= limit:
                break
        return cls(results=results)
