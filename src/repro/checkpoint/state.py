"""Generic object-graph capture and in-place restore.

The checkpoint subsystem needs to freeze a live simulation — engine,
controller, event schedule and everything they transitively own — and later
rebuild *exactly* that state inside freshly constructed objects, such that
resuming the run produces bit-identical results. Pickling the objects
wholesale would fail on the callables they hold (strategy factories,
callback events) and would silently break the aliasing invariants the
vectorized engine depends on (device state views into the server's stacked
banks, samplers sharing their owner's generator). Instead, state is
captured as a *tagged tree* of pure data and restored **in place**:

* every mutable node (ndarray, list, dict, set, deque, object) is assigned
  a node id on first visit; later visits capture as ``{"__ref__": id}`` so
  aliasing is preserved exactly;
* restore walks the same tree against an existing object graph (the freshly
  constructed run) and mutates it in place wherever types line up —
  ``arr[...] = data`` for same-shape arrays, ``list[:] = items``,
  recursion into attribute values — falling back to reconstruction via
  ``cls.__new__`` only where no compatible counterpart exists;
* callables, modules and classes are captured as ``__skip__`` markers and
  left untouched on restore (fresh construction supplies them);
* ``numpy.random.Generator`` state round-trips through the bit generator's
  exact state dict, so random streams continue as if never interrupted.

Classes may customize their captured state with the
``__repro_getstate__()`` / ``__repro_setstate__(state)`` protocol (the MPC
uses it to snapshot matrix-cache *keys* and replay the assembly on
restore instead of serializing the read-only cached matrices).

Attribute and set iteration orders are made deterministic (sorted), so
capturing the same state twice yields equal trees — the property the
snapshot/restore round-trip tests are built on.
"""

from __future__ import annotations

import importlib
from collections import deque
from enum import Enum
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType

import numpy as np

from ..errors import CheckpointError

__all__ = ["capture", "restore", "count_rng_streams"]

_PRIMITIVES = (type(None), bool, int, float, str, bytes)


def _qualify(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_class(name: str) -> type:
    module_name, _, qualname = name.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise CheckpointError(f"cannot resolve checkpointed class {name!r}: {exc}") from exc
    if not isinstance(obj, type):
        raise CheckpointError(f"checkpointed class {name!r} resolved to a non-class")
    return obj


def _is_frozen_dataclass(obj) -> bool:
    params = getattr(type(obj), "__dataclass_params__", None)
    return params is not None and params.frozen


def _state_items(obj) -> list[tuple[str, object]]:
    """The (attr, value) storage of ``obj``: ``__slots__`` plus ``__dict__``.

    Sorted by attribute name so capture order — and therefore the placement
    of ``__ref__`` nodes — is deterministic.
    """
    items: dict[str, object] = {}
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__"):
                continue
            if hasattr(obj, name):
                items[name] = getattr(obj, name)
    items.update(getattr(obj, "__dict__", {}))
    return sorted(items.items())


class _Capture:
    """One capture pass: node-id assignment plus alias memoization."""

    def __init__(self):
        self._ids: dict[int, int] = {}
        self._keepalive: list[object] = []
        self._counter = 0

    def _node_id(self, obj) -> tuple[int, bool]:
        """(node id, first visit?) for an aliasable object."""
        key = id(obj)
        known = self._ids.get(key)
        if known is not None:
            return known, False
        self._counter += 1
        self._ids[key] = self._counter
        self._keepalive.append(obj)
        return self._counter, True

    def capture(self, obj):
        if isinstance(obj, _PRIMITIVES):
            return obj
        if isinstance(obj, np.generic):
            return {"__npval__": [str(obj.dtype), obj.tobytes()]}
        if isinstance(obj, np.ndarray):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {
                "__nd__": {
                    "#": nid,
                    "dtype": str(obj.dtype),
                    "shape": list(obj.shape),
                    "data": obj.tobytes(),
                }
            }
        if isinstance(obj, np.random.Generator):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {
                "__rng__": {
                    "#": nid,
                    "bitgen": type(obj.bit_generator).__name__,
                    "state": self.capture(obj.bit_generator.state),
                }
            }
        if isinstance(obj, tuple):
            return {"__tuple__": [self.capture(v) for v in obj]}
        if isinstance(obj, list):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {"__list__": {"#": nid, "items": [self.capture(v) for v in obj]}}
        if isinstance(obj, dict):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {
                "__dict__": {
                    "#": nid,
                    "items": [[self.capture(k), self.capture(v)] for k, v in obj.items()],
                }
            }
        if isinstance(obj, deque):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {
                "__deque__": {
                    "#": nid,
                    "maxlen": obj.maxlen,
                    "items": [self.capture(v) for v in obj],
                }
            }
        if isinstance(obj, (set, frozenset)):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            try:
                ordered = sorted(obj)
            except TypeError:
                ordered = sorted(obj, key=repr)
            return {
                "__set__": {
                    "#": nid,
                    "frozen": isinstance(obj, frozenset),
                    "items": [self.capture(v) for v in ordered],
                }
            }
        if isinstance(obj, Enum):
            return {"__enum__": {"cls": _qualify(type(obj)), "name": obj.name}}
        if isinstance(
            obj, (FunctionType, BuiltinFunctionType, MethodType, ModuleType, type)
        ):
            return {"__skip__": getattr(obj, "__qualname__", None) or repr(obj)}
        if _is_frozen_dataclass(obj):
            # Immutable value objects (configs): captured by fields,
            # reconstructed fresh on restore — no aliasing to preserve.
            return {
                "__frozen__": {
                    "cls": _qualify(type(obj)),
                    "state": [[k, self.capture(v)] for k, v in _state_items(obj)],
                }
            }
        nid, first = self._node_id(obj)
        if not first:
            return {"__ref__": nid}
        node: dict = {"#": nid, "cls": _qualify(type(obj))}
        getstate = getattr(obj, "__repro_getstate__", None)
        if getstate is not None:
            node["custom"] = self.capture(getstate())
        else:
            node["state"] = [[k, self.capture(v)] for k, v in _state_items(obj)]
        return {"__obj__": node}


def capture(*objects):
    """Capture one shared-memo tagged tree per object; returns a list.

    All objects share a single alias memo, so cross-object references (a
    controller holding the engine's model arrays) restore to the *same*
    object on the other side.
    """
    cap = _Capture()
    return [cap.capture(obj) for obj in objects]


class _Restore:
    """One restore pass: node-id -> restored-object memo."""

    def __init__(self):
        self._memo: dict[int, object] = {}

    def restore(self, tag, existing):
        if isinstance(tag, _PRIMITIVES):
            return tag
        if not isinstance(tag, dict):
            raise CheckpointError(f"malformed checkpoint node: {tag!r}")
        if "__ref__" in tag:
            nid = tag["__ref__"]
            if nid not in self._memo:
                raise CheckpointError(f"dangling checkpoint reference #{nid}")
            return self._memo[nid]
        if "__npval__" in tag:
            dtype, data = tag["__npval__"]
            return np.frombuffer(data, dtype=np.dtype(dtype))[0]
        if "__nd__" in tag:
            return self._restore_array(tag["__nd__"], existing)
        if "__rng__" in tag:
            return self._restore_rng(tag["__rng__"], existing)
        if "__tuple__" in tag:
            return self._restore_tuple(tag["__tuple__"], existing)
        if "__list__" in tag:
            return self._restore_list(tag["__list__"], existing)
        if "__dict__" in tag:
            return self._restore_dict(tag["__dict__"], existing)
        if "__deque__" in tag:
            return self._restore_deque(tag["__deque__"], existing)
        if "__set__" in tag:
            return self._restore_set(tag["__set__"], existing)
        if "__enum__" in tag:
            info = tag["__enum__"]
            cls = _resolve_class(info["cls"])
            return cls[info["name"]]
        if "__skip__" in tag:
            return existing
        if "__frozen__" in tag:
            return self._restore_frozen(tag["__frozen__"], existing)
        if "__obj__" in tag:
            return self._restore_object(tag["__obj__"], existing)
        raise CheckpointError(f"unknown checkpoint tag: {sorted(tag)!r}")

    def _restore_array(self, node, existing):
        data = np.frombuffer(node["data"], dtype=np.dtype(node["dtype"]))
        arr = data.reshape(tuple(node["shape"]))
        if (
            isinstance(existing, np.ndarray)
            and existing.shape == arr.shape
            and existing.dtype == arr.dtype
            and existing.flags.writeable
        ):
            existing[...] = arr
            self._memo[node["#"]] = existing
            return existing
        fresh = arr.copy()
        self._memo[node["#"]] = fresh
        return fresh

    def _restore_rng(self, node, existing):
        state = self.restore(node["state"], None)
        if (
            isinstance(existing, np.random.Generator)
            and type(existing.bit_generator).__name__ == node["bitgen"]
        ):
            gen = existing
        else:
            bitgen_cls = getattr(np.random, node["bitgen"], None)
            if bitgen_cls is None:
                raise CheckpointError(f"unknown bit generator {node['bitgen']!r}")
            gen = np.random.Generator(bitgen_cls())
        gen.bit_generator.state = state
        self._memo[node["#"]] = gen
        return gen

    def _restore_tuple(self, items, existing):
        counterparts: tuple = ()
        if isinstance(existing, tuple) and len(existing) == len(items):
            counterparts = existing
        restored = [
            self.restore(t, counterparts[i] if counterparts else None)
            for i, t in enumerate(items)
        ]
        if counterparts and all(r is e for r, e in zip(restored, counterparts)):
            return existing
        return tuple(restored)

    def _restore_list(self, node, existing):
        items = node["items"]
        target = existing if isinstance(existing, list) else []
        self._memo[node["#"]] = target
        paired = len(target) == len(items)
        restored = [
            self.restore(t, target[i] if paired else None)
            for i, t in enumerate(items)
        ]
        target[:] = restored
        return target

    def _restore_dict(self, node, existing):
        target = existing if isinstance(existing, dict) else {}
        self._memo[node["#"]] = target
        pairs = []
        for k_tag, v_tag in node["items"]:
            key = self.restore(k_tag, None)
            counterpart = target.get(key) if isinstance(existing, dict) else None
            pairs.append((key, self.restore(v_tag, counterpart)))
        target.clear()
        target.update(pairs)
        return target

    def _restore_deque(self, node, existing):
        items = node["items"]
        if isinstance(existing, deque) and existing.maxlen == node["maxlen"]:
            target = existing
        else:
            target = deque(maxlen=node["maxlen"])
        self._memo[node["#"]] = target
        paired = len(target) == len(items)
        restored = [
            self.restore(t, target[i] if paired else None)
            for i, t in enumerate(items)
        ]
        target.clear()
        target.extend(restored)
        return target

    def _restore_set(self, node, existing):
        items = [self.restore(t, None) for t in node["items"]]
        if node["frozen"]:
            fresh = frozenset(items)
            self._memo[node["#"]] = fresh
            return fresh
        target = existing if isinstance(existing, set) else set()
        self._memo[node["#"]] = target
        target.clear()
        target.update(items)
        return target

    def _restore_frozen(self, node, existing):
        cls = _resolve_class(node["cls"])
        inst = cls.__new__(cls)
        for attr, tag in node["state"]:
            value = self.restore(tag, getattr(existing, attr, None))
            object.__setattr__(inst, attr, value)
        return inst

    def _restore_object(self, node, existing):
        cls = _resolve_class(node["cls"])
        if type(existing) is cls:
            target = existing
        else:
            target = cls.__new__(cls)
        self._memo[node["#"]] = target
        if "custom" in node:
            setstate = getattr(target, "__repro_setstate__", None)
            if setstate is None:
                raise CheckpointError(
                    f"{node['cls']} was checkpointed with __repro_getstate__ but "
                    "has no __repro_setstate__"
                )
            # Restore against the live object's own projection, so what it
            # shares with the rest of the graph (a generator) restores in place.
            counterpart = target.__repro_getstate__() if target is existing else None
            setstate(self.restore(node["custom"], counterpart))
            return target
        for attr, tag in node["state"]:
            current = getattr(target, attr, None)
            value = self.restore(tag, current)
            if value is not current or not hasattr(target, attr):
                setattr(target, attr, value)
        return target


def restore(tags, existing_objects):
    """Restore trees from :func:`capture` into ``existing_objects`` in place.

    ``tags`` and ``existing_objects`` must align pairwise with the capture
    call. Returns the restored objects (identical to the existing ones
    wherever types matched — which they always do for a correctly
    reconstructed run).
    """
    if len(tags) != len(existing_objects):
        raise CheckpointError(
            f"{len(tags)} state trees but {len(existing_objects)} target objects"
        )
    rest = _Restore()
    return [rest.restore(tag, obj) for tag, obj in zip(tags, existing_objects)]


def count_rng_streams(tag) -> int:
    """Number of distinct random-generator states inside a captured tree."""
    count = 0
    stack = [tag]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "__rng__" in node:
                count += 1
                stack.append(node["__rng__"]["state"])
            else:
                stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return count
