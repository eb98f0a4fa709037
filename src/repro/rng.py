"""Deterministic random-number plumbing.

Every stochastic component of the simulated testbed (sensor noise, inference
latency jitter, request arrivals, synthetic traces) draws from an explicit
:class:`numpy.random.Generator`. Experiments construct a single root seed and
derive independent child streams per component via :func:`spawn`, so that

* two runs with the same seed are bit-for-bit identical, and
* adding a new noise consumer does not perturb the streams of existing ones
  (each component has its own named stream).
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np

__all__ = [
    "make_rng",
    "spawn",
    "BlockSampler",
    "SeedLike",
    "generator_state",
    "set_generator_state",
]

SeedLike: TypeAlias = int | np.random.Generator | np.random.SeedSequence | None


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an ``int``, an existing ``Generator`` (returned as-is),
    a ``SeedSequence``, or ``None`` (OS entropy — only for interactive use;
    experiments always pass an int).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(seed: SeedLike, name: str) -> np.random.Generator:
    """Derive an independent, reproducible child generator.

    The child stream is keyed on ``(seed, name)`` so distinct components get
    decorrelated streams and the mapping is stable across runs and across
    unrelated code changes.

    Parameters
    ----------
    seed:
        Root seed (int) or ``SeedSequence``. If a ``Generator`` is passed,
        a stream is split off it directly (still deterministic given the
        generator state, but no longer keyed by name).
    name:
        Component name, e.g. ``"power-meter-noise"``.
    """
    if isinstance(seed, np.random.Generator):
        return np.random.default_rng(seed.integers(0, 2**63 - 1))
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(0 if seed is None else int(seed))
    # Fold the component name into the entropy so streams are independent.
    digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    child = np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(int(b) for b in digest)
    )
    return np.random.default_rng(child)


def generator_state(rng: np.random.Generator) -> dict:
    """The exact bit-generator state of ``rng`` (checkpointable).

    The returned dict (``{"bitgen": <class name>, "state": <state dict>}``)
    round-trips through :func:`set_generator_state` such that the stream
    continues bit-for-bit where it left off.
    """
    return {
        "bitgen": type(rng.bit_generator).__name__,
        "state": rng.bit_generator.state,
    }


def set_generator_state(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """Load a :func:`generator_state` snapshot into ``rng`` in place."""
    have = type(rng.bit_generator).__name__
    want = state["bitgen"]
    if have != want:
        raise ValueError(f"bit generator mismatch: have {have}, snapshot is {want}")
    rng.bit_generator.state = state["state"]
    return rng


class BlockSampler:
    """Block pre-drawing of i.i.d. samples from one Generator distribution.

    The hot loop draws one sample per event (``rng.normal(0, sigma)``,
    ``rng.poisson(lam)``, ...), which pays the Generator dispatch overhead on
    every draw. Pre-drawing a block with ``size=n`` consumes the *same*
    underlying bit stream as ``n`` scalar draws for the distributions used
    here (normal, lognormal, poisson — verified by ``TestBlockSampler`` in
    ``tests/sim/test_vectorized_digest.py``), so handing out cached samples
    one at a time is bit-for-bit equivalent and an order of magnitude
    cheaper.

    One sampler serves one distribution with *fixed* parameters; that is the
    shape of every noise stream in the simulator (each component owns a
    dedicated spawned generator). Samples are handed out as Python floats so
    downstream scalar arithmetic is unchanged.
    """

    __slots__ = ("_rng", "_dist", "_args", "_block", "_buf", "_i")

    def __init__(
        self,
        rng: np.random.Generator,
        dist: str,
        args: tuple[float, ...],
        block: int = 256,
    ) -> None:
        if block < 1:
            raise ValueError("block must be >= 1")
        self._rng = rng
        self._dist = str(dist)
        self._args = tuple(args)
        self._block = int(block)
        self._buf: list[float] = []
        self._i = 0

    @property
    def params(self) -> tuple[float, ...]:
        """The fixed distribution parameters this sampler was built with."""
        return self._args

    def next(self) -> float:
        """The next sample of the stream (refilling the block as needed)."""
        if self._i >= len(self._buf):
            draw = getattr(self._rng, self._dist)
            self._buf = draw(*self._args, size=self._block).tolist()
            self._i = 0
        value = self._buf[self._i]
        self._i += 1
        return value

    def take(self, n: int) -> list[float]:
        """The next ``n`` samples of the stream, as a list of floats.

        Equivalent to ``[self.next() for _ in range(n)]`` (and therefore to
        one ``size=n`` draw on the wrapped generator), without the per-sample
        call overhead.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        buf, i = self._buf, self._i
        end = i + n
        if end <= len(buf):
            self._i = end
            return buf[i:end]
        out = buf[i:]
        need = n - len(out)
        draw = getattr(self._rng, self._dist)
        # Refill in block multiples so the stream position stays aligned
        # with what repeated next() calls would have consumed.
        block = self._block
        fill = ((need + block - 1) // block) * block
        self._buf = buf = draw(*self._args, size=fill).tolist()
        out.extend(buf[:need])
        self._i = need
        return out

    # -- checkpointing (see repro.checkpoint.state) --------------------------

    def __repro_getstate__(self) -> dict:
        """The sampler's state with the prefetched block as one float64 array.

        A float64 array round-trips every Python float exactly, so a
        restored sampler continues ``next()``/``take()`` bit for bit.
        """
        return {
            "rng": self._rng,
            "dist": self._dist,
            "args": self._args,
            "block": self._block,
            "buf": np.array(self._buf, dtype=np.float64),
            "i": self._i,
        }

    def __repro_setstate__(self, state: dict) -> None:
        self._rng = state["rng"]
        self._dist = state["dist"]
        self._args = state["args"]
        self._block = state["block"]
        self._buf = state["buf"].tolist()
        self._i = state["i"]
