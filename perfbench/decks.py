"""Seeded request decks: what each workload asks the program to do.

A *deck* is the fixed multiset of requests one round of a workload
sends; the seed only fixes the order (and nothing else), so two runs
with different seeds do the same work in a different sequence and
their medians compare.  Every workload is a closed loop with one
client: the next request goes out only after the previous one
completed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: the paper's three applications at the sizes the paper-* workloads
#: analyze: (workload, free bound, sizes, frozen parameters)
PAPER_KERNELS: Tuple[Tuple[str, str, Tuple[int, ...], Tuple], ...] = (
    ("sweep3d", "mesh", (8, 12), ()),
    ("gtc", "micell", (4, 6), ()),
    ("cg", "grid", (24, 48), ()),
)

#: small sizes for the cache and service workloads; GTC's grid is
#: shrunk to the validation-matrix shape so a miss stays sub-second
SMALL_KERNELS: Tuple[Tuple[str, str, Tuple[int, ...], Tuple], ...] = (
    ("sweep3d", "mesh", (4, 6), ()),
    ("gtc", "micell", (1, 2), (("mpsi", 8), ("mtheta", 12), ("mzeta", 4))),
    ("cg", "grid", (12, 16), ()),
)

#: the four dynamic paths of paper-cold
COLD_PATHS = ("fenwick", "numpy", "numpy-shards2", "numpy-shards2-spill")
#: the two static paths of paper-static
STATIC_PATHS = ("static", "closed-form")
#: engines of the cached-mix keys and service specs
MIX_ENGINES = ("fenwick", "numpy", "static")
#: requests in one cached-mix round (18 keys, ~0.9 hit ratio)
MIX_REQUESTS = 180


@dataclass(frozen=True)
class Request:
    """One analysis request: a kernel at one size along one path."""

    kernel: str
    free: str
    params: Tuple[Tuple[str, int], ...]
    path: str
    #: miss model of the prediction; service specs vary it so each
    #: (kernel, engine) is two distinct jobs with the same patterns
    miss_model: str = "sa"

    @property
    def size(self) -> int:
        return dict(self.params)[self.free]

    @property
    def param_dict(self) -> Dict[str, int]:
        return dict(self.params)

    @property
    def key(self) -> str:
        """Reference key: the kernel and its bounds, path-independent."""
        return self.kernel + ":" + ",".join(
            f"{k}={v}" for k, v in self.params)

    @property
    def static(self) -> bool:
        return self.path in STATIC_PATHS

    def __str__(self) -> str:
        model = "" if self.miss_model == "sa" else f"/{self.miss_model}"
        return f"{self.key}/{self.path}{model}"


def _points(kernels) -> List[Tuple[str, str, Tuple[Tuple[str, int], ...]]]:
    out = []
    for kernel, free, sizes, fixed in kernels:
        for size in sizes:
            params = tuple(sorted(dict(fixed, **{free: size}).items()))
            out.append((kernel, free, params))
    return out


def reference_points() -> List[Tuple[str, str, Tuple[Tuple[str, int], ...]]]:
    """Every (kernel, bounds) any workload requests."""
    return _points(PAPER_KERNELS) + _points(SMALL_KERNELS)


def _product(kernels, paths) -> List[Request]:
    return [Request(k, f, p, path) for k, f, p in _points(kernels)
            for path in paths]


def paper_cold(rng: random.Random) -> List[Request]:
    deck = _product(PAPER_KERNELS, COLD_PATHS)
    rng.shuffle(deck)
    return deck


def paper_static(rng: random.Random) -> List[Request]:
    # twice over: a static request is cheap enough that one pass leaves
    # too few samples for a tail percentile
    deck = _product(PAPER_KERNELS, STATIC_PATHS) * 2
    rng.shuffle(deck)
    return deck


def zipf_counts(keys: int, total: int) -> List[int]:
    """Request count per popularity rank, ~1/rank, summing to ~total."""
    harmonic = sum(1.0 / r for r in range(1, keys + 1))
    return [max(1, round(total / (harmonic * r))) for r in range(1, keys + 1)]


def mix_keys() -> List[Request]:
    """The 18 cached-mix keys in fixed popularity order.

    Ranks interleave kernels, sizes and engines so the hot keys span
    all three applications; the order is fixed (not seeded) so every
    seed serves the same per-key hit counts.
    """
    points = _points(SMALL_KERNELS)   # s4 s6 g1 g2 c12 c16
    order = [0, 2, 4, 1, 3, 5]
    keys = []
    for shift in range(len(MIX_ENGINES)):
        for i, pi in enumerate(order):
            engine = MIX_ENGINES[(i + shift) % len(MIX_ENGINES)]
            kernel, free, params = points[pi]
            keys.append(Request(kernel, free, params, engine))
    return keys


def cached_mix(rng: random.Random) -> List[Request]:
    """A Zipf-like stream over 18 keys: the multiset is fixed, the seed
    shuffles it, so each key's first occurrence is its one miss."""
    keys = mix_keys()
    deck = [key for key, n in zip(keys, zipf_counts(len(keys), MIX_REQUESTS))
            for _ in range(n)]
    rng.shuffle(deck)
    return deck


def service_specs() -> List[Request]:
    """36 distinct small job specs: kernel x size x engine x miss model."""
    return [Request(r.kernel, r.free, r.params, r.path, model)
            for r in _product(SMALL_KERNELS, MIX_ENGINES)
            for model in ("sa", "fa")]


def service_roundtrip(rng: random.Random) -> List[Request]:
    """Every spec three times in seeded order: the first submission of
    a spec is a new job, the other two are repeats the server's
    analysis cache serves.  Two thirds repeats (not one half) keeps the
    median inside the repeat mode instead of on the gap between the
    fast repeats and the slow new jobs; 36 new jobs put the tail
    percentile among several similar ones."""
    deck = service_specs() * 3
    rng.shuffle(deck)
    return deck


DECKS = {
    "paper-cold": paper_cold,
    "paper-static": paper_static,
    "cached-mix": cached_mix,
    "service-roundtrip": service_roundtrip,
}


def deck_for(workload: str, seed: int) -> List[Request]:
    return DECKS[workload](random.Random(f"{workload}:{seed}"))


def mix_of(deck: List[Request]) -> Dict[str, int]:
    """Request-kind mix: requests per path."""
    out: Dict[str, int] = {}
    for req in deck:
        out[req.path] = out.get(req.path, 0) + 1
    return dict(sorted(out.items()))


def warmup(deck: List[Request]) -> List[Request]:
    """Untimed warm-up requests: every path of the deck on its smallest
    CG point, the cheapest kernel of every deck (lazy imports and
    first-call set-up land here)."""
    first = min((r for r in deck if r.kernel == "cg"), key=lambda r: r.size)
    out: Dict[str, Request] = {}
    for req in deck:
        if req.params == first.params and req.kernel == "cg":
            out.setdefault(str(req), req)
    return list(out.values())
