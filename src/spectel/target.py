"""Finite product-space distributions: ingest, random draws, and context enumeration.

A :class:`FiniteTarget` stores the full joint probability tensor of a random
vector (X_1, ..., X_n) over a product of finite alphabets, read from the JSON
wire format (any malformed file raises :class:`DomainError`) or drawn from
Dirichlet(1).  :func:`_supported_level` takes each context's slice as a view
of the tensor and divides it by its mass, exactly; contexts with zero mass
are skipped, since every gap and bound minimizes over supported contexts.

Conventions, normative throughout the package:

* coordinate indices are 1-based in every public interface;
* alphabet values are 0-based;
* tensors are row-major (C order) over X_1 x ... x X_n, last axis fastest.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, _check_axes, _check_memory, _read_json

# Largest tolerated deviation of ingested mass from 1 before renormalizing.
# Anything worse is rejected: silently rescaling badly scaled input hides bugs.
INGEST_TOL = 1e-9
# Bytes that reading a target file holds per byte of the file: json.load's
# objects, then FiniteTarget's arrays.  As ru_maxrss in fresh processes, a
# list of lists nested 60 deep held 63.5 times the file size, flat zeros
# ("0,") 13.6 and Dirichlet(1) floats 2.7.
_BYTES_PER_FILE_BYTE = 64


@dataclass(frozen=True, eq=False)
class FiniteTarget:
    """Explicit joint pmf over a product of finite alphabets.

    ``axes`` lists the alphabet sizes (length >= 2, each >= 2).  ``probs`` is
    the flat joint tensor (row-major, last axis fastest), stored shaped to
    ``axes``; it must be entrywise finite and nonnegative with total mass
    within ``INGEST_TOL`` of 1, and is renormalized to sum to exactly 1.

    Instances are immutable (the tensor is write-protected) and safe to share
    across threads.
    """

    axes: tuple[int, ...]
    probs: np.ndarray

    def __init__(self, axes: Sequence[int], probs) -> None:
        axes_t = _check_axes(axes)
        try:
            arr = np.asarray(probs)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"probabilities must be numeric: {exc}") from None
        if arr.dtype.kind not in "iuf":
            raise DomainError(f"probabilities must be numeric, got {arr.dtype} entries")
        arr = arr.astype(float, copy=False)
        if arr.ndim != 1:
            raise DomainError(f"probabilities must be a flat list, got {arr.ndim} dimensions")
        # An array holds under 2^64 entries, so past 64 sizes no product is
        # taken (a long list of huge ones takes seconds), nor is it echoed.
        if len(axes_t) > 64 or arr.size != math.prod(axes_t):
            raise DomainError(
                f"flat tensor has {arr.size} entries, not the product of the "
                f"{len(axes_t)} alphabet sizes"
            )
        arr = arr.reshape(axes_t)
        if not np.all(np.isfinite(arr)):
            raise DomainError("probability tensor has non-finite entries (NaN or inf)")
        if np.any(arr < 0):
            raise DomainError("probability tensor has negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > INGEST_TOL:
            raise DomainError(
                f"tensor mass {total!r} deviates from 1 by more than {INGEST_TOL}"
            )
        arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "axes", axes_t)
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        """Number of coordinates."""
        return len(self.axes)

    def __repr__(self) -> str:
        return f"FiniteTarget(axes={self.axes})"


# No command builds one; kept while perf/spans.py hooks it (ROADMAP items 3 and 9).
@dataclass(frozen=True)
class CondContext:
    """An index set with a fixed assignment: the pair (Lambda, y).

    ``lam`` holds 1-based coordinate indices, strictly increasing; ``y`` holds
    one 0-based alphabet value per index; no range is checked against a
    target.  The empty context ``CondContext((), ())`` means "condition on
    nothing".
    """

    lam: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self) -> None:
        lam = tuple(int(i) for i in self.lam)
        y = tuple(int(v) for v in self.y)
        if len(lam) != len(y):
            raise DomainError(f"lambda has {len(lam)} indices but y has {len(y)} values")
        if any(b <= a for a, b in zip(lam, lam[1:])):
            raise DomainError(f"lambda indices must be strictly increasing, got {lam}")
        if lam and lam[0] < 1:
            raise DomainError(f"coordinate indices are 1-based, got {lam}")
        if any(v < 0 for v in y):
            raise DomainError(f"alphabet values must be >= 0, got {y}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "y", y)

    @property
    def size(self) -> int:
        return len(self.lam)


def _supported_level(target: FiniteTarget, m: int):
    """Supported contexts leaving ``m`` coordinates free, and their conditionals by free shape.

    Returns ``(contexts, stacks)``.  ``contexts`` lists every supported
    (lam, y) in canonical order: index sets of size ``n - m`` in
    lexicographic order, then assignments row-major (last index fastest),
    so the top level's one context is ``((), ())``.  Each stack
    ``(positions, weights)`` holds the conditionals (B, *shape) of every
    context with one free shape, from any index set, uncut: row ``k`` is the
    conditional tensor given ``contexts[positions[k]]``.  A context's slice
    is a view of the tensor, its index set's axes moved to the front, at
    ``y``; it is summed once, and that mass decides support (``> 0``) and
    divides it, so each row is bit for bit ``block / float(block.sum())``.
    """
    contexts: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    blocks: dict[tuple[int, ...], list] = {}
    for lam in itertools.combinations(range(1, target.n + 1), target.n - m):
        slab = np.moveaxis(target.probs, [i - 1 for i in lam], range(len(lam)))
        for y in np.ndindex(*slab.shape[: len(lam)]):
            block = slab[y]
            mass = float(block.sum())
            if mass > 0.0:
                blocks.setdefault(block.shape, []).append((len(contexts), block, mass))
                contexts.append((lam, y))
    stacks = []
    for shape, shape_blocks in blocks.items():
        weights = np.empty((len(shape_blocks),) + shape)
        for k, (_, block, mass) in enumerate(shape_blocks):
            np.divide(block, mass, out=weights[k])
        stacks.append((np.array([pos for pos, _, _ in shape_blocks]), weights))
    return contexts, stacks


def random_target(axes: Sequence[int], rng: np.random.Generator) -> FiniteTarget:
    """Full-support target with Dirichlet(1)-distributed joint tensor."""
    axes_t = _check_axes(axes)
    flat = rng.dirichlet(np.ones(math.prod(axes_t)))
    return FiniteTarget(axes_t, flat)


def target_from_dict(data: dict) -> FiniteTarget:
    """Build a target from the JSON wire format ``{"axes": [...], "probs": [...]}``.

    ``probs`` is the flat row-major tensor, last axis fastest.  A boolean in
    it, which numpy would read as 1 or 0, is rejected here; a nested list,
    booleans in it or not, is rejected by :class:`FiniteTarget`.
    """
    if not isinstance(data, dict) or "axes" not in data or "probs" not in data:
        raise DomainError('target JSON must be {"axes": [...], "probs": [...]}')
    probs = data["probs"]
    if isinstance(probs, list) and any(isinstance(p, bool) for p in probs):
        raise DomainError("probabilities must be numbers, got a boolean")
    return FiniteTarget(data["axes"], probs)


def load_target(path: str) -> FiniteTarget:
    """Read a target from a JSON file in the wire format above.

    A file whose reading could hold more than :data:`spectel.errors.MEMORY_CAP`
    bytes raises :class:`ResourceLimitError` before it is parsed.
    """
    _check_memory(_BYTES_PER_FILE_BYTE * os.path.getsize(path), f"{path}: reading the target")
    return target_from_dict(_read_json(path))
