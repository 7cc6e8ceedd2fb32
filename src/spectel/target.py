"""Finite product-space distributions with exact marginals and conditionals.

A :class:`FiniteTarget` stores the full joint probability tensor of a random
vector (X_1, ..., X_n) over a product of finite alphabets.  Everything in this
module is exact tensor arithmetic: marginals are sums over axes, conditionals
are ratios of marginals, and conditioning contexts with zero marginal mass
fall back to the uniform distribution (a convention that downstream gap
minimizations never consult, because they skip unsupported contexts).

Conventions, normative throughout the package:

* coordinate indices are 1-based in every public interface;
* alphabet values are 0-based;
* tensors are row-major (C order) over X_1 x ... x X_n, last axis fastest.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError

# Largest tolerated deviation of ingested mass from 1 before renormalizing.
# Anything worse is rejected: silently rescaling badly scaled input hides bugs.
INGEST_TOL = 1e-9


def _check_axes(axes: Sequence[int]) -> tuple[int, ...]:
    try:
        sizes = list(axes)
        axes_t = tuple(operator.index(a) for a in sizes)
    except TypeError as exc:
        raise DomainError(f"alphabet sizes must be integers: {exc}") from None
    # operator.index reads a boolean as 1 or 0.
    if any(isinstance(a, bool) for a in sizes):
        raise DomainError("alphabet sizes must be integers, got a boolean")
    if len(axes_t) < 2:
        raise DomainError(f"need at least 2 coordinates, got {len(axes_t)}")
    if any(a < 2 for a in axes_t):
        raise DomainError(f"every alphabet must have size >= 2, got {axes_t}")
    return axes_t


@dataclass(frozen=True, eq=False)
class FiniteTarget:
    """Explicit joint pmf over a product of finite alphabets.

    ``axes`` lists the alphabet sizes (length >= 2, each >= 2).  ``probs`` is
    the joint tensor, accepted either flat (row-major, last axis fastest) or
    already shaped; it must be entrywise finite and nonnegative with total
    mass within ``INGEST_TOL`` of 1, and is renormalized to sum to exactly 1.

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
        size = math.prod(axes_t)
        if arr.ndim == 1:
            if arr.size != size:
                raise DomainError(
                    f"flat tensor has {arr.size} entries, axes {axes_t} need {size}"
                )
            arr = arr.reshape(axes_t)
        elif arr.shape != axes_t:
            raise DomainError(f"tensor shape {arr.shape} does not match axes {axes_t}")
        else:
            arr = arr.copy()
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


@dataclass(frozen=True)
class CondContext:
    """An index set with a fixed assignment: the pair (Lambda, y).

    ``lam`` holds 1-based coordinate indices, strictly increasing; ``y`` holds
    one 0-based alphabet value per index.  Range checks against a concrete
    target happen in the operations that consume the context.  The empty
    context ``CondContext((), ())`` means "condition on nothing".
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


EMPTY_CONTEXT = CondContext((), ())


def _check_indices(target: FiniteTarget, indices: Iterable[int], name: str) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise DomainError(f"{name} contains repeated indices: {idx}")
    for i in idx:
        if not 1 <= i <= target.n:
            raise DomainError(f"{name} index {i} out of range 1..{target.n}")
    return tuple(sorted(idx))


def _check_context(target: FiniteTarget, ctx: CondContext) -> None:
    if ctx.size > target.n - 1:
        raise DomainError(
            f"context fixes {ctx.size} coordinates; at most {target.n - 1} allowed"
        )
    _check_indices(target, ctx.lam, "lambda")
    for i, v in zip(ctx.lam, ctx.y):
        if not 0 <= v < target.axes[i - 1]:
            raise DomainError(f"value {v} out of range for coordinate {i}")


def _free(target: FiniteTarget, lam: tuple[int, ...]) -> tuple[int, ...]:
    fixed = set(lam)
    return tuple(i for i in range(1, target.n + 1) if i not in fixed)


def _context_slice(target: FiniteTarget, lam: tuple[int, ...], y: tuple[int, ...]) -> np.ndarray:
    """Unnormalized tensor over the free axes with the assignment ``y`` to ``lam`` plugged in."""
    index: list = [slice(None)] * target.n
    for i, v in zip(lam, y):
        index[i - 1] = v
    return target.probs[tuple(index)]


def marginal(target: FiniteTarget, gamma: Iterable[int]) -> np.ndarray:
    """Marginal tensor of the coordinates in ``gamma`` (sorted axis order).

    Equals the joint tensor summed over the complementary axes; entries sum
    to 1.
    """
    g = _check_indices(target, gamma, "gamma")
    if not g:
        raise DomainError("gamma must be nonempty")
    return target.probs.sum(axis=tuple(i for i in range(target.n) if (i + 1) not in g))


def conditional(target: FiniteTarget, gamma: Iterable[int], ctx: CondContext) -> np.ndarray:
    """Conditional tensor of ``gamma`` given the context, over sorted gamma axes.

    Returns the exact ratio of marginals when the context has positive mass
    and the uniform distribution on the gamma block otherwise.  ``gamma`` must
    be disjoint from the context's index set.
    """
    g = _check_indices(target, gamma, "gamma")
    if not g:
        raise DomainError("gamma must be nonempty")
    _check_context(target, ctx)
    if set(g) & set(ctx.lam):
        raise DomainError(f"gamma {g} overlaps lambda {ctx.lam}")
    block = _context_slice(target, ctx.lam, ctx.y)
    joint = block.sum(axis=tuple(pos for pos, i in enumerate(_free(target, ctx.lam)) if i not in g))
    mass = float(block.sum())
    if mass > 0.0:
        return joint / mass
    shape = tuple(target.axes[i - 1] for i in g)
    return np.full(shape, 1.0 / np.prod(shape))


def supported_conditional(
    target: FiniteTarget, ctx: CondContext
) -> tuple[tuple[int, ...], np.ndarray]:
    """Free coordinates and conditional tensor of a context with positive mass.

    Validates the context once and raises :class:`DomainError` when its
    marginal mass is zero, so no uniform fallback is ever returned.
    """
    _check_context(target, ctx)
    block = _context_slice(target, ctx.lam, ctx.y)
    mass = float(block.sum())
    if not mass > 0.0:
        raise DomainError(f"context {ctx} has zero marginal mass")
    return _free(target, ctx.lam), block / mass


def supported_contexts(target: FiniteTarget, lambda_size: int) -> Iterator[CondContext]:
    """Yield every context of the given size with positive marginal mass.

    Enumeration order is canonical: index sets in lexicographic order, then
    assignments row-major (last index fastest).  ``lambda_size == 0`` yields
    exactly the empty context.
    """
    if not 0 <= lambda_size <= target.n - 1:
        raise DomainError(
            f"lambda_size {lambda_size} out of range 0..{target.n - 1}"
        )
    for lam in itertools.combinations(range(1, target.n + 1), lambda_size):
        for y in _supported_assignments(target, lam):
            yield CondContext(lam, y)


def _supported_assignments(target: FiniteTarget, lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Assignments to the index set ``lam`` with positive mass, row-major."""
    if not lam:
        return [()]
    marg = marginal(target, lam)
    return [tuple(int(v) for v in y) for y in np.ndindex(marg.shape) if marg[y] > 0.0]


def _supported_level(target: FiniteTarget, m: int, order: int):
    """Supported contexts leaving ``m`` coordinates free, and their stacked conditionals.

    Returns ``(contexts, stacks)``.  ``contexts`` lists every supported
    (lam, y) in the order :func:`supported_contexts` yields them.  Each
    stack is ``(positions, weights)``: the conditionals (B, *shape) of
    contexts with one free shape, from any index set, where row ``k`` is the
    conditional tensor given ``contexts[positions[k]]``, computed on the
    same slice and with the same division as :func:`supported_conditional`,
    so its bits match.  Stacks are cut so that B kernels of order
    N = prod(shape) hold no more floats than one matrix of order ``order``,
    the largest a scan solves: B * N^2 <= order^2, with B >= 1.
    """
    contexts: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    blocks: dict[tuple[int, ...], list] = {}
    for lam in itertools.combinations(range(1, target.n + 1), target.n - m):
        shape = tuple(target.axes[i - 1] for i in _free(target, lam))
        for y in _supported_assignments(target, lam):
            blocks.setdefault(shape, []).append((len(contexts), _context_slice(target, lam, y)))
            contexts.append((lam, y))
    stacks = []
    for shape, shape_blocks in blocks.items():
        cut = max(1, order**2 // math.prod(shape) ** 2)
        for start in range(0, len(shape_blocks), cut):
            chunk = shape_blocks[start : start + cut]
            weights = np.empty((len(chunk),) + shape)
            for k, (_, block) in enumerate(chunk):
                np.divide(block, float(block.sum()), out=weights[k])
            stacks.append((np.array([pos for pos, _ in chunk]), weights))
    return contexts, stacks


def random_target(
    axes: Sequence[int], rng: np.random.Generator
) -> FiniteTarget:
    """Full-support target with Dirichlet(1)-distributed joint tensor."""
    axes_t = _check_axes(axes)
    flat = rng.dirichlet(np.ones(math.prod(axes_t)))
    return FiniteTarget(axes_t, flat)


def product_target(marginals: Sequence[np.ndarray]) -> FiniteTarget:
    """Target whose coordinates are independent with the given marginals."""
    vecs = [np.asarray(m, dtype=float) for m in marginals]
    if not vecs:
        raise DomainError("a product target needs at least one marginal")
    for v in vecs:
        if v.ndim != 1:
            raise DomainError("each marginal must be a 1-D probability vector")
    tensor = vecs[0]
    for v in vecs[1:]:
        tensor = np.multiply.outer(tensor, v)
    return FiniteTarget(tuple(v.size for v in vecs), tensor)


def target_from_dict(data: dict) -> FiniteTarget:
    """Build a target from the JSON wire format ``{"axes": [...], "probs": [...]}``.

    ``probs`` is the flat row-major tensor, last axis fastest; a boolean in
    it, which numpy would read as 1 or 0, is rejected.
    """
    if not isinstance(data, dict) or "axes" not in data or "probs" not in data:
        raise DomainError('target JSON must be {"axes": [...], "probs": [...]}')
    if _has_bool(data["probs"]):
        raise DomainError("probabilities must be numbers, got a boolean")
    return FiniteTarget(data["axes"], data["probs"])


def _has_bool(value) -> bool:
    """Whether a JSON value is, or nests in lists, a boolean; a loop, so no depth recurses."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, bool):
            return True
        if isinstance(item, list):
            pending.extend(item)
    return False


def _read_json(path: str):
    """Parse a JSON file; nesting too deep for the decoder is bad input, not a crash."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DomainError(f"{path}: JSON nests too deeply to decode") from None


def load_target(path: str) -> FiniteTarget:
    """Read a target from a JSON file in the wire format above."""
    return target_from_dict(_read_json(path))
