"""Exception taxonomy and the numpy-free input and byte rules shared across the package.

Besides the exceptions, this module holds every rule more than one module
applies that needs no numpy: the memory cap and its check, the block-size
and alphabet-size checks, the JSON reader and the finite checks' default
tolerances.  So ``--version``, ``--help``, an argument the parser rejects,
``report-merge`` and the cube-corner checks load none of the finite engine.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence


class SpectelError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpectelError, ValueError):
    """An argument violates a documented precondition or invariant."""


class ResourceLimitError(SpectelError):
    """A computation would hold more bytes than the memory cap."""


class NumericalContractError(SpectelError):
    """A numerical result violated a tolerance the algorithm guarantees."""


class StatisticalContractError(SpectelError):
    """A Monte Carlo estimate lacks the sample support its contract requires."""


# Bytes a command may plan to hold: the dense order-20,000 kernel, 8 * 20,000^2.
MEMORY_CAP = 8 * 20_000**2

# The tolerances of assemble_bounds' checks; verify-finite reports them, --tol overrides.
FINITE_TOLERANCES = {"telescope": 1e-9, "bound_slack": 1e-9, "lemma": 1e-8, "psd": 1e-10}


def _check_memory(nbytes: int, what: str) -> None:
    """Refuse work that would hold more than :data:`MEMORY_CAP` bytes, before it allocates."""
    if nbytes > MEMORY_CAP:
        # nbytes can have more digits than str() converts.
        size = f"{nbytes / 1e9:.3g} GB" if nbytes < 10**21 else "more than 10^12 GB"
        raise ResourceLimitError(
            f"{what} needs {size}, above the memory cap of {MEMORY_CAP / 1e9:g} GB"
        )


def _check_block_size(l: int, n: int) -> None:
    """Refuse a block size ``l`` outside ``1..n`` for ``n`` coordinates."""
    if not 1 <= l <= n:
        raise DomainError(f"block size {l} out of range 1..{n}")


def _check_axes(axes: Sequence[int]) -> tuple[int, ...]:
    """The alphabet sizes as a tuple: at least 2 of them, each an integer >= 2."""
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
    for i, a in enumerate(axes_t, start=1):
        if a < 2:
            raise DomainError(f"every alphabet must have size >= 2; coordinate {i}'s is smaller")
    return axes_t


def _read_json(path: str):
    """Parse a JSON file; text not UTF-8, malformed JSON or too deep nesting is bad input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DomainError(f"{path}: JSON nests too deeply to decode") from None
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: malformed JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except ValueError:
            # int() converts at most 4,300 digits.
            raise DomainError(f"{path}: JSON holds an integer too long to read") from None
