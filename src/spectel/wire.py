"""The JSON reader and the finite checks' default tolerances, free of numpy.

``report-merge`` reads its reports with :func:`_read_json`, and
``verify-finite --help`` lists :data:`FINITE_TOLERANCES`; so neither, nor
``--version``, ``--help`` or an argument the parser rejects, loads numpy.
"""

from __future__ import annotations

import json

from .errors import DomainError

# The tolerances of assemble_bounds' checks; verify-finite reports them, --tol overrides.
FINITE_TOLERANCES = {"telescope": 1e-9, "bound_slack": 1e-9, "lemma": 1e-8, "psd": 1e-10}


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
