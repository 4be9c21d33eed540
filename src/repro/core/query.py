"""Query-argument coercion and validation.

Every public query method in the library accepts the query interval either as
an :class:`~repro.core.interval.Interval` or as a plain ``(left, right)``
pair, and a sample size ``s``.  These helpers normalise and validate those
arguments in one place so all indexes behave identically on malformed input.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidQueryError
from .interval import Interval

__all__ = [
    "QueryLike",
    "coerce_query",
    "coerce_query_batch",
    "integral_value",
    "validate_sample_size",
]

#: Anything accepted as a query interval by the public API.
QueryLike = Union[Interval, Sequence[float], tuple[float, float]]


def coerce_query(query: QueryLike) -> tuple[float, float]:
    """Normalise ``query`` to a validated ``(left, right)`` float pair.

    Raises :class:`InvalidQueryError` when the query is not a 2-element
    interval, has non-finite endpoints, or has ``left > right``.
    """
    if isinstance(query, Interval):
        return (query.left, query.right)
    try:
        left, right = query  # type: ignore[misc]
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(
            f"query must be an Interval or a (left, right) pair, got {query!r}"
        ) from exc
    try:
        left_f = float(left)
        right_f = float(right)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(f"query endpoints must be numbers, got {query!r}") from exc
    if not (math.isfinite(left_f) and math.isfinite(right_f)):
        raise InvalidQueryError(f"query endpoints must be finite, got [{left_f}, {right_f}]")
    if left_f > right_f:
        raise InvalidQueryError(
            f"query left endpoint must not exceed right endpoint, got [{left_f}, {right_f}]"
        )
    return (left_f, right_f)


def coerce_query_batch(queries) -> tuple[np.ndarray, np.ndarray]:
    """Normalise a batch of queries to validated ``(lefts, rights)`` arrays.

    Accepts an ``(n, 2)`` float array (validated vectorised — the fastest
    input path) or any sequence of :class:`Interval` / pair objects.  Every
    batch API in the library funnels through this one helper so malformed
    input fails identically regardless of index or input shape.
    """
    if isinstance(queries, np.ndarray) and queries.ndim == 2 and queries.shape[1] == 2:
        try:
            lefts = np.ascontiguousarray(queries[:, 0], dtype=np.float64)
            rights = np.ascontiguousarray(queries[:, 1], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidQueryError(
                f"query batch must contain numeric endpoints, got dtype {queries.dtype}"
            ) from exc
        bad = ~(np.isfinite(lefts) & np.isfinite(rights) & (lefts <= rights))
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            coerce_query((queries[first, 0], queries[first, 1]))  # raises with detail
        return lefts, rights
    pairs = [coerce_query(q) for q in queries]
    if not pairs:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    arr = np.asarray(pairs, dtype=np.float64)
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def integral_value(value) -> Optional[int]:
    """``value`` as an ``int`` when it is an integral number, else None.

    Accepts Python/NumPy integers and floats with an integral value (``2.0``);
    rejects bools, non-integral or non-finite floats, strings and every other
    type — so ``1.9`` or ``True`` can never stand in for ``1``.
    """
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (float, np.floating)):
        return int(value) if float(value).is_integer() else None
    try:
        return operator.index(value)
    except TypeError:
        return None


def validate_sample_size(sample_size: int) -> int:
    """Validate and return the requested number of samples ``s`` (must be >= 0)."""
    as_int = integral_value(sample_size)
    if as_int is None:
        raise InvalidQueryError(f"sample size must be an integer, got {sample_size!r}")
    if as_int < 0:
        raise InvalidQueryError(f"sample size must be non-negative, got {as_int}")
    return as_int
