"""The one memo behind every cache of the package.

`memo(maxsize)` turns a function into a fixed-size LRU whose hit returns
exactly what a fresh call would.  Callers pass plain values; the memo owns
two rules.

Key rule.  Two calls share an entry when their arguments are equal, each of
the same type, with the same sign bit on every float zero (found at any
depth of nested tuples, since -0.0 == 0.0 and both hash alike while a
result can show the sign of a zero it was given) and, for an ndarray
argument, the same shape, dtype and bytes.  None stays apart from inf.
Expressions and programs are interned, so they compare by identity and
are never walked.

Store rule.  Every ndarray in a result (at any depth of nested tuples) is
frozen read-only, so the stored result is shared by every caller: a write
into it raises ValueError.  The walk does not enter dataclasses: a
dataclass result (valuefn.SolutionSet) freezes its own arrays when it is
built.  A memo declared with `copy_out=True` holds
results that callers may change (a verdict's witness dict), and hands each
call a deep copy instead.

Exceptions are not memoised.  Each memo has `cache_info()`,
`cache_clear()` and `__wrapped__`, as `functools.lru_cache` gives them, and
is listed in REGISTRY under its module and function name.
"""

from __future__ import annotations

import copy
from functools import lru_cache, update_wrapper
from math import copysign

import numpy as np

# "module._function" -> memo, for every memo of the package
REGISTRY: dict = {}


def _negative_zeros(values, found, pos=0):
    """Append to found the position, in a depth-first count of the
    non-tuple leaves of values, of each -0.0; return the next position."""
    for v in values:
        if isinstance(v, tuple):
            pos = _negative_zeros(v, found, pos)
            continue
        if isinstance(v, float) and v == 0.0 and copysign(1.0, v) < 0.0:
            found.append(pos)
        pos += 1
    return pos


def _call_key(args):
    found = []
    _negative_zeros(args, found)
    types = tuple(map(type, args))
    if np.ndarray in types:
        args = tuple([(a.shape, a.dtype.str, a.tobytes()) if t is np.ndarray
                      else a for a, t in zip(args, types)])
    return args, types, tuple(found)


def _freeze(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for v in value:
            _freeze(v)
    return value


class _Call(tuple):
    """A call's key (the tuple, all that hashes and compares) carrying the
    call's arguments until its lookup is done."""


def memo(maxsize: int, copy_out: bool = False):
    """Decorator: an LRU of maxsize entries under the module's key and
    store rules."""

    def decorate(fn):
        @lru_cache(maxsize=maxsize)
        def lookup(call):
            return _freeze(fn(*call.args))

        def wrapper(*args):
            call = _Call(_call_key(args))
            call.args = args
            result = lookup(call)
            # a stored key keeps no argument alive
            del call.args
            return copy.deepcopy(result) if copy_out else result

        update_wrapper(wrapper, fn)
        wrapper.cache_info = lookup.cache_info
        wrapper.cache_clear = lookup.cache_clear
        REGISTRY[f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"] = wrapper
        return wrapper

    return decorate
