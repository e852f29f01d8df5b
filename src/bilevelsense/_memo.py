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

Exceptions are not memoised.  Each memo owns its table, one OrderedDict
in LRU order, and has `cache_info()` (hits, misses, maxsize, currsize),
`cache_clear()` and `__wrapped__`, as `functools.lru_cache` gives them.
`stored(*args)` says whether a call's entry is held, without touching the
LRU order, and `put(args, result)` stores a result computed elsewhere (a
batch's other calls) under the call's key, as a miss would store it.  Each
memo is listed in REGISTRY under its module and function name.
"""

from __future__ import annotations

import copy
from collections import OrderedDict, namedtuple
from functools import update_wrapper
from math import copysign

import numpy as np

# "module._function" -> memo, for every memo of the package
REGISTRY: dict = {}

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


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


def memo(maxsize: int, copy_out: bool = False):
    """Decorator: an LRU of maxsize entries under the module's key and
    store rules."""

    def decorate(fn):
        table = OrderedDict()
        counts = [0, 0]  # hits, misses

        def hold(key, result):
            # a key already held (put while its own call ran) keeps its entry
            table.setdefault(key, result)
            if len(table) > maxsize:
                table.popitem(last=False)

        def wrapper(*args):
            key = _call_key(args)
            result = table.get(key, table)
            if result is table:
                counts[1] += 1
                result = _freeze(fn(*args))
                hold(key, result)
            else:
                counts[0] += 1
                table.move_to_end(key)
            return copy.deepcopy(result) if copy_out else result

        def cache_clear():
            table.clear()
            counts[:] = [0, 0]

        update_wrapper(wrapper, fn)
        wrapper.cache_info = lambda: CacheInfo(*counts, maxsize, len(table))
        wrapper.cache_clear = cache_clear
        wrapper.stored = lambda *args: _call_key(args) in table
        wrapper.put = lambda args, result: hold(_call_key(args), _freeze(result))
        REGISTRY[f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"] = wrapper
        return wrapper

    return decorate
