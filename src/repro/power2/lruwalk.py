"""One per-set LRU walk shared by the reference D-cache and TLB.

:meth:`SetAssociativeCache.run <repro.power2.dcache.SetAssociativeCache.run>`
and :meth:`TLB.run <repro.power2.tlb.TLB.run>` both hand their state here.
The state is three ``(n_sets, ways)`` arrays: ``tags`` (``-1`` marks an
empty way), ``lru`` (age rank, 0 = most recent) and an optional
``dirty`` mask.  Sets are independent, so the walk applies the scalar
transitions of ``access()`` in a different order and still leaves the
stats and every array bit-identical, way placement included:

1. The stream is mapped to (set, tag) and stable-sorted by set.
2. A reference whose line equals the previous reference to the same set
   is dropped: it always hits the most-recent way, so no rank moves.
   Its write bit is ORed into the reference that is kept.
3. The k-th remaining reference of every set is applied at once, as
   numpy operations on the ``(n_active, ways)`` rows of the state,
   with the scalar choice: the first matching way, else the first
   empty way, else the way with the largest rank.  Evicting a dirty
   line counts a write-back.
4. Once fewer than :data:`VECTOR_MIN_SETS` sets are still active, a
   numpy step costs more than the references left in it, so each
   remaining set finishes in a plain-int Python loop over lists.  A
   stream that maps into one set therefore never pays a numpy step per
   reference.

``access()`` on each simulator stays the scalar oracle;
``tests/power2/test_memsim_equivalence.py`` holds the walk to it.
"""

from __future__ import annotations

import numpy as np

#: Below this many active sets, finishing in Python is cheaper than a
#: numpy step (about 45 µs a step against about 1.5 µs a reference on
#: a 4-way cache, CPython 3.11).
VECTOR_MIN_SETS = 32


def walk(
    tags: np.ndarray,
    lru: np.ndarray,
    dirty: np.ndarray | None,
    set_idx: np.ndarray,
    tag: np.ndarray,
    writes: np.ndarray | None = None,
) -> tuple[int, int, int]:
    """Apply a reference stream to the state arrays, in place; returns
    the (hits, misses, write-backs) it adds.

    ``set_idx`` and ``tag`` give each reference's set and (non-negative)
    tag in stream order; ``writes`` marks stores and needs ``dirty``.
    """
    n = int(set_idx.size)
    if n == 0:
        return 0, 0, 0

    # 1-2. Group by set (stream order within a set), drop repeats of the
    # previous line in the same set.
    order = np.argsort(set_idx, kind="stable")
    s = set_idx[order]
    t = tag[order]
    keep = np.ones(n, dtype=bool)
    np.logical_or(s[1:] != s[:-1], t[1:] != t[:-1], out=keep[1:])
    kept = np.flatnonzero(keep)
    s = s[kept]
    t = t[kept]
    w = None
    if writes is not None:
        w = np.logical_or.reduceat(writes[order], kept)

    # 3. Rows of the touched sets, most references first, so the sets
    # still active at step k are a prefix of the rows.
    m = int(kept.size)
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    per_set = np.diff(np.append(first, m))
    by_count = np.argsort(-per_set, kind="stable")
    row_of_group = np.empty_like(by_count)
    row_of_group[by_count] = np.arange(by_count.size)
    group = np.repeat(np.arange(first.size), per_set)
    step = np.arange(m) - first[group]
    # Step-major order: step k's references are one slice, row-aligned.
    step_major = np.argsort(step * first.size + row_of_group[group], kind="stable")
    t = t[step_major]
    if w is not None:
        w = w[step_major]
    row_sets = s[first][by_count]
    row_counts = per_set[by_count]
    active = np.searchsorted(-row_counts, -np.arange(row_counts[0]), side="left")
    offsets = np.concatenate(([0], np.cumsum(active)))

    T = tags[row_sets]
    L = lru[row_sets]
    D = dirty[row_sets] if dirty is not None else None
    ways = T.shape[1]
    # Way priority on a miss: an empty way (first one first) outranks
    # every occupied way, which ranks by LRU age.
    empty_rank = 2 * ways - np.arange(ways)
    hits = n - m
    misses = writebacks = 0
    k = 0
    n_steps = int(active.size)
    while k < n_steps:
        n_act = int(active[k])
        if n_act < VECTOR_MIN_SETS:
            break
        tk = t[offsets[k] : offsets[k + 1]]
        Tk = T[:n_act]
        Lk = L[:n_act]
        match = Tk == tk[:, None]
        hit = match.any(axis=1)
        priority = np.where(Tk == -1, empty_rank, Lk)
        priority[match] = 3 * ways
        way = priority.argmax(axis=1)
        rows = np.arange(n_act)
        Tk[rows, way] = tk
        if D is not None:
            Dk = D[:n_act]
            old = Dk[rows, way]
            writebacks += int(np.count_nonzero(old & ~hit))
            new = old & hit
            if w is not None:
                new |= w[offsets[k] : offsets[k + 1]]
            Dk[rows, way] = new
        age = Lk[rows, way]
        Lk += Lk < age[:, None]
        Lk[rows, way] = 0
        n_hit = int(np.count_nonzero(hit))
        hits += n_hit
        misses += n_act - n_hit
        k += 1

    # 4. The few sets still active finish one at a time in Python.
    if k < n_steps:
        t_list = t.tolist()
        w_list = w.tolist() if w is not None else None
        off = offsets.tolist()
        for row in range(int(active[k])):
            tg = T[row].tolist()
            lr = L[row].tolist()
            dt = D[row].tolist() if D is not None else None
            for kk in range(k, int(row_counts[row])):
                pos = off[kk] + row
                ref = t_list[pos]
                if ref in tg:
                    way = tg.index(ref)
                    hits += 1
                    if w_list is not None and w_list[pos]:
                        dt[way] = True
                else:
                    misses += 1
                    if -1 in tg:
                        way = tg.index(-1)
                    else:
                        way = lr.index(max(lr))
                        if dt is not None and dt[way]:
                            writebacks += 1
                    tg[way] = ref
                    if dt is not None:
                        dt[way] = w_list[pos] if w_list is not None else False
                age = lr[way]
                if age:
                    lr = [a + 1 if a < age else a for a in lr]
                    lr[way] = 0
            T[row] = tg
            L[row] = lr
            if D is not None:
                D[row] = dt

    tags[row_sets] = T
    lru[row_sets] = L
    if dirty is not None:
        dirty[row_sets] = D
    return hits, misses, writebacks
