"""The exact decider's matcher: the cancellation graph of a profile, a maximum
matching on it, and the Tutte barrier check.

``_graph`` builds the graph, one slot per degree and slot n + 1 the pool of a
partial profile's open classes.  ``_match`` pairs off its classes, one vertex
per class: a greedy pass seeds the matching, and ``_grow`` runs Edmonds'
search (Edmonds 1965) from each class left unmatched.  A perfect matching is
a FeasibleWitness; a tree that cannot grow gives a Tutte barrier (Tutte
1952), an InfeasibleWitness, which ``is_tutte_barrier`` checks by counting
odd parts.

``specseq.oracle_narrow_feasible`` and ``InfeasibleWitness.replay`` import this
module when they first run, so a process that runs neither, such as one
``classify``, never compiles it.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .homology import BettiProfile
from .specseq import (
    MAX_CLASSES,
    FeasibleWitness,
    InfeasibleWitness,
    SearchCapError,
    require_maslov,
)


def _graph(profile: BettiProfile, maslov: int):
    """The cancellation graph of a profile, as ``(dims, partners, exits)``.

    Listed slots keep their dimension and open slots, the unlisted ones when
    the profile's room is not 0, get 0; nonzero slots s and s + rN - 1,
    1 <= r <= nu, are partners.  Two open classes that cancel each other can
    be dropped, so slot n + 1, the pool, stands for those paired with the E
    classes of the exact slots s with an open partner, the first of which is ``exits[s]``: min(room, E) classes,
    one fewer if that parity differs from used's, so that its leftover
    classes pair among themselves.  The pool is its own partner and, after
    the exact ones, a partner of every slot in ``exits``.  This is the
    oracle's one gate: beyond ``MAX_CLASSES`` exact classes, or exact and
    pool classes, SearchCapError, before any partner list is built.
    """
    known, room, width = profile.known, profile.room, profile.n + 1
    dims = [known.get(s, 0) for s in range(width)]
    used = sum(dims)
    if used > MAX_CLASSES:
        raise SearchCapError(f"{used} exact classes, above the matching's limit of {MAX_CLASSES}")
    shifts = range(maslov - 1, width, maslov)  # r * maslov - 1 for r = 1..nu
    exits = {}
    for s in sorted(s for s, dim in known.items() if dim) if room != 0 else ():
        t = next((t for k in shifts for t in (s - k, s + k)
                  if 0 <= t < width and t not in known), None)
        if t is not None:
            exits[s] = t
    pool = sum(dims[s] for s in exits)
    if room is not None:
        pool = min(pool, room)
    pool = max(0, pool - (pool + used) % 2)
    if used + pool > MAX_CLASSES:
        raise SearchCapError(f"{used} exact classes and a pool of {pool}, above the "
                             f"matching's limit of {MAX_CLASSES}")
    partners = [[t for k in shifts for t in (s - k, s + k) if 0 <= t < width and dims[t]]
                if dims[s] else [] for s in range(width)]
    if not pool:
        exits = {}
    for s in exits:
        partners[s].append(width)
    partners.append([width, *exits])
    return dims + [pool], partners, exits


def _match(dims: list[int], partners, exits: dict[int, int], maslov: int):
    """Pair off the classes of ``_graph``: one vertex per class, adjacent to the
    classes of the partner slots.  A greedy pass over slot pairs (slots, then
    pages, ascending) seeds the matching; Edmonds' search then grows one
    alternating tree per unmatched class (without a pool and for even N no
    blossom forms).  Returns the FeasibleWitness read off the matching, a
    class matched to the pool pairing with one class of its slot's exit, or
    an InfeasibleWitness: the slots of a stuck tree's inner vertices, which
    are whole slots as copies share partners.
    """
    start = list(accumulate(dims, initial=0))  # slot s holds classes start[s] .. start[s+1] - 1
    slot_of = [s for s, dim in enumerate(dims) for _ in range(dim)]
    mate = [-1] * start[-1]
    free = start[:-1]  # the greedy pass pairs each slot's classes in order
    for s, near in enumerate(partners):
        for t in near:
            while t > s and free[s] < start[s + 1] and free[t] < start[t + 1]:
                mate[free[s]], mate[free[t]] = free[t], free[s]
                free[s], free[t] = free[s] + 1, free[t] + 1
    while free[-1] + 1 < start[-1]:  # the pool, last, is its own partner
        mate[free[-1]], mate[free[-1] + 1] = free[-1] + 1, free[-1]
        free[-1] += 2
    trees = 0
    for root, partner in enumerate(mate):
        if partner == -1:
            trees += 1
            inner = _grow(root, mate, slot_of, start, partners)
            if inner is not None:
                return InfeasibleWitness(tuple(sorted({slot_of[u] for u in inner})), trees)
    pairs, pool = Counter(), len(dims) - 1
    # classes are numbered by slot, so u < v puts u in the lower slot, and
    # the pool's own pairs are dropped
    for u, v in enumerate(mate):
        if u < v and slot_of[u] != pool:
            s, t = slot_of[u], slot_of[v]
            if t == pool:
                t = exits[s]
            pairs[min(s, t), (abs(t - s) + 1) // maslov] += 1
    return FeasibleWitness(tuple((s, r, count) for (s, r), count in sorted(pairs.items())))


def _grow(root: int, mate: list[int], slot_of, start, partners) -> list[int] | None:
    """Edmonds' search from ``root``: augment ``mate`` and return None, or
    return the inner vertices of the tree that cannot grow."""
    size = len(mate)
    base = list(range(size))  # the base of the blossom holding each vertex
    members = [[u] for u in range(size)]  # the vertices of each base's blossom
    parent, outer, queue = [-1] * size, [False] * size, [root]
    outer[root] = True

    def common_base(a: int, b: int) -> int:
        seen = {base[a]}
        while mate[base[a]] != -1:
            a = parent[mate[base[a]]]
            seen.add(base[a])
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    for v in queue:  # the queue grows while it is walked
        for t in partners[slot_of[v]]:
            for w in range(start[t], start[t + 1]):
                if base[v] == base[w] or mate[v] == w:
                    continue
                if outer[w]:  # an odd cycle: contract it into a blossom
                    b, bases = common_base(v, w), set()
                    for x, child in ((v, w), (w, v)):  # relink both sides of the cycle
                        while base[x] != b:
                            bases.update((base[x], base[mate[x]]))
                            parent[x], child = child, mate[x]
                            x = parent[child]
                    for x in bases - {b}:
                        for u in members[x]:
                            base[u] = b
                            if not outer[u]:
                                outer[u] = True
                                queue.append(u)
                        members[b] += members[x]
                elif parent[w] == -1:
                    parent[w] = v
                    if mate[w] == -1:  # augment along the tree path back to the root
                        while w != -1:
                            p = parent[w]
                            mate[w], mate[p], w = p, w, mate[p]
                        return None
                    outer[mate[w]] = True
                    queue.append(mate[w])
    return [u for u in range(size) if parent[u] != -1 and not outer[u]]


def is_tutte_barrier(profile: BettiProfile, maslov: int, barrier) -> bool:
    """True iff the slots ``barrier``, distinct and ascending, of ``_graph(profile, ...)``
    prove that no completion of the profile can pair off.

    Without the barrier, a slot with no partner left is ``dims[s]`` odd parts,
    or one when its total is odd if it is its own partner (the pool, a
    clique), and a larger connected group is one odd part when its total is
    odd; more odd parts than classes in the barrier leave a class unpaired
    (Tutte 1952).  A Maslov number or a profile that the decider refuses raises.
    """
    require_maslov(maslov)
    dims, partners, _ = _graph(profile, maslov)
    removed = set(barrier)
    if list(barrier) != sorted(removed) or any(not 0 <= s < len(dims) for s in removed):
        return False
    seen, odd = set(removed), 0
    for s, dim in enumerate(dims):
        if dim and s not in seen:
            seen.add(s)
            group, stack = [], [s]
            while stack:
                group.append(stack.pop())
                fresh = [t for t in partners[group[-1]] if t not in seen]
                seen.update(fresh)
                stack += fresh
            lone = len(group) == 1 and s not in partners[s]
            odd += dim if lone else sum(dims[u] for u in group) % 2
    return odd > sum(dims[s] for s in removed)
