"""The one forwarding-loop walk, over any generation's next-hop choices."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

_ON_WALK, _DONE = 1, 2


def find_routing_loop(
    nodes: Iterable[int], dst: int, next_hop: Callable[[int], Optional[int]],
) -> Optional[Tuple[int, ...]]:
    """The first forwarding cycle toward ``dst``, in walk order, or ``None``.

    ``next_hop(node)`` is the neighbour ``node`` forwards to toward
    ``dst``, or ``None`` without a route (a drop, not a loop).  The
    choices form a functional graph that loop-free routing makes a
    forest into ``dst``; a three-colour walk asks each node once.
    """
    state: Dict[int, int] = {dst: _DONE}
    for start in nodes:
        walk: List[int] = []
        node: Optional[int] = start
        while node is not None and node not in state:
            state[node] = _ON_WALK
            walk.append(node)
            node = next_hop(node)
        if node is not None and state[node] == _ON_WALK:
            return tuple(walk[walk.index(node):])
        for visited in walk:
            state[visited] = _DONE
    return None
