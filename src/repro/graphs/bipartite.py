"""Maximum-cardinality bipartite matching with incremental augmentation.

The matcher is deliberately *incremental*: the Chapter 4 scheduler adds
one I/O operation at a time and asks whether the assignment can be
extended, possibly preempting (reassigning) earlier tentative
assignments along an augmenting path — which is the textbook augmenting
path search, so that is literally what runs here.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional, Set

Left = Hashable
Right = Hashable


class BipartiteMatcher:
    """Incremental matching between ``left`` items and ``right`` slots.

    ``neighbors(u)`` yields the right-side slots item ``u`` may use.
    ``pinned`` right slots cannot be taken away from their current item
    (used for I/O operations already *scheduled* on a bus slot, whose
    assignment is fixed — the shaded edges of Figure 4.5).
    """

    def __init__(self,
                 neighbors: Callable[[Left], Iterable[Right]]) -> None:
        self._neighbors = neighbors
        self.match_of_left: Dict[Left, Right] = {}
        self.match_of_right: Dict[Right, Left] = {}
        self._pinned: Set[Right] = set()

    # ------------------------------------------------------------------
    def pin(self, right: Right) -> None:
        """Freeze the current occupant of a right slot."""
        if right not in self.match_of_right:
            raise KeyError(f"cannot pin unmatched slot {right!r}")
        self._pinned.add(right)

    def assign(self, left: Left, right: Right) -> None:
        """Force an assignment (caller guarantees the slot is free)."""
        if right in self.match_of_right:
            raise ValueError(f"slot {right!r} already taken")
        if left in self.match_of_left:
            old = self.match_of_left.pop(left)
            del self.match_of_right[old]
        self.match_of_left[left] = right
        self.match_of_right[right] = left

    def release(self, left: Left) -> Optional[Right]:
        """Drop ``left``'s assignment; returns the freed slot if any."""
        right = self.match_of_left.pop(left, None)
        if right is not None:
            del self.match_of_right[right]
            self._pinned.discard(right)
        return right

    # ------------------------------------------------------------------
    def try_add(self, left: Left,
                allowed: Optional[Callable[[Right], bool]] = None) -> bool:
        """Try to match ``left``, reassigning others if necessary.

        ``allowed`` optionally restricts which slots ``left`` itself may
        take (the displaced items along the augmenting path may use any
        of their own neighbors).  Existing assignments move but are
        never dropped; pinned slots are never disturbed.
        """
        visited: Set[Right] = set()
        return self._augment(left, visited, allowed)

    def _augment(self, left: Left, visited: Set[Right],
                 allowed: Optional[Callable[[Right], bool]]) -> bool:
        for right in self._neighbors(left):
            if right in visited or right in self._pinned:
                continue
            if allowed is not None and not allowed(right):
                continue
            visited.add(right)
            occupant = self.match_of_right.get(right)
            if occupant is None or self._augment(occupant, visited, None):
                if left in self.match_of_left:
                    old = self.match_of_left[left]
                    if self.match_of_right.get(old) == left:
                        del self.match_of_right[old]
                self.match_of_left[left] = right
                self.match_of_right[right] = left
                return True
        return False

    def snapshot(self):
        return (dict(self.match_of_left), dict(self.match_of_right),
                set(self._pinned))

    def restore(self, state) -> None:
        left, right, pinned = state
        self.match_of_left = dict(left)
        self.match_of_right = dict(right)
        self._pinned = set(pinned)


def max_bipartite_matching(left_items: Iterable[Left],
                           neighbors: Callable[[Left], Iterable[Right]]
                           ) -> Dict[Left, Right]:
    """One-shot maximum-cardinality matching (Hungarian-free)."""
    matcher = BipartiteMatcher(neighbors)
    for item in left_items:
        matcher.try_add(item)
    return dict(matcher.match_of_left)
