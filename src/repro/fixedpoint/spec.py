"""The fixed-point specification.

The paper's ``SPEC`` maps every *node* — operation, array, scalar
variable — to a fixed-point format.  Here each node owns a *slot*;
slots that must share a format are *tied* together (union-find) and the
authoritative values live at the tie-group root:

* a ``LOAD``/``STORE`` shares its array's format (memory has one
  layout);
* ``READVAR``/``WRITEVAR`` and the op *producing* the written value
  share the variable's format (register moves are free, so they cannot
  implement a format change — the accumulator chain of an unrolled
  kernel is physically one register);

In addition, MUL operand edges carry an optional *consumption word
length*: when SLP narrows a multiply to a 16-bit lane, its operands are
narrowed at the pack boundary even if their producers stay wide.  This
is the paper's eq. (1) acting on operands, and it is what makes the
accuracy-aware candidate checks of Fig. 1c meaningful.

All mutations are journaled; ``save()``/``revert()`` give the
checkpoint semantics used throughout Fig. 1 (``SPEC.save g1`` /
``SPEC.revert g1``, "revert WL of c", ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FixedPointError
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.fixedpoint.qformat import QFormat

__all__ = ["SlotMap", "FixedPointSpec", "NO_NARROW"]

#: Edge consumption word length meaning "no narrowing at this edge".
NO_NARROW = 127


class SlotMap:
    """Slot numbering and tie groups for a program.

    Slots ``0 .. n_ops-1`` are operations (slot == opid); the following
    slots are symbols (arrays then variables, sorted by name).
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.n_ops = program.n_ops
        names = sorted(program.arrays) + sorted(program.variables)
        self.symbol_slot: dict[str, int] = {
            name: self.n_ops + i for i, name in enumerate(names)
        }
        self.n_slots = self.n_ops + len(names)
        self._slot_symbol = {slot: name for name, slot in self.symbol_slot.items()}

        parent = list(range(self.n_slots))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for op in program.all_ops():
            if op.kind in (OpKind.LOAD, OpKind.STORE):
                union(op.opid, self.symbol_slot[op.array])  # type: ignore[index]
            elif op.kind in (OpKind.READVAR, OpKind.WRITEVAR):
                union(op.opid, self.symbol_slot[op.var])  # type: ignore[index]
                if op.kind is OpKind.WRITEVAR:
                    union(op.operands[0], self.symbol_slot[op.var])  # type: ignore[index]

        # ``root`` serves vectorized lookups, its list twin ``root_of``.
        self._root = [find(i) for i in range(self.n_slots)]
        self.root = np.array(self._root, dtype=np.int32)
        members: dict[int, list[int]] = {}
        for slot in range(self.n_slots):
            members.setdefault(int(self.root[slot]), []).append(slot)
        self.group_members: dict[int, tuple[int, ...]] = {
            r: tuple(m) for r, m in members.items()
        }

    # ------------------------------------------------------------------
    def root_of(self, slot: int) -> int:
        """Tie-group root of ``slot``."""
        return self._root[slot]

    def slot_of_symbol(self, name: str) -> int:
        try:
            return self.symbol_slot[name]
        except KeyError:
            raise FixedPointError(f"unknown symbol {name!r}") from None

    def describe(self, slot: int) -> str:
        """Readable description of a slot, for diagnostics."""
        if slot < self.n_ops:
            return f"op%{slot}({self.program.op(slot).kind.value})"
        return f"sym:{self._slot_symbol[slot]}"

    @property
    def roots(self) -> list[int]:
        """All tie-group roots in ascending order."""
        return sorted(self.group_members)


@dataclass
class _JournalEntry:
    kind: int  # 0 = wl, 1 = iwl, 2 = edge_wl
    i: int
    j: int
    old: int


class FixedPointSpec:
    """Journaled per-slot fixed-point formats plus MUL edge narrowing."""

    def __init__(self, slotmap: SlotMap, max_wl: int = 32) -> None:
        self.slotmap = slotmap
        self.max_wl = max_wl
        n = slotmap.n_slots
        self._wl = np.full(n, max_wl, dtype=np.int16)
        self._iwl = np.ones(n, dtype=np.int16)
        self._edge_wl = np.full((slotmap.n_ops, 2), NO_NARROW, dtype=np.int16)
        self._journal: list[_JournalEntry] = []

    # ------------------------------------------------------------------
    # Scalar accessors (always resolved through the tie-group root)
    # ------------------------------------------------------------------
    def wl(self, slot: int) -> int:
        return int(self._wl[self.slotmap.root_of(slot)])

    def iwl(self, slot: int) -> int:
        return int(self._iwl[self.slotmap.root_of(slot)])

    def fwl(self, slot: int) -> int:
        root = self.slotmap.root_of(slot)
        return int(self._wl[root]) - int(self._iwl[root])

    def qformat(self, slot: int) -> QFormat:
        return QFormat(self.iwl(slot), self.fwl(slot))

    def set_wl(self, slot: int, value: int) -> None:
        if value < 1:
            raise FixedPointError(f"word length must be >= 1, got {value}")
        root = self.slotmap.root_of(slot)
        old = int(self._wl[root])
        if old != value:
            self._journal.append(_JournalEntry(0, root, 0, old))
            self._wl[root] = value

    def set_iwl(self, slot: int, value: int) -> None:
        root = self.slotmap.root_of(slot)
        old = int(self._iwl[root])
        if old != value:
            self._journal.append(_JournalEntry(1, root, 0, old))
            self._iwl[root] = value

    def set_fwl(self, slot: int, value: int) -> None:
        """Move the binary point, keeping the word length constant.

        This is SCALOPTIM's move: reducing ``fwl`` by k increases
        ``iwl`` by k (paper Section III-C).
        """
        root = self.slotmap.root_of(slot)
        wl = int(self._wl[root])
        self.set_iwl(slot, wl - value)

    # ------------------------------------------------------------------
    # MUL operand-edge consumption word lengths
    # ------------------------------------------------------------------
    def edge_wl(self, opid: int, pos: int) -> int:
        return int(self._edge_wl[opid, pos])

    def set_edge_wl(self, opid: int, pos: int, value: int) -> None:
        old = int(self._edge_wl[opid, pos])
        if old != value:
            self._journal.append(_JournalEntry(2, opid, pos, old))
            self._edge_wl[opid, pos] = value

    def consumption_fwl(self, opid: int, pos: int) -> int:
        """Fractional bits at which op ``opid`` consumes operand ``pos``.

        The producer's carried format, narrowed to the edge word length
        when one was set (keeping the producer's ``iwl`` so no range is
        lost, only precision).
        """
        producer = self.slotmap.program.op(opid).operands[pos]
        f_carried = self.fwl(producer)
        budget = self.edge_wl(opid, pos)
        if budget >= NO_NARROW:
            return f_carried
        return min(f_carried, budget - self.iwl(producer))

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def save(self) -> int:
        """Checkpoint; pass the token to :meth:`revert` to roll back."""
        return len(self._journal)

    def revert(self, token: int) -> None:
        """Undo all mutations recorded after ``token``."""
        if token < 0 or token > len(self._journal):
            raise FixedPointError(f"bad journal token {token}")
        while len(self._journal) > token:
            entry = self._journal.pop()
            if entry.kind == 0:
                self._wl[entry.i] = entry.old
            elif entry.kind == 1:
                self._iwl[entry.i] = entry.old
            else:
                self._edge_wl[entry.i, entry.j] = entry.old

    # ------------------------------------------------------------------
    # Vectorized views (used by the analytical accuracy evaluator)
    # ------------------------------------------------------------------
    def fwl_vector(self) -> np.ndarray:
        """Per-slot fractional word lengths, root-resolved (int32)."""
        root = self.slotmap.root
        return (self._wl[root] - self._iwl[root]).astype(np.int32)

    def iwl_vector(self) -> np.ndarray:
        """Per-slot integer word lengths, root-resolved (int32)."""
        return self._iwl[self.slotmap.root].astype(np.int32)

    def wl_vector(self) -> np.ndarray:
        """Per-slot word lengths, root-resolved (int32)."""
        return self._wl[self.slotmap.root].astype(np.int32)

    def edge_wl_matrix(self) -> np.ndarray:
        """(n_ops, 2) consumption word lengths (``NO_NARROW`` = none)."""
        return self._edge_wl.astype(np.int32)

    # ------------------------------------------------------------------
    def clone(self) -> "FixedPointSpec":
        """Independent deep copy (journal not carried over)."""
        twin = FixedPointSpec(self.slotmap, self.max_wl)
        twin._wl = self._wl.copy()
        twin._iwl = self._iwl.copy()
        twin._edge_wl = self._edge_wl.copy()
        return twin

    def describe(self) -> str:
        """Readable dump of every tie group's format."""
        lines = []
        for root in self.slotmap.roots:
            members = self.slotmap.group_members[root]
            names = ", ".join(self.slotmap.describe(s) for s in members[:4])
            if len(members) > 4:
                names += f", ... ({len(members)} slots)"
            lines.append(f"  {self.qformat(root)} wl={self.wl(root):>2}  [{names}]")
        return "\n".join(lines)
