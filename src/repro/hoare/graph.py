"""The Hoare graph data structure (Definition 3.2).

Vertices are symbolic states keyed by *compatibility key*: the instruction
pointer plus the control-flow-relevant immediates (the Section 4 refinement
— states whose registers hold different text-section addresses are kept
apart instead of joined).  Edges are labelled with the disassembled
instruction; special sink keys represent function returns and terminals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.expr import Const
from repro.isa import Instruction
from repro.semantics import SymState

#: Vertex key: (rip, cf-immediates) for code, or a sink marker tuple.
VertexKey = tuple


def code_key(state: SymState, text_range: tuple[int, int]) -> VertexKey:
    """Compatibility key of a state (Definition 4.3 + the immediate-pointer
    refinement).

    States whose register *or memory* parts hold distinct text-section
    immediates likely differ in future control flow and are not joined
    (Section 4).  When a text immediate sits in memory, the memory model's
    aliasing structure decides what an indirect jump reads, so the model
    fingerprint joins the key — this is what keeps Figure 1's two ``jmp``
    vertices (aliasing vs separate) apart."""
    rip = state.rip
    low, high = text_range
    # The registers are sorted by name already.
    reg_imms = tuple(
        (reg, value.value) for reg, value in state.pred.regs
        if isinstance(value, Const) and low <= value.value < high
        and reg != "rip"
    )
    mem_imms = tuple(
        sorted(
            (str(region), value.value)
            for region, value in state.pred.mem
            if isinstance(value, Const) and low <= value.value < high
        )
    )
    if mem_imms:
        fingerprint = tuple(sorted(str(tree) for tree in state.model.trees))
        return ("code", rip, reg_imms, mem_imms, fingerprint)
    return ("code", rip, reg_imms)


def ret_key(function_entry: int) -> VertexKey:
    """Sink vertex: normal return from the function at *function_entry*."""
    return ("ret", function_entry)


def exit_key(reason: str) -> VertexKey:
    """Sink vertex: program termination (exit call, hlt, ud2...)."""
    return ("exit", reason)


@dataclass(frozen=True)
class Edge:
    """One Hoare triple: {src-state} instr {∨ dst-states}."""

    src: VertexKey
    instr_addr: int
    dst: VertexKey

    def __str__(self) -> str:
        return f"{self.src} --{self.instr_addr:#x}--> {self.dst}"


@dataclass
class HoareGraph:
    """Vertices (symbolic states), labelled edges, disassembly."""

    vertices: dict[VertexKey, SymState] = field(default_factory=dict)
    edges: set[Edge] = field(default_factory=set)
    instructions: dict[int, Instruction] = field(default_factory=dict)

    def __reduce__(self):
        # The edge set in sorted order: the pickled bytes (and so
        # lift-store payloads) do not depend on the hash seed.
        return (_rebuild_graph, (self.vertices,
                                 tuple(sorted(self.edges, key=str)),
                                 self.instructions))

    def states_at(self, rip: int) -> list[SymState]:
        return [
            state for key, state in self.vertices.items()
            if key[0] == "code" and key[1] == rip
        ]

    def successors(self, key: VertexKey) -> set[VertexKey]:
        return {edge.dst for edge in self.edges if edge.src == key}

    def out_edges(self, key: VertexKey) -> list[Edge]:
        return [edge for edge in self.edges if edge.src == key]

    def edge_count(self) -> int:
        return len(self.edges)

    def state_count(self) -> int:
        return sum(1 for key in self.vertices if key[0] == "code")

    def instruction_count(self) -> int:
        return len(self.instructions)

    def control_flow_targets(self, addr: int) -> set[int]:
        """All code addresses reachable in one step from instruction *addr*."""
        return {
            edge.dst[1]
            for edge in self.edges
            if edge.instr_addr == addr and edge.dst[0] == "code"
        }


def _rebuild_graph(vertices, edges, instructions) -> HoareGraph:
    return HoareGraph(vertices, set(edges), instructions)
