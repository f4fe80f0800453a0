"""Loop-aware fixpoint scheduling for the lifter's state bag.

The lifter explores a bag of symbolic states ordered by a priority key
(see ``INTERNALS.md`` §6).  A flat instruction-address order approximates
weak-topological order only for forward-laid-out code: the moment a loop
body sits *after* its exit continuation in the address space (jump-over
layouts, hand-scheduled assembly, cold/hot block splitting), the exit is
explored with a transient early-iteration abstraction and every later
loop iteration re-joins the whole downstream region.

This module computes a better order **statically, before lifting**: a
recursive-descent scan over the binary's direct control flow builds an
instruction-level flow graph, Tarjan's algorithm condenses it into
strongly-connected components, and each address gets the priority key

    ``(scc_rank, head_flag, address)``

where ``scc_rank`` is the topological order of the address's SCC in the
condensation (every predecessor SCC ranks lower), ``head_flag`` is 0 for
loop heads (back-edge targets pop before the rest of their SCC, so
pending head states coalesce into one join per iteration) and 1
otherwise.  All addresses of one loop share one rank, and every exit of
the loop ranks strictly higher — so the loop drains to its local
fixpoint before its exits run, regardless of layout.

Soundness: the schedule only *orders* exploration; it never decides what
is explored.  Addresses the static scan cannot see (targets of indirect
jumps the SMT layer resolves mid-lift, "weird" mid-instruction returns)
fall back to a rank after all statically-known code, ordered by address
— the lifter reaches the same fixpoint, it just may take a different
number of joins to get there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elf import Binary
from repro.isa import DecodeError, Imm, Instruction, condition_of
from repro.elf.image import FetchError

_MASK64 = (1 << 64) - 1

#: Mnemonics after which execution never falls through.
_TERMINAL = frozenset({"ret", "hlt", "ud2", "int3", "syscall"})


def _static_successors(binary: Binary, instr: Instruction) -> tuple[int, ...]:
    """Direct control-flow successors computable without symbolic state.

    Indirect jumps/calls contribute nothing (their targets are resolved
    during lifting and fall back to the default rank); direct calls
    contribute both the callee entry (explored as a context-free
    function) and the return continuation.
    """
    mnemonic = instr.mnemonic
    if mnemonic in _TERMINAL:
        return ()
    if mnemonic == "jmp":
        (target,) = instr.operands
        if isinstance(target, Imm):
            return ((instr.end + target.signed) & _MASK64,)
        return ()
    if mnemonic == "call":
        (target,) = instr.operands
        successors = [instr.end]
        if isinstance(target, Imm):
            callee = (instr.end + target.signed) & _MASK64
            if (binary.external_name(callee) is None
                    and binary.is_executable(callee)):
                successors.append(callee)
        return tuple(successors)
    if mnemonic.startswith("j") and condition_of(mnemonic) is not None:
        (target,) = instr.operands
        return ((instr.end + target.signed) & _MASK64, instr.end)
    return (instr.end,)


@dataclass(frozen=True)
class Schedule:
    """The precomputed exploration order for one lift.

    ``ranks`` maps every statically-reachable instruction address to its
    SCC's topological rank; ``loop_heads`` holds the back-edge targets.
    ``default_rank`` (one past the largest SCC rank) is what unknown
    addresses get, so dynamically-discovered code runs after all
    statically-known code, in address order.
    """

    entry: int
    ranks: dict[int, int] = field(default_factory=dict)
    loop_heads: frozenset[int] = frozenset()
    #: Static flow edges (kept for tests and diagnostics).
    successors: dict[int, tuple[int, ...]] = field(default_factory=dict)
    default_rank: int = 0
    #: Number of loop SCCs found (multi-node SCCs + self-loops).
    loops: int = 0

    def priority(self, addr: int) -> tuple[int, int, int]:
        """The heap key for a state at *addr*: (scc_rank, head?, addr)."""
        rank = self.ranks.get(addr)
        if rank is None:
            return (self.default_rank, 1, addr)
        return (rank, 0 if addr in self.loop_heads else 1, addr)

    def is_loop_member(self, addr: int) -> bool:
        """True iff *addr* belongs to an SCC with a cycle."""
        rank = self.ranks.get(addr)
        if rank is None:
            return False
        return self._loop_ranks is not None and rank in self._loop_ranks

    # Populated by build_schedule; dataclass-frozen, so set via object.__setattr__.
    _loop_ranks: frozenset[int] | None = None


#: Flat address order (the pre-PR5 behaviour), selectable for A/B runs.
ADDRESS_ORDER = "address"
#: SCC-rank order (the default).
SCC_ORDER = "scc"
SCHEDULE_MODES = (ADDRESS_ORDER, SCC_ORDER)


class DecodeMemo:
    """``Binary.fetch`` for one lift: each address is decoded at most once.

    The schedule's scan decodes every statically reachable address, and
    the lifter decodes an address again each time it explores it.  Within
    one lift the answer cannot change, so the scan and the lifter share
    one memo.  It is made per lift and dropped with it, never kept on the
    :class:`Binary`: a binary is mutable and pickles into every
    :class:`~repro.hoare.lifter.LiftResult`.  A failed fetch is kept as
    its exception's type and arguments and raised afresh on every call;
    an exception object kept here would hold its traceback's frames, a
    reference cycle through the lifter.
    """

    __slots__ = ("binary", "_decoded")

    def __init__(self, binary: Binary) -> None:
        self.binary = binary
        self._decoded: dict[int, Instruction | tuple[type, tuple]] = {}

    def fetch(self, addr: int) -> Instruction:
        """``self.binary.fetch(addr)``, decoded on the first call only."""
        decoded = self._decoded.get(addr)
        if decoded is None:
            try:
                decoded = self.binary.fetch(addr)
            except (FetchError, DecodeError) as exc:
                decoded = (type(exc), exc.args)
            self._decoded[addr] = decoded
        if type(decoded) is tuple:
            kind, args = decoded
            raise kind(*args)
        return decoded


def _scan_flow(decoded: DecodeMemo,
               entry: int) -> dict[int, tuple[int, ...]]:
    """Recursive-descent scan from *entry* following direct control flow."""
    binary = decoded.binary
    flow: dict[int, tuple[int, ...]] = {}
    worklist = [entry]
    while worklist:
        addr = worklist.pop()
        if addr in flow:
            continue
        try:
            instr = decoded.fetch(addr)
        except (FetchError, DecodeError):
            flow[addr] = ()
            continue
        successors = tuple(
            succ for succ in _static_successors(binary, instr)
            if binary.external_name(succ) is None and binary.is_mapped(succ)
        )
        flow[addr] = successors
        for succ in successors:
            if succ not in flow:
                worklist.append(succ)
    return flow


def _tarjan_sccs(nodes: list[int],
                 flow: dict[int, tuple[int, ...]]) -> list[list[int]]:
    """Iterative Tarjan; SCCs returned in completion order.

    Completion order is a *reverse* topological order of the condensation
    (an SCC completes only after every SCC it reaches has completed), so
    ``rank = len(sccs) - 1 - completion_index`` is topological.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = flow.get(node, ())
            for i in range(child_i, len(successors)):
                succ = successors[i]
                if succ not in index:
                    work[-1] = (node, i + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
    return sccs


def condense(nodes: list[int],
             flow: dict[int, tuple[int, ...]]) -> list[list[int]]:
    """SCC condensation of an arbitrary graph, in completion order.

    Completion order is a reverse topological order of the condensation:
    an SCC appears only after every SCC it reaches.  Shared by the bag
    scheduler (instruction flow) and the pointer analysis (call graph,
    which wants callees summarized before their callers)."""
    return _tarjan_sccs(nodes, flow)


def build_schedule(binary: Binary, entry: int,
                   decoded: DecodeMemo | None = None) -> Schedule:
    """Scan, condense, and rank the function graph rooted at *entry*.

    Deterministic by construction: nodes are visited in sorted order and
    successor tuples come from the decoder in a fixed order, so the same
    binary always produces the same ranks.  The scan decodes through
    *decoded*, the lift's :class:`DecodeMemo` (a fresh one by default).
    """
    flow = _scan_flow(decoded or DecodeMemo(binary), entry)
    nodes = sorted(flow)
    sccs = _tarjan_sccs(nodes, flow)

    component_of: dict[int, int] = {}
    for scc_index, members in enumerate(sccs):
        for member in members:
            component_of[member] = scc_index

    total = len(sccs)
    ranks: dict[int, int] = {}
    for scc_index, members in enumerate(sccs):
        rank = total - 1 - scc_index
        for member in members:
            ranks[member] = rank

    loop_heads: set[int] = set()
    loop_ranks: set[int] = set()
    loops = 0
    predecessors: dict[int, list[int]] | None = None
    for scc_index, members in enumerate(sccs):
        is_loop = len(members) > 1 or members[0] in flow.get(members[0], ())
        if not is_loop:
            continue
        if predecessors is None:
            predecessors = _predecessor_map(flow)
        loops += 1
        rank = total - 1 - scc_index
        loop_ranks.add(rank)
        # A head is entered from outside its SCC (or is the entry).
        heads = sorted(
            member for member in members
            if member == entry or any(
                component_of[pred] != scc_index
                for pred in predecessors.get(member, ())
            )
        )
        # A loop unreachable except through its own cycle (cannot happen
        # from a single-entry scan, but keep the invariant): fall back to
        # the lowest address.
        loop_heads.update(heads or members[:1])

    schedule = Schedule(
        entry=entry,
        ranks=ranks,
        loop_heads=frozenset(loop_heads),
        successors=flow,
        default_rank=total,
        loops=loops,
    )
    object.__setattr__(schedule, "_loop_ranks", frozenset(loop_ranks))
    return schedule


def _predecessor_map(
        flow: dict[int, tuple[int, ...]]) -> dict[int, list[int]]:
    """Every flow node's predecessors, from one pass over the edges."""
    predecessors: dict[int, list[int]] = {}
    for src, dsts in flow.items():
        for dst in dsts:
            predecessors.setdefault(dst, []).append(src)
    return predecessors
