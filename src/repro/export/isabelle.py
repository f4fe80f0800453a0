"""Isabelle/HOL theory generation (Step 2, Section 5.2).

Each Hoare-graph edge becomes one independent lemma: the invariant of the
source vertex, as precondition, guarantees that executing the labelled
instruction establishes the disjunction of the destination vertices'
invariants.  The lemmas are mutually independent — the property the paper
exploits for parallel proof checking.

Isabelle itself is not available in this environment; the generated theory
text is syntactically complete (statement-level), and the *validation*
role of Step 2 is performed by :mod:`repro.export.checker`, which replays
every triple against independent concrete semantics.  See DESIGN.md.
"""

from __future__ import annotations

import io

from repro.expr import Var, variables_of
from repro.hoare import HoareGraph, LiftResult
from repro.hoare.graph import VertexKey
from repro.obs.profile import phase as _phase
from repro.obs.tracer import tracer as _T
from repro.perf import collector_paused
from repro.export.terms import _sanitize, to_isabelle
from repro.smt.solver import region_key


def _vertex_names(keys) -> dict[VertexKey, str]:
    """The definition name of every vertex and sink key.

    A code key is named after its rip and register immediates.  A code
    key that also holds memory immediates (five elements) adds ``_m<i>``,
    where ``i`` is its index, in ``str`` order, among those keys with the
    same name: a function of the key set alone, so the theory text does
    not depend on the hash seed, and no two definitions share a name."""
    names: dict[VertexKey, str] = {}
    seen: dict[str, int] = {}
    for key in sorted(keys, key=str):
        name = _key_name(key)
        if len(key) > 3:
            index = seen.get(name, 0)
            seen[name] = index + 1
            name += f"_m{index}"
        names[key] = name
    return names


def _key_name(key: VertexKey) -> str:
    if key[0] == "code":
        suffix = ""
        if len(key) > 2 and key[2]:
            suffix = "_" + _sanitize("_".join(f"{r}{v:x}" for r, v in key[2]))
        return f"P_{key[1]:x}{suffix}"
    if key[0] == "ret":
        return f"P_ret_{key[1]:x}"
    return f"P_exit_{_sanitize(str(key[1]))}"


def _state_definition(name: str, state, memo: dict) -> str:
    def render(expr) -> str:
        return to_isabelle(expr, memo)

    conjuncts = []
    for reg, value in state.pred.regs:
        conjuncts.append(f"reg σ ''{reg}'' = {render(value)}")
    for region, value in state.pred.mem:
        addr = render(region.addr)
        conjuncts.append(
            f"read_mem (mem σ) {addr} {region.size} = {render(value)}"
        )
    for clause in sorted(state.pred.clauses, key=str):
        symbol = {
            "eq": "=", "ne": "≠", "ltu": "<", "leu": "≤", "gtu": ">",
            "geu": "≥", "lts": "<s", "les": "≤s", "gts": ">s", "ges": "≥s",
        }[clause.op]
        conjuncts.append(f"{render(clause.lhs)} {symbol} {render(clause.rhs)}")
    for tree in sorted(state.model.trees, key=str):
        regions = sorted(tree.all_regions(), key=region_key)
        if len(regions) > 1:
            conjuncts.append(
                "memrel σ (" + ", ".join(
                    f"({render(r.addr)}, {r.size})" for r in regions
                ) + ")"
            )
    if not conjuncts:
        conjuncts = ["True"]
    body = " ∧\n     ".join(conjuncts)
    return f'definition "{name} σ mem₀ ≡\n     {body}"\n'


def export_theory(result: LiftResult, theory_name: str | None = None,
                  with_equations: bool = True) -> str:
    """Render the Hoare graph of *result* as one Isabelle theory.

    With *with_equations* (the default) each lifted instruction also gets a
    generated ``definition step_<addr>`` giving its machine semantics over
    the X86_Semantics state record."""
    with collector_paused(), _T.span("export.theory",
                                     binary=result.binary.name,
                                     entry=result.entry):
        with _phase("export"):
            return _export_theory(result, theory_name, with_equations)


def _export_theory(result: LiftResult, theory_name: str | None,
                   with_equations: bool) -> str:
    graph = result.graph
    name = theory_name or _sanitize(f"HG_{result.binary.name}_{result.entry:x}")
    out = io.StringIO()
    out.write(f"theory {name}\n")
    out.write("  imports X86_Semantics\n")
    out.write("begin\n\n")
    out.write("text ‹Generated Hoare graph for "
              f"{result.binary.name} @ {result.entry:#x}.\n"
              f"  {graph.instruction_count()} instructions, "
              f"{graph.state_count()} symbolic states, "
              f"{graph.edge_count()} Hoare triples.›\n\n")

    # Each distinct term is rendered once per theory; the memo is dropped
    # with the call, so nothing is held between theories.
    memo: dict = {}

    # Free symbols (initial values, havoc variables, return symbols).
    free: set[Var] = set()
    for state in graph.vertices.values():
        for _, value in state.pred.regs:
            free |= variables_of(value)
        for _, value in state.pred.mem:
            free |= variables_of(value)
    symbols = {to_isabelle(v, memo) for v in free}
    if symbols:
        out.write("context\n  fixes " + " ".join(sorted(symbols))
                  + " :: \"64 word\"\nbegin\n\n")

    if with_equations and graph.instructions:
        from repro.export.equations import instruction_equations

        out.write(instruction_equations(graph.instructions))
        out.write("\n")

    out.write("subsection ‹Vertex invariants›\n\n")
    sink_keys = {edge.dst for edge in graph.edges} - set(graph.vertices)
    names = _vertex_names(set(graph.vertices) | sink_keys)
    for key in sorted(graph.vertices, key=str):
        out.write(_state_definition(names[key], graph.vertices[key], memo))
        out.write("\n")
    for key in sorted(sink_keys, key=str):
        kind = "returned" if key[0] == "ret" else "halted"
        out.write(f'definition "{names[key]} σ mem₀ ≡ {kind} σ"\n\n')

    out.write("subsection ‹Hoare triples (one lemma per edge)›\n\n")
    by_source: dict[tuple[VertexKey, int], list[VertexKey]] = {}
    for edge in graph.edges:
        by_source.setdefault((edge.src, edge.instr_addr), []).append(edge.dst)
    lemma_index = 0
    for (src, instr_addr), dsts in sorted(by_source.items(), key=str):
        if src not in names:
            continue
        instr = graph.instructions.get(instr_addr)
        label = str(instr) if instr else f"@{instr_addr:#x}"
        post = " ∨ ".join(f"{names[dst]} σ' mem₀" for dst in sorted(dsts, key=str)
                          if dst in names)
        if not post:
            continue
        lemma_index += 1
        out.write(
            f"lemma hoare_{lemma_index:04d}_{instr_addr:x}:\n"
            f"  -- ‹{label}›\n"
            f"  assumes \"{names[src]} σ mem₀\"\n"
            f"      and \"step_at {instr_addr:#x} σ σ'\"\n"
            f"  shows \"{post}\"\n"
            f"  using assms by x86_symbolic_execution\n\n"
        )

    if symbols:
        out.write("end\n\n")
    out.write("end\n")
    return out.getvalue()


def export_theory_file(result: LiftResult, path: str,
                       theory_name: str | None = None) -> str:
    text = export_theory(result, theory_name)
    with open(path, "w") as handle:
        handle.write(text)
    return text
