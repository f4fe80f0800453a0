"""Memory models (Section 3.2): trees, insertion, join, satisfaction."""

from repro.memmodel.model import (
    EMPTY,
    InsResult,
    MemModel,
    MemTree,
    compile_model,
    ins,
    join_models,
    model_holds,
    relation_in_model,
)

__all__ = [
    "EMPTY", "InsResult", "MemModel", "MemTree", "compile_model", "ins",
    "join_models", "model_holds", "relation_in_model",
]
