"""Independent verification paths: exact Markov steady states, the trace
recurrence, numeric truncated traces and matrix-relation checks."""

from .markov import TransitionMatrix, build_transition_matrix, steady_state
from .matrices import (
    banded_matrix,
    check_ansatz_relations,
    check_matrix_relations,
    product_trace,
    truncated_trace,
)
from .recurrence import f_mu, omega, trace_by_recurrence, trace_rec_eval

__all__ = [
    "TransitionMatrix",
    "banded_matrix",
    "build_transition_matrix",
    "check_ansatz_relations",
    "check_matrix_relations",
    "f_mu",
    "omega",
    "product_trace",
    "steady_state",
    "trace_by_recurrence",
    "trace_rec_eval",
    "truncated_trace",
]
