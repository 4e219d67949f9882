"""Random generators and hand-written workloads for tests and benchmarks."""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "coercions_gen": ("random_coercion", "random_composable_space_pair",
                      "random_space_coercion", "random_structural_coercion"),
    "programs": ("WORKLOADS", "deep_cast_chain", "even_odd_all_typed",
                 "even_odd_boundary", "even_odd_expected", "fib_boundary",
                 "fib_expected", "pair_boundary_swap", "safe_boundary_program",
                 "twice_boundary", "typed_loop_untyped_step",
                 "untyped_client_bad_argument", "untyped_library_bad_result"),
    "surface_programs": ("generate_corpus", "generate_program"),
    "terms_gen": ("TermGenerator", "random_lambda_b_term", "random_programs"),
    "types_gen": ("random_cast_path", "random_compatible_type", "random_type",
                  "random_type_pair"),
})

__all__ = [
    "random_coercion",
    "random_composable_space_pair",
    "random_space_coercion",
    "random_structural_coercion",
    "WORKLOADS",
    "deep_cast_chain",
    "even_odd_all_typed",
    "even_odd_boundary",
    "even_odd_expected",
    "fib_boundary",
    "fib_expected",
    "pair_boundary_swap",
    "safe_boundary_program",
    "twice_boundary",
    "typed_loop_untyped_step",
    "untyped_client_bad_argument",
    "untyped_library_bad_result",
    "TermGenerator",
    "generate_corpus",
    "generate_program",
    "random_lambda_b_term",
    "random_programs",
    "random_cast_path",
    "random_compatible_type",
    "random_type",
    "random_type_pair",
]
