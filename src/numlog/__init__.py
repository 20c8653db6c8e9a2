"""numlog: exact reasoning for numerically quantified syllogistic fragments.

Decide satisfiability and entailment of "at least/at most C" sentences with
finite witness models, run the numerical syllogism calculus with replayable
derivations, certify underivability through an exact probabilistic
semantics, and generate reduction instances (graph colouring, toroidal
tiling) with oracles.  All arithmetic is exact.
"""

from .errors import (BudgetExhaustedError, InputError, NotASolutionError,
                     NumlogError, UnknownPredicateError)
from .logic import (AT_LEAST, AT_MOST, CellStructure, CountingAtom,
                    FiniteStructure, Lit, RelationalAtom, UnaryAtom,
                    at_least, at_most, evaluate, negate_atom,
                    parse_structure, render_structure, structure)
from .parsing import (ArgumentFile, Lexicon, parse_argument, parse_english,
                      parse_lexicon, parse_symbolic, render_english,
                      render_symbolic)
from .linsys import (LinearSystem, enumerate_solutions, ilp_solve,
                     lp_feasible, many_nonzeros_instance, sparsify_natural,
                     sparsify_rational, system_from_rows)
from .c1 import SAT, UNKNOWN, UNSAT, SatResult, decide_sat, entails
from .n2 import bounded_search, shrink_model, size_bound
from .proofs import (Derivation, DeriveResult, derives,
                     incompleteness_instance, is_numerically_explicit,
                     saturate)
from .psat import (ProbabilityAssignment, approx_models,
                   counterexample_assignment, prob, psat_decide)
from .reductions import (Graph, Tiling, TilingSystem, brute_3col,
                         brute_tiling, decode_3col, decode_tiling,
                         encode_3col, encode_tiling, graph, witness_model)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
