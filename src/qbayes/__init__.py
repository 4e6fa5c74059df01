"""Lower bounds on Bayes risk for multiparameter quantum estimation over
finite-grid priors, with semidefinite certification and an achievability
harness.

Typical flow: build or load a StatisticalModel, derive its moment data, then
evaluate bounds:

    from qbayes import model_zoo, build_moments, build_extended_moments
    from qbayes import sld_bound, nagaoka_hayashi_bound, holevo_type_bound

    m = model_zoo("correlated_pair", [1.0, 0.6])
    em = build_extended_moments(m)
    print(nagaoka_hayashi_bound(em).value)
"""

from .matcore import (ExtendedOperator, NotPsdError, NumericalFailureError,
                      SingularStateError, check_hermitian, hermitize,
                      hermitian_eig, lyapunov_solve, psd_sqrt,
                      regularize_state, sym_split, trace_abs,
                      weighted_trace_abs)
from .model import (BayesMoments, CapabilityError, ExtendedMoments, GridPoint,
                    ModelError, StatisticalModel, WeightSpec, build_moments,
                    build_extended_moments, load_model, model_from_dict,
                    model_to_dict, model_zoo, save_model, with_weight)
from .closedform import (RldPackage, SingularInformationError, SldPackage,
                         rld_bound, sld_bound, sld_fisher_point,
                         van_tree_bound)
from .conic import (ConicProgram, ConicSolution, ProgramError,
                    SolverFailureError, holevo_lemma_sdp_value,
                    holevo_lemma_suite, holevo_lemma_value, solve,
                    solve_or_raise)
from .sdpbounds import (HolevoSolution, NagaokaSolution, NhSolution,
                        appendix_f, f_family_pinned_example, f_family_suite,
                        holevo_type_bound, nagaoka_bound,
                        nagaoka_hayashi_bound, nagaoka_objective)
from .verify import (DecisionRisk, Povm, bayes_risk, optimal_povm_step,
                     ordering_audit, posterior_mean_estimator, random_povm,
                     rounded_measurement, seesaw)

__version__ = "0.1.0"

__all__ = [
    "ExtendedOperator", "NotPsdError",
    "NumericalFailureError", "SingularStateError", "check_hermitian",
    "hermitize", "hermitian_eig", "lyapunov_solve", "psd_sqrt",
    "regularize_state", "sym_split", "trace_abs", "weighted_trace_abs",
    "BayesMoments", "CapabilityError", "ExtendedMoments", "GridPoint",
    "ModelError", "StatisticalModel", "WeightSpec", "build_moments",
    "build_extended_moments", "load_model", "model_from_dict",
    "model_to_dict", "model_zoo", "save_model", "with_weight",
    "RldPackage", "SingularInformationError", "SldPackage",
    "rld_bound", "sld_bound", "sld_fisher_point", "van_tree_bound",
    "ConicProgram", "ConicSolution", "ProgramError",
    "SolverFailureError", "holevo_lemma_sdp_value",
    "holevo_lemma_suite", "holevo_lemma_value", "solve", "solve_or_raise",
    "HolevoSolution", "NagaokaSolution", "NhSolution", "appendix_f",
    "f_family_pinned_example", "f_family_suite", "holevo_type_bound",
    "nagaoka_bound", "nagaoka_hayashi_bound", "nagaoka_objective",
    "DecisionRisk", "Povm", "bayes_risk", "optimal_povm_step",
    "ordering_audit", "posterior_mean_estimator", "random_povm",
    "rounded_measurement", "seesaw",
    "__version__",
]
