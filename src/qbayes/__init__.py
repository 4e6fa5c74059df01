"""Lower bounds on Bayes risk for multiparameter quantum estimation over
finite-grid priors, with semidefinite certification and an achievability
harness.

Typical flow: build or load a StatisticalModel, fold its moments once, then
evaluate every bound on the one moments object:

    from qbayes import model_zoo, build_extended_moments
    from qbayes import sld_bound, nagaoka_hayashi_bound

    m = model_zoo("correlated_pair", [1.0, 0.6])
    em = build_extended_moments(m)
    print(sld_bound(em, m.weight_spec.constant)[0])
    print(nagaoka_hayashi_bound(em).value)
"""

from .matcore import (NotPsdError, check_hermitian, hermitize,
                      lyapunov_solve, psd_sqrt, trace_abs, weighted_trace_abs)
from .model import (CapabilityError, ExtendedMoments, GridPoint, ModelError,
                    StatisticalModel, WeightSpec, build_extended_moments,
                    load_model, model_from_dict, model_to_dict, model_zoo,
                    save_model, with_weight)
from .closedform import (RldPackage, SingularInformationError, SldPackage,
                         rld_bound, sld_bound, sld_fisher_point,
                         van_tree_bound)
from .conic import (ConicProgram, ConicSolution, ProgramError,
                    SolverFailureError, solve, solve_or_raise)
from .sdpbounds import (BoundSolution, appendix_f, f_family_pinned_example,
                        f_family_suite, holevo_lemma_sdp_value,
                        holevo_lemma_suite, holevo_lemma_value,
                        holevo_type_bound, nagaoka_bound,
                        nagaoka_hayashi_bound, nagaoka_objective,
                        random_lemma_triple)
from .verify import (DecisionRisk, Povm, bayes_risk, optimal_povm_step,
                     ordering_audit, posterior_mean_estimator, random_povm,
                     rounded_measurement, seesaw)

__version__ = "0.1.0"

__all__ = [
    "NotPsdError", "check_hermitian", "hermitize", "lyapunov_solve",
    "psd_sqrt", "trace_abs", "weighted_trace_abs",
    "CapabilityError", "ExtendedMoments", "GridPoint",
    "ModelError", "StatisticalModel", "WeightSpec",
    "build_extended_moments", "load_model", "model_from_dict",
    "model_to_dict", "model_zoo", "save_model", "with_weight",
    "RldPackage", "SingularInformationError", "SldPackage",
    "rld_bound", "sld_bound", "sld_fisher_point", "van_tree_bound",
    "ConicProgram", "ConicSolution", "ProgramError",
    "SolverFailureError", "solve", "solve_or_raise",
    "BoundSolution", "appendix_f",
    "f_family_pinned_example", "f_family_suite", "holevo_lemma_sdp_value",
    "holevo_lemma_suite", "holevo_lemma_value", "holevo_type_bound",
    "nagaoka_bound", "nagaoka_hayashi_bound", "nagaoka_objective",
    "random_lemma_triple",
    "DecisionRisk", "Povm", "bayes_risk", "optimal_povm_step",
    "ordering_audit", "posterior_mean_estimator", "random_povm",
    "rounded_measurement", "seesaw",
    "__version__",
]
