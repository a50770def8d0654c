"""cfcalc: exact symbolic calculus for monomial-log constructible functions
on prepared cells, with a verifying numeric oracle."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    CExpr,
    ExpVec,
    LogExprAtom,
    LogPrime,
    LogUnitAtom,
    LogVar,
    PolyUnit,
    Rat,
    RatioFactor,
    Term,
    differentiate,
    differentiate_expr,
    expand_ratios,
    is_zero,
    log_const,
    normalize,
)
from .cells import (  # noqa: F401
    AsymClass,
    AxisMap,
    Cell,
    FatVar,
    HStep,
    Inf,
    MonomialBound,
    RawCell,
    RawMono,
    RawVar,
    Zero,
    classify,
    compose_with_map,
    normalize_cell,
    transform_H,
)
from .prepare import (  # noqa: F401
    PreparedCellData,
    absorb_determined,
    prepare_expr,
    substitute_thin,
)
from .sliver import (  # noqa: F401
    AffineForm,
    Sliver,
    build_sliver,
    pull_exponent,
    separate,
    shrink_for_decay,
)
from .analyze import (  # noqa: F401
    DecayRate,
    DominanceReport,
    IntegrableLocus,
    Majorant,
    SumIntegrability,
    decay_rate,
    dominance,
    integrable_locus,
    subanalytic_bound,
    sum_integrable_last,
    term_integrable_last,
)
from .integrate import (  # noqa: F401
    FubiniResult,
    SForm,
    antiderivative_pow_log,
    antiderivative_pow_log_recursive,
    build_sform,
    integrate_fubini,
    integrate_last,
    integrate_shape,
)
from .oracle import (  # noqa: F401
    ProbeReport,
    adaptive_quadrature,
    divergence_probe,
    eval_expr,
    quadrature_last,
)
from .parser import SourceForm, parse, print_cell, print_expr, print_source  # noqa: F401
