"""Two-qubit LOCC state discrimination and nonlocality classification."""

from .bruteforce import GridSpec, OracleVerdict, oracle_identifiable, oracle_product_scan
from .discrimination import (
    HierarchyLabel,
    IdentifiabilityReport,
    NonlocalityClass,
    classify,
    conclusively_identifiable,
    perfectly_distinguishable,
)
from .ensembles import OrthogonalSet, Tolerances, average_entanglement, random_orthogonal_set
from .errors import QloccError
from .products import (
    EnumerationKind,
    ProductStateEnumeration,
    Subspace,
    orthocomplement,
    product_states_in_2d,
)
from .states import (
    EntanglementProfile,
    PureState,
    concurrence,
    entanglement_profile,
    is_product,
    make_state,
)
from .ueb import (
    GeneratorParams,
    UebVerdict,
    generate_eq1,
    generate_eq2,
    random_max_entangled_triple,
    ueb_check,
    ueb_spanning_check,
)
