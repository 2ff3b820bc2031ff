"""freerep: exact computation with freely representable groups.

Decides free representability of finite groups, produces and verifies
norm-relation-of-unity certificates in Q[G], constructs exact cyclotomic
free representations, and reproduces the desk-scale structural
classification (Sylow-cycloidal types, MCC subgroups, SL2(F_p) census).
"""

from .run import limits
from .groups import (
    Group,
    Homomorphism,
    Subgroup,
    build_group,
    subgroup_generated,
    sylow_subgroup,
)
from .constructors import (
    SemidirectParams,
    binary_polyhedral,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    sd,
    semidirect_cyclic,
    sl2,
)
from .classify import (
    ClassificationReport,
    FreelyRepresentableVerdict,
    classify,
    is_freely_representable,
    mcc_subgroup,
    odd_core,
)
from .normrel import (
    NormRelationCertificate,
    find_norm_relation,
    partition_relation,
)
from .represent import (
    Representation,
    build_free_representation,
    induced_representation,
    quaternion_embedding_rep,
    scalar_representation,
    tensor_product_rep,
    verify_free,
)

__all__ = [
    "ClassificationReport",
    "FreelyRepresentableVerdict",
    "NormRelationCertificate",
    "Representation",
    "build_free_representation",
    "classify",
    "find_norm_relation",
    "induced_representation",
    "is_freely_representable",
    "mcc_subgroup",
    "odd_core",
    "partition_relation",
    "quaternion_embedding_rep",
    "scalar_representation",
    "tensor_product_rep",
    "verify_free",
    "limits",
    "Group",
    "Homomorphism",
    "Subgroup",
    "build_group",
    "subgroup_generated",
    "sylow_subgroup",
    "SemidirectParams",
    "binary_polyhedral",
    "cyclic",
    "dihedral",
    "direct_product",
    "generalized_quaternion",
    "sd",
    "semidirect_cyclic",
    "sl2",
]

__version__ = "0.1.0"
