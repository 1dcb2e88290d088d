"""Finite quandle computations: displacement-group invariants, affine
meshes, and explicit construction of covering affine quandles."""

from .affine import (
    AffineQuandle,
    make_affine,
    subquandle_closure,
)
from .core import (
    Partition,
    Quandle,
    induced_subquandle,
    is_isomorphic,
    quotient,
    validate_quandle,
)
from .cover import (
    CoverResult,
    Multitransversal,
    build_cover,
    build_oplus,
    is_homim_of_affine,
    optimized_multitransversal,
    simple_multitransversal,
    verify_cover,
)
from .groups import (
    AbelianGroup,
    GroupAutomorphism,
    make_cyclic_product,
    multiplication_automorphism,
    validate_automorphism,
)
from .mesh import (
    AffineMesh,
    coset_criterion,
    generate_max_mesh,
    is_indecomposable,
    mesh_sum,
    semiregular_extension_form,
    validate_mesh,
)
from .perms import (
    PermGroup,
    cayley_kernel,
    closure,
    displacement_group,
    is_abelian,
    is_medial,
    is_semiregular,
    is_tiny,
    multiplication_group,
    orbits,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
