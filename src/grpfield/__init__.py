"""Field arithmetic for repunit primes p = t**m + ... + t + 1.

Field elements live as length-(m+1) vectors of small signed components;
multiplication is a cyclic-difference convolution followed by shift-based
reduction, with every result checkable against an exact big-int oracle.
"""

import types

from .arith import (OpCounter, add, cvma_mul, equals, from_montgomery,
                    invert, kernel_cost, modmul, modmul_interleaved,
                    modmul_trace, psi, randomize, red1, red2, red3, square,
                    sub, to_montgomery, to_residue, v_vector)
from .bench import BenchReport, MontCtx, montgomery_modmul, run_bench
from .errors import (GrpError, NotPrimeError, ParameterError, RangeError,
                     StabilityError, ZeroInverseError)
from .oracle import is_probable_prime, lattice_basis
from .params import (GrpParams, Residue, WideResidue, canonical_value,
                     params_from_json, params_new, params_to_json,
                     residue_from_json, residue_to_json, ring_value, zero)
from .tables import (DensityEstimate, StabilityRow, estimate_density,
                     hw2_search, pure_power_scan, search_grps,
                     stability_rows_to_csv, stability_rows_to_json,
                     stability_table)

# The public names imported above; the submodules those imports bind
# here are not among them.
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], types.ModuleType)]
__version__ = "1.0.0"
