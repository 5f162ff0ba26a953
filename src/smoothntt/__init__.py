"""Exact number-theoretic transforms over prime fields with smooth group order."""

from types import ModuleType as _ModuleType

from .bench import BenchReport, emit_report, run_benchmark
from .errors import (
    BadRadices,
    InvalidField,
    LengthMismatch,
    NotADivisor,
    NotReduced,
    OutOfRange,
    VectorFileError,
    WrongOrder,
    ZeroElement,
    ZeroInverse,
)
from .field import FieldElement, FieldParams, fp_add, fp_inv, fp_mul, fp_pow, fp_sub, is_prime
from .numtheory import (
    Factorization,
    SmoothPrimeRecord,
    element_order,
    euler_phi,
    factorize,
    find_generator,
    generator_probability,
    prime_search,
)
from .transform import (
    DigitPermutation,
    OpCounts,
    TransformPlan,
    build_twiddle_table,
    cyclic_convolve_via_fft,
    dft_naive,
    digit_reverse,
    fft_recursive,
    fft_twiddle,
    idft_naive,
    ifft,
    plan_transform,
    predicted_counts,
)

# Every public name imported above, and no submodule: the import block is
# the one list of the package surface.
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
