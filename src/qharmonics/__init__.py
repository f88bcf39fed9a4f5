"""Quaternion Fourier and linear canonical transforms, with the 2D
bounded-variation machinery behind their pointwise inversion results.

Submodules are imported lazily (PEP 562) so that process-level knobs
such as BLAS thread caps can be applied by entry points before numpy
loads.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "quaternion", "grids", "variation", "qft", "qlct",
    "smoothing", "fixtures", "fileio", "errors", "cli",
)

_EXPORTS = {
    # quaternion core
    "quat": "quaternion", "qmul": "quaternion", "qconj": "quaternion",
    "qabs": "quaternion", "qinv": "quaternion", "qexp_pure": "quaternion",
    "pure_unit": "quaternion", "AxisPair": "quaternion",
    "CANONICAL_AXES": "quaternion",
    # grids
    "GridSpec": "grids", "QSignal2D": "grids", "QSpectrum2D": "grids",
    "sample": "grids", "l1_norm": "grids", "linf_diff": "grids",
    "image_to_qsig": "grids", "qsig_to_image": "grids",
    # variation
    "Net": "variation", "VariationReport": "variation",
    "mixed_difference": "variation", "vitali_variation": "variation",
    "hardy_bvf_check": "variation", "quasi_monotone_check": "variation",
    "jordan_split": "variation",
    # qft
    "Side": "qft", "QftKind": "qft", "FreqWindow": "qft",
    "qft_forward": "qft", "qft_inverse": "qft",
    "ft2d": "qft", "qft_from_ft": "qft", "ft_from_qft": "qft",
    "derivative_multiplier": "qft",
    # qlct
    "LctParams": "qlct", "LctKind": "qlct", "lct_kernel": "qlct",
    "qlct_forward": "qlct", "qlct_inverse": "qlct",
    "sided_decompose_transform": "qlct", "qfrft": "qlct",
    # smoothing
    "JumpAverage": "smoothing",
    "dirichlet_partial_inverse_freq": "smoothing",
    "dirichlet_partial_inverse_sinc": "smoothing",
    "eta_jump_average": "smoothing", "sinc_integral_bound_check": "smoothing",
    "gauss_weierstrass_kernel": "smoothing", "gauss_mean_inverse": "smoothing",
    "lc_class_diagnostic": "smoothing",
    # io
    "save_qsig": "fileio", "load_qsig": "fileio",
    "save_qspectrum": "fileio", "load_qspectrum": "fileio",
}

__all__ = sorted(set(_EXPORTS) | set(_SUBMODULES))


def __getattr__(name):
    import importlib
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
