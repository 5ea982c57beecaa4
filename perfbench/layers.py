"""What the traced run wraps, and the per-layer metrics it reports.

Each layer is one repst module.  PER_LAYER names the metrics that
BENCHMARK.json lists, each with the end-to-end metric and workloads it is
expected to move; the report file carries that map next to the values.
"""

from __future__ import annotations

# (span name, module, attribute or Class.method)
TARGETS = [
    ("exact.poly_add", "repst.exact", "ExactPolynomial.__add__"),
    ("exact.poly_mul", "repst.exact", "ExactPolynomial.__mul__"),
    ("exact.poly_sub", "repst.exact", "ExactPolynomial.__sub__"),
    ("exact.poly_pow", "repst.exact", "ExactPolynomial.__pow__"),
    ("exact.poly_scale", "repst.exact", "ExactPolynomial.scale"),
    ("exact.poly_eval", "repst.exact", "ExactPolynomial.__call__"),
    ("exact.exact_div", "repst.exact", "ExactPolynomial.exact_div"),
    ("exact.series_add", "repst.exact", "TruncatedSeries.__add__"),
    ("exact.series_mul", "repst.exact", "TruncatedSeries.__mul__"),
    ("exact.series_pow", "repst.exact", "TruncatedSeries.__pow__"),
    ("exact.series_pow_poly", "repst.exact", "TruncatedSeries.pow_poly"),
    ("exact.series_exp", "repst.exact", "TruncatedSeries.exp"),
    ("exact.series_coefficient", "repst.exact", "TruncatedSeries.coefficient"),
    ("exact.convolve_coefficient", "repst.exact", "convolve_coefficient"),
    ("exact.to_binomial_basis", "repst.exact", "to_binomial_basis"),
    ("exact.lagrange_interpolate", "repst.exact", "lagrange_interpolate"),
    ("exact.falling_factorial_poly", "repst.exact", "falling_factorial_poly"),
    ("partitions.partitions_of", "repst.partitions", "partitions_of"),
    ("partitions.pad", "repst.partitions", "pad"),
    ("partitions.hook_product", "repst.partitions", "hook_product"),
    ("partitions.b_set", "repst.partitions", "b_set"),
    ("partitions.corner_moves", "repst.partitions", "corner_moves"),
    ("snoracle.hook_dim", "repst.snoracle", "hook_dim"),
    ("snoracle.character", "repst.snoracle", "character"),
    ("snoracle.mn_recurse", "repst.snoracle", "_mn_recurse"),
    ("snoracle.class_size", "repst.snoracle", "class_size"),
    ("snoracle.central_eigenvalue", "repst.snoracle", "central_eigenvalue"),
    ("deligne.dimension_poly", "repst.deligne", "dimension_poly"),
    ("deligne.frobenius_coefficient", "repst.deligne", "frobenius_coefficient"),
    ("deligne.central_eigenvalue_poly", "repst.deligne", "central_eigenvalue_poly"),
    ("deligne.certify_integer_valued", "repst.deligne", "certify_integer_valued"),
    ("deligne.class_size_poly", "repst.deligne", "class_size_poly"),
    ("deligne.jm_eigenvalue", "repst.deligne", "jm_eigenvalue"),
    ("deligne.pieri", "repst.deligne", "pieri"),
    ("schurweyl.tensor_power_hilbert", "repst.schurweyl", "tensor_power_hilbert"),
    ("schurweyl.graded_decomposition_check", "repst.schurweyl", "graded_decomposition_check"),
    ("schurweyl.schur_dimension", "repst.schurweyl", "schur_dimension"),
    ("groupalg.hilbert_coefficient", "repst.groupalg", "hilbert_coefficient"),
    ("groupalg.hilbert_coefficient_gamma", "repst.groupalg", "hilbert_coefficient_gamma"),
    ("groupalg.elementary_symmetric_table", "repst.groupalg", "elementary_symmetric_table"),
    ("groupalg.bernoulli_number", "repst.groupalg", "bernoulli_number"),
    ("bounds.bound_sweep", "repst.bounds", "bound_sweep"),
    ("bounds.lemma_scan", "repst.bounds", "lemma_scan"),
    ("bounds.amgm_check", "repst.bounds", "amgm_check"),
    ("bounds.dimension_lower_bound", "repst.bounds", "dimension_lower_bound"),
    ("verify.pieri", "repst.verify", "pieri_suite"),
    ("verify.stirling", "repst.verify", "stirling_suite"),
    ("verify.bounds", "repst.verify", "bounds_suite"),
    ("verify.graded", "repst.verify", "graded_suite"),
]

# the functools cache behind a traced name, where it has another name
CACHE_OF = {
    "snoracle.mn_recurse": "snoracle._mn_recurse",
    "partitions.partitions_of": "partitions._partitions_of",
}

# the caches at the parent commit; cache.all.currsize also counts any added later
KNOWN_CACHES = (
    "deligne.dimension_poly",
    "deligne.frobenius_coefficient",
    "snoracle._mn_recurse",
    "partitions._partitions_of",
    "groupalg.hilbert_coefficient",
    "groupalg.hilbert_coefficient_gamma",
    "groupalg.bernoulli_number",
)

_FROB = "pass_s, item_p90_ms on columns, then central"
_SWEEP = "pass_s on sweep"

# metric name -> the end-to-end metric and workloads it should move
PER_LAYER = {
    "exact.poly_mul.calls": _FROB,
    "exact.poly_mul.self_s": _FROB,
    "exact.poly_add.calls": _FROB,
    "exact.poly_add.self_s": _FROB,
    "exact.series_mul.calls": _FROB,
    "exact.series_mul.self_s": _FROB,
    "exact.series_pow_poly.self_s": _FROB,
    "exact.convolve_coefficient.self_s": _FROB,
    "exact.exact_div.self_s": "pass_s on central",
    "exact.to_binomial_basis.self_s": "pass_s on central",
    "exact.series_exp.self_s": _SWEEP,
    "exact.lagrange_interpolate.self_s": _SWEEP,
    "exact.poly_eval.calls": _SWEEP,
    "exact.poly_eval.self_s": _SWEEP,
    "deligne.frobenius_coefficient.calls": "pass_s on columns and central; 0 on sweep",
    "deligne.frobenius_coefficient.total_s": "pass_s on columns and central",
    "deligne.frobenius_coefficient.self_s": "pass_s on columns and central",
    "deligne.frobenius_coefficient.cache_hit_ratio": "pass_s on columns and central",
    "deligne.central_eigenvalue_poly.total_s": "pass_s on columns and central",
    "deligne.certify_integer_valued.total_s": "pass_s on central",
    "deligne.dimension_poly.total_s": _SWEEP,
    "deligne.dimension_poly.cache_hit_ratio": _SWEEP,
    "deligne.pieri.total_s": _SWEEP,
    "snoracle.hook_dim.calls": _SWEEP,
    "snoracle.hook_dim.self_s": _SWEEP,
    "snoracle.character.total_s": _SWEEP,
    "partitions.hook_product.self_s": _SWEEP,
    "snoracle.mn_recurse.cache_hit_ratio": _SWEEP,
    "bounds.bound_sweep.total_s": _SWEEP,
    "bounds.bound_sweep.self_s": _SWEEP,
    "bounds.lemma_scan.total_s": _SWEEP,
    "bounds.amgm_check.total_s": _SWEEP,
    "bounds.dimension_lower_bound.self_s": _SWEEP,
    "partitions.partitions_of.total_s": _SWEEP,
    "partitions.partitions_of.cache_hit_ratio": _SWEEP,
    "groupalg.hilbert_coefficient.total_s": _SWEEP,
    "groupalg.hilbert_coefficient_gamma.total_s": _SWEEP,
    "schurweyl.tensor_power_hilbert.total_s": _SWEEP,
    "schurweyl.graded_decomposition_check.total_s": _SWEEP,
    "verify.pieri.total_s": _SWEEP,
    "verify.stirling.total_s": _SWEEP,
    "verify.bounds.total_s": _SWEEP,
    "verify.graded.total_s": _SWEEP,
    "cli.import_s": "setup_s on every workload",
    **{f"cache.{name}.currsize": "peak_rss_mb" for name in KNOWN_CACHES},
    "cache.all.currsize": "peak_rss_mb",
    "trace.overhead_ratio": "none: traced pass_s over plain pass_s",
}


def unit_and_direction(metric: str) -> tuple[str, str]:
    if metric.endswith(".calls") or metric.endswith(".currsize"):
        return "count", "lower"
    if metric.endswith("_s"):
        return "s", "lower"
    if metric.endswith(".cache_hit_ratio"):
        return "ratio", "higher"
    return "ratio", "lower"
