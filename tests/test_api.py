import os
import subprocess
import sys
from pathlib import Path

import dgscert


def test_every_exported_name_resolves():
    missing = [name for name in dgscert.__all__ if not hasattr(dgscert, name)]
    assert not missing


def test_exported_names_are_unique():
    assert len(dgscert.__all__) == len(set(dgscert.__all__))


def test_number_theory_has_one_home():
    assert dgscert.factor_integer is dgscert.ntheory.factor_integer


def test_import_does_not_load_numpy():
    # the package never loads numpy, the n <= 7 enumeration oracle included;
    # the experiments and their process pool load only with the CLI commands
    code = (
        "import sys, dgscert; "
        "lazy = any(m in sys.modules for m in ('numpy', 'dgscert.experiments', 'concurrent.futures')); "
        "dgscert.enumerate_generalized_cospectral_classes(4); "
        "sys.exit(lazy or 'numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dgscert.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_spec_surface_present():
    # the operation names downstream code is allowed to rely on
    for name in (
        "parse_graph6", "emit_graph6", "random_graph",
        "walk_matrix", "determinant", "char_poly_int", "smith_normal_form",
        "factor_integer", "rational_solve",
        "char_poly_mod_p", "poly_gcd", "squarefree_decomposition", "sfp", "sqrt_poly",
        "phi_report",
        "certify_dgs",
        "spectrum_key", "verify_regular_orthogonal", "recover_q",
        "enumerate_generalized_cospectral_classes", "level_parity_audit",
    ):
        assert callable(getattr(dgscert, name)), name
