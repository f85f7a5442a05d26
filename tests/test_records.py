"""Result records: immutable Record tuples, validated on every construction path but _make and _replace."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from secmin import arith, bands, bounds, lattice, secant, suite
from secmin.errors import ParameterError

SRC = Path(__file__).parents[1] / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    code = "import sys, secmin.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_records_compile_no_code_at_import():
    # a second import of every module, with namedtuple and eval refused (the import system itself
    # runs each module through exec); the first import loads the standard library modules secmin
    # uses, some of which build named tuples of their own
    probe = (
        "import builtins, collections, sys\n"
        "import secmin.suite\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'secmin']:\n"
        "    del sys.modules[name]\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('code compiled at import')\n"
        "collections.namedtuple = builtins.eval = refuse\n"
        "import secmin.suite\n"
        "print(len(secmin.suite.bands.BandGapRecord._fields))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3\n"


def sample_records():
    """One instance of every result record, built the way the package builds it."""
    sieve = arith.build_sieve(100)
    hexagonal = lattice.GramLattice.from_rows([[2, 1], [1, 2]])
    minima = lattice.successive_minima(hexagonal)
    transference = lattice.verify_transference(hexagonal)
    form = lattice.HomogeneousForm.from_terms(2, {(1, 1): 1})
    return [
        bands.prime_power_gap(10, sieve),
        bands.asymptotic_report(100, 0.535, sieve),
        bounds.RATIONAL_FIELD,
        bounds.omega_power_surface(2, 1, 1.0, bounds.RATIONAL_FIELD),
        bounds.make_report("constant", N=1, degK=1, r1=1, r2=0, log_disc=0.0),
        hexagonal,
        lattice.dual_lattice(hexagonal),
        minima,
        lattice.sublattice_heights(hexagonal),
        transference.rows[0],
        transference,
        form,
        lattice.avoid_hypersurface(form, minima),
        secant.SecantParams(1, 5, 2),
        suite.CheckResult(name="curve-degree", ok=True, detail="", elapsed_ms=0),
    ]


@pytest.mark.parametrize("record", sample_records(), ids=lambda r: type(r).__name__)
class TestImmutable:
    def test_fields_cannot_be_assigned(self, record):
        first = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, first, getattr(record, first))

    def test_no_new_attributes(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_is_a_tuple_of_its_fields(self, record):
        assert record == tuple(getattr(record, name) for name in record._fields)

    def test_pickle_and_copy_keep_type_and_value(self, record):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record

    def test_make_and_replace_keep_the_type(self, record):
        first = record._fields[0]
        for twin in (type(record)._make(record), record._replace(), record._replace(**{first: record[0]})):
            assert type(twin) is type(record) and twin == record

    def test_wrong_arity_or_unknown_keyword_raises_type_error(self, record):
        with pytest.raises(TypeError):
            type(record)(*record, None)
        with pytest.raises(TypeError):
            type(record)(*record, extra=None)
        with pytest.raises(TypeError):
            type(record)._make((*record, None))


FIELDS = {
    "BandGapRecord": ("n", "gap", "witness_prime_power"),
    "GapSumReport": ("n", "partial_sum", "exponent", "ratio", "max_ratio", "argmax"),
    "NumberFieldData": ("degree", "real_places", "complex_places", "log_disc"),
    "SurfaceData": ("genus", "degree", "l2", "l_omega", "omega2", "field"),
    "BoundReport": ("kind", "value", "inputs"),
    "GramLattice": ("gram", "echelon"),
    "RationalGram": ("entries",),
    "MinimaProfile": ("lattice", "sq_minima", "log_minima", "witnesses"),
    "SublatticeHeightTable": ("lattice", "covol2", "log_heights"),
    "TransferenceRow": ("p", "lower", "minima_sum", "upper", "printed_upper"),
    "TransferenceReport": ("lattice", "constant", "rows"),
    "HomogeneousForm": ("num_vars", "degree", "terms"),
    "AvoidanceResult": ("grid_vector", "lattice_vector", "value", "log_norm", "log_bound", "within_bound"),
    "SecantParams": ("genus", "bundle_degree", "index"),
    "CheckResult": ("name", "ok", "detail", "elapsed_ms"),
}

AS_DICT = {
    "BandGapRecord": {"n": 10, "gap": 1, "witness_prime_power": 9},
    "SecantParams": {"genus": 1, "bundle_degree": 5, "index": 2},
}


@pytest.mark.parametrize("record", sample_records(), ids=lambda r: type(r).__name__)
def test_record_names_and_fields_are_pinned(record):
    # the CLI output, the JSON records and the tests read fields by name and position
    name = type(record).__name__
    assert record._fields == FIELDS[name]
    assert list(record._asdict()) == list(FIELDS[name])
    if name in AS_DICT:
        assert record._asdict() == AS_DICT[name]
        assert repr(record) == f"{name}({', '.join(f'{k}={v!r}' for k, v in AS_DICT[name].items())})"


def test_every_record_type_is_sampled():
    sampled = {type(r) for r in sample_records()}
    modules = (bands, bounds, lattice, secant, suite)
    records = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, tuple)
        and obj.__module__ == module.__name__ and not obj.__name__.startswith("_")
    }
    assert records == sampled


FIELD = bounds.RATIONAL_FIELD


@pytest.mark.parametrize(
    "build",
    [
        lambda: bounds.NumberFieldData(1, 0, 0, 0.0),  # r1 + 2 r2 != degree
        lambda: bounds.NumberFieldData(degree=2, real_places=2, complex_places=0, log_disc=0.0),
        lambda: bounds.NumberFieldData(1, 1, 0, -1.0),
        lambda: bounds.SurfaceData(1, 12, 1.0, 0.0, 0.0, FIELD),
        lambda: bounds.SurfaceData(genus=2, degree=0, l2=1.0, l_omega=0.0, omega2=0.0, field=FIELD),
        lambda: bounds.SurfaceData(2, 12, 1.0, 0.0, -0.5, FIELD),
        lambda: lattice.GramLattice(((1, 2), (2, 1))),  # det -3
        lambda: lattice.GramLattice(gram=((1, 2), (3, 1))),  # not symmetric
        lambda: lattice.GramLattice(()),
        lambda: lattice.GramLattice(((1, 0), (0, 1.5))),
        lambda: lattice.HomogeneousForm(2, 2, (((1, 0), 1),)),  # term of degree 1
        lambda: lattice.HomogeneousForm(num_vars=2, degree=1, terms=()),
        lambda: lattice.HomogeneousForm(2, 1, (((1, 0), 0),)),
        lambda: secant.SecantParams(-1, 5, 1),
        lambda: secant.SecantParams(genus=1, bundle_degree=0, index=1),
        lambda: secant.SecantParams(1, 5, 0),
    ],
)
def test_validated_records_reject_bad_fields(build):
    with pytest.raises(ParameterError):
        build()


def test_validated_records_keep_their_type():
    params = secant.SecantParams(bundle_degree=5, genus=1, index=2)
    assert type(params) is secant.SecantParams and params == (1, 5, 2)
    assert repr(params) == "SecantParams(genus=1, bundle_degree=5, index=2)"
    genus, degree, index = params
    assert (genus, degree, index) == (1, 5, 2)


def test_make_and_replace_skip_validation():
    # the fault-injection tests build records the validation would refuse through these two
    bad = secant.SecantParams._make((-1, 5, 1))
    assert type(bad) is secant.SecantParams and bad.genus == -1
    assert secant.SecantParams(1, 5, 2)._replace(genus=-1) == (-1, 5, 2)
    with pytest.raises(ValueError):
        secant.SecantParams(1, 5, 2)._replace(degree=5)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((10, 1), {}),  # one field short
        ((10,), {"gap": 1}),  # a keyword short
        ((10, 1), {"witness_prime_power": 9, "n": 10}),  # n given twice
        ((10, 1), {"witness": 9}),  # unknown keyword
    ],
)
def test_construction_needs_every_field_once(args, kwargs):
    with pytest.raises(TypeError):
        bands.BandGapRecord(*args, **kwargs)


def test_positional_and_keyword_fields_mix():
    record = bands.BandGapRecord(10, witness_prime_power=9, gap=1)
    assert type(record) is bands.BandGapRecord and record == (10, 1, 9)
    assert record.gap == 1 and record._asdict() == {"n": 10, "gap": 1, "witness_prime_power": 9}
