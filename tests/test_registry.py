import numpy as np
import pytest

from crossdim import registry
from crossdim.dynamics import AffineFeedback
from testkit import get_field


def test_field_catalog_dims():
    for name in registry.FIELDS:
        dim, fn = get_field(name)
        out = np.asarray(fn(np.ones(dim)))
        assert out.shape == (dim,), name
        _, drift = registry.get_drift(name)
        if not callable(drift):
            assert drift.shape == (dim, dim), name


def test_linear_fields_are_matrix_data():
    # ddp_two_mode's drifts and rotor2 are linear: modes built from them take
    # the exact path, while testkit.get_field serves an evaluator x -> A x
    for name in ("rotor2", "ddp2_drift", "ddp3_drift"):
        dim, A = registry.get_drift(name)
        assert isinstance(A, np.ndarray), name
        _, f = get_field(name)
        x = np.arange(1.0, dim + 1.0)
        np.testing.assert_array_equal(f(x), A @ x)
    _, rotor = get_field("rotor2")
    np.testing.assert_array_equal(rotor([1.0, 2.0]), [2.0, -1.0])


def test_input_channels_shapes():
    for name, (dim, channels) in registry.INPUT_CHANNELS.items():
        for g in channels:
            assert np.asarray(g(np.zeros(dim))).shape == (dim,), name


def test_output_functions_scalar():
    q, p, h = registry.get_output_function("ddp_output6")
    assert (q, p) == (6, 1)
    assert h(np.ones(6)) == pytest.approx(7.0)


def test_feedbacks_return_input_vectors():
    for name in ("damp2", "damp3", "steer_stage1"):
        fb = registry.get_feedback(name)
        dim = 3 if name == "damp3" else 2
        assert np.asarray(fb(0.0, np.zeros(dim))).shape == (1,)


def test_feedbacks_are_affine_data():
    # a callable table entry would be replaced by an evaluator wrapper when
    # the table is instrumented, which moves its modes off the exact path
    for name, entry in registry.FEEDBACKS.items():
        assert not callable(entry), name
        fb = registry.get_feedback(name)
        assert isinstance(fb, AffineFeedback)
        assert fb.K.shape[0] == fb.u0.shape[0]


def test_time_signals():
    dim, zero = registry.get_time_signal("zero1")
    assert dim == 1 and zero(3.0)[0] == 0.0
    _, wave = registry.get_time_signal("sin1")
    assert wave(np.pi / 2)[0] == pytest.approx(1.0)


def test_span_bases_evaluate():
    for name, (dim, basis) in registry.SPAN_BASES.items():
        for b in basis:
            assert np.asarray(b(np.zeros(dim))).shape == (dim,), name


def test_unknown_names_list_alternatives():
    with pytest.raises(ValueError) as err:
        registry.get_drift("warp9")
    assert "rotor2" in str(err.value)
    with pytest.raises(ValueError):
        registry.get_feedback("bang-bang")
