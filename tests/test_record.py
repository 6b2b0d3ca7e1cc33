import pytest

from dmqkd.config import McSpec, RunConfig, SweepSpec
from dmqkd.errors import ConfigurationError
from dmqkd.linksim import DecoyIntensities, GainQber, LinkParams, RowTally, TallyCounts
from dmqkd.photonics import CalibrationCurve, TimingParams

_LINK = ("LinkParams(loss_db=15.0, det_efficiency=0.7, dark_rate=50.0, window=3e-10, "
         "clock=666666666.6666666, p_y_alice=0.9, p_y_bob=0.9, e_det=0.033, f_ec=1.16, "
         "y_receiver_factor=0.5)")
_INTENS = "DecoyIntensities(mu=0.4, nu=0.16, omega=0.015)"
_TIMING = ("TimingParams(master_rate=666666666.6666666, perturbation_width=1.5e-10, "
           "master_on_time=1.4e-09, slave_on_time=3e-10)")
_ZERO_ROW = "RowTally(sent=0, detected=0, errors=0)"
_SWEEP = "SweepSpec(loss_min_db=0.0, loss_max_db=60.0, loss_step_db=1.0)"
_MC = "McSpec(n_frames=1000000, seed=0)"


# The reprs of the dataclasses the records replaced, as they printed them.
@pytest.mark.parametrize(
    "record,text",
    [
        (LinkParams(), _LINK),
        (DecoyIntensities(), _INTENS),
        (GainQber(0.5, 0.25), "GainQber(q=0.5, e=0.25)"),
        (RowTally(), _ZERO_ROW),
        (RowTally(1, 2, 3), "RowTally(sent=1, detected=2, errors=3)"),
        (TallyCounts(), "TallyCounts(rows={('signal', 'Y'): " + _ZERO_ROW + ", ('signal', 'Z'): "
         + _ZERO_ROW + ", ('decoy', 'Z'): " + _ZERO_ROW + ", ('vacuum', 'Z'): " + _ZERO_ROW + "})"),
        (CalibrationCurve(), "CalibrationCurve(v_pi=0.8)"),
        (TimingParams(), _TIMING),
        (SweepSpec(), _SWEEP),
        (McSpec(), _MC),
        (RunConfig(), f"RunConfig(link={_LINK}, intensities={_INTENS}, timing={_TIMING}, "
         "calibration=CalibrationCurve(v_pi=0.8), z_mix=(0.3333333333333333, "
         f"0.3333333333333333, 0.3333333333333333), sweep={_SWEEP}, mc={_MC})"),
    ],
    ids=["LinkParams", "DecoyIntensities", "GainQber", "RowTally", "RowTally-counts",
         "TallyCounts", "CalibrationCurve", "TimingParams", "SweepSpec", "McSpec", "RunConfig"],
)
def test_repr_keeps_the_dataclass_format(record, text):
    assert repr(record) == str(record) == text


class TestFields:
    def test_fields_bind_by_position_or_keyword(self):
        assert LinkParams(20.0, 0.5) == LinkParams(loss_db=20.0, det_efficiency=0.5)
        assert LinkParams(20.0, det_efficiency=0.5).det_efficiency == 0.5
        assert GainQber(e=0.25, q=0.5) == GainQber(0.5, 0.25)

    def test_names_and_dict_form_follow_the_annotations(self):
        assert TimingParams.field_names == (
            "master_rate", "perturbation_width", "master_on_time", "slave_on_time")
        assert TimingParams().asdict() == {
            "master_rate": 2e9 / 3.0, "perturbation_width": 150e-12,
            "master_on_time": 1.4e-9, "slave_on_time": 300e-12}
        assert RunConfig().asdict()["link"] is RunConfig().link

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: LinkParams(bogus=1.0), "LinkParams() has no field 'bogus'"),
            (lambda: GainQber(0.5), "GainQber() missing field 'e'"),
            (lambda: GainQber(0.5, 0.25, q=0.5), "GainQber() got multiple values for field 'q'"),
            (lambda: CalibrationCurve(0.8, 0.9), "CalibrationCurve() takes 1 arguments, got 2"),
            (lambda: LinkParams().replace(bogus=1.0), "LinkParams() has no field 'bogus'"),
        ],
        ids=["unknown", "missing", "repeated", "too-many", "replace-unknown"],
    )
    def test_unknown_missing_or_repeated_field_is_a_type_error(self, build, message):
        with pytest.raises(TypeError) as exc:
            build()
        assert str(exc.value) == message


class TestEquality:
    def test_equal_fields_are_equal_records_with_equal_hashes(self):
        assert LinkParams() == LinkParams() and hash(LinkParams()) == hash(LinkParams())
        assert RunConfig() == RunConfig() and hash(RunConfig()) == hash(RunConfig())
        assert len({TimingParams(), TimingParams(), CalibrationCurve()}) == 2
        assert RowTally(1, 2, 3) == RowTally(1, 2, 3) and TallyCounts() == TallyCounts()

    def test_a_different_field_or_class_is_unequal(self):
        assert LinkParams(loss_db=16.0) != LinkParams()
        assert McSpec(seed=1) != McSpec()
        assert RunConfig(mc=McSpec(seed=1)) != RunConfig()
        assert GainQber(0.5, 0.25) != (0.5, 0.25)
        assert SweepSpec() != CalibrationCurve()

    def test_mutable_records_are_unhashable(self):
        for record in (RowTally(), TallyCounts()):
            with pytest.raises(TypeError):
                hash(record)


class TestImmutability:
    @pytest.mark.parametrize("record", [LinkParams(), TimingParams(), RunConfig(), McSpec()],
                             ids=lambda r: type(r).__name__)
    def test_assignment_and_deletion_raise(self, record):
        name = record.field_names[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = 1.0
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)

    def test_tallies_stay_mutable(self):
        t = TallyCounts()
        t.rows[("signal", "Y")] = RowTally(sent=4, detected=2)
        t.rows[("signal", "Y")].errors = 1
        assert t.gain_qber(("signal", "Y")) == GainQber(0.5, 0.5)
        # Each TallyCounts builds its own rows.
        assert TallyCounts().rows[("signal", "Y")] == RowTally()


class TestReplace:
    def test_replace_changes_only_the_named_fields(self):
        link = LinkParams()
        at = link.replace(loss_db=20.0, e_det=0.05)
        assert (at.loss_db, at.e_det) == (20.0, 0.05)
        assert at.replace(loss_db=15.0, e_det=0.033) == link
        assert link.loss_db == 15.0

    def test_replace_runs_the_checks_again(self):
        with pytest.raises(ConfigurationError, match=r"e_det must lie in \[0, 1\], got 2.0"):
            LinkParams().replace(e_det=2.0)
        with pytest.raises(ConfigurationError, match="differs from the master rate"):
            RunConfig().replace(link=LinkParams(clock=1e8))
