"""Data model for mixed-signal system-on-chip (SOC) test planning.

This module defines the core entities manipulated by the rest of the
library:

* :class:`AnalogTest` — one specification-based test of an analog core
  (Table 2 of the paper): band edges, sampling frequency, length in TAM
  clock cycles, and required TAM width.
* :class:`AnalogCore` — an embedded analog core with a list of tests and
  the data-converter requirements (resolution, maximum sampling
  frequency) that its analog test wrapper must satisfy.
* :class:`DigitalCore` — an embedded digital core described the way the
  ITC'02 SOC test benchmarks describe one: functional terminal counts,
  internal scan chains, and test pattern count.
* :class:`Soc` — a container tying the two together.

All entities are immutable (frozen dataclasses); derived quantities are
exposed as properties so that test-planning code never recomputes them
ad hoc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "AnalogTest",
    "AnalogCore",
    "DigitalCore",
    "Soc",
    "DC",
]

#: Frequency value used for DC (0 Hz) test band edges, e.g. the DC offset
#: test of the I-Q transmit cores in Table 2 of the paper.
DC = 0.0


def _check_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AnalogTest:
    """A single specification-based analog test.

    Parameters mirror Table 2 of the paper.

    :param name: short mnemonic, e.g. ``"g_pb"`` (pass-band gain),
        ``"f_c"`` (cut-off frequency), ``"thd"`` (total harmonic
        distortion).
    :param band_low_hz: lower edge of the signal band exercised by the
        test, in Hz (``0.0`` / :data:`DC` for DC tests).
    :param band_high_hz: upper edge of the signal band, in Hz.
    :param sample_freq_hz: sampling frequency of the wrapper data
        converters required by the test, in Hz.
    :param cycles: test length in TAM clock cycles (core-test mode).
    :param tam_width: number of digital TAM wires the test occupies.
        Analog tests have a *fixed* TAM width — unlike digital cores,
        giving an analog test more wires does not shorten it (Section 4
        of the paper).
    :param resolution_bits: converter resolution the test streams at, or
        ``None`` to use the owning core's requirement.  Timing-oriented
        tests (e.g. slew rate) need far fewer amplitude bits than the
        core's precision tests, which is what makes their narrow TAM
        widths in Table 2 feasible at the paper's 50 MHz TAM clock.
    :param power: peak power the core draws while this test runs
        (abstract units, the power-constrained-scheduling convention;
        0 = unrated, never constrained).
    """

    name: str
    band_low_hz: float
    band_high_hz: float
    sample_freq_hz: float
    cycles: int
    tam_width: int
    resolution_bits: int | None = None
    power: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("test name must be non-empty")
        for name in ("band_low_hz", "band_high_hz", "sample_freq_hz"):
            _check_finite(name, getattr(self, name))
        _check_non_negative("band_low_hz", self.band_low_hz)
        _check_non_negative("band_high_hz", self.band_high_hz)
        if self.band_high_hz < self.band_low_hz:
            raise ValueError(
                f"band_high_hz ({self.band_high_hz}) < band_low_hz "
                f"({self.band_low_hz}) for test {self.name!r}"
            )
        _check_positive("sample_freq_hz", self.sample_freq_hz)
        _check_positive("cycles", self.cycles)
        _check_positive("tam_width", self.tam_width)
        if self.resolution_bits is not None and self.resolution_bits < 1:
            raise ValueError(
                f"resolution_bits must be >= 1 when given, got "
                f"{self.resolution_bits}"
            )
        _check_non_negative("power", self.power)

    @property
    def is_dc(self) -> bool:
        """Whether this is a DC test (both band edges at 0 Hz)."""
        return self.band_high_hz == DC

    @property
    def is_undersampled(self) -> bool:
        """Whether the test samples below the Nyquist rate of its band.

        Several Table 2 tests (e.g. the down-converter gain test, a
        26 MHz tone sampled at 26 MHz) use coherent band-pass
        undersampling — a standard mixed-signal test practice, not an
        error.
        """
        return self.sample_freq_hz < 2 * self.band_high_hz

    @property
    def duration_seconds(self) -> float:
        """Test duration in seconds at the test's own sampling rate.

        The wrapper applies one sample per converter clock; the TAM clock
        is divided down to the sampling frequency, so the wall-clock
        duration is ``cycles / sample_freq_hz`` only when the TAM runs at
        the sampling rate.  This property is used for reporting, not for
        scheduling (scheduling works in TAM cycles).
        """
        return self.cycles / self.sample_freq_hz


@dataclass(frozen=True)
class AnalogCore:
    """An embedded analog core and its test requirements.

    :param name: core label, e.g. ``"A"`` .. ``"E"`` in the paper.
    :param description: human-readable function, e.g.
        ``"I-Q transmit path"``.
    :param tests: the specification-based tests of the core (Table 2).
    :param resolution_bits: ADC/DAC resolution the wrapper data
        converters must provide to apply the core's tests.  The paper's
        demonstrator wrapper is 8-bit; audio cores need more, RF-adjacent
        high-speed paths tolerate less.
    :param position: optional ``(x, y)`` floorplan position in arbitrary
        units.  Used by the proximity-aware routing-overhead model; when
        absent, the representative global routing factor ``beta`` from
        the paper is used instead.
    """

    name: str
    description: str
    tests: tuple[AnalogTest, ...]
    resolution_bits: int
    position: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("core name must be non-empty")
        if not self.tests:
            raise ValueError(f"analog core {self.name!r} has no tests")
        if self.resolution_bits < 1:
            raise ValueError(
                f"resolution_bits must be >= 1, got {self.resolution_bits}"
            )
        names = [t.name for t in self.tests]
        if len(set(names)) != len(names):
            raise ValueError(
                f"analog core {self.name!r} has duplicate test names: {names}"
            )

    @property
    def total_cycles(self) -> int:
        """Total core-test-mode time, in TAM cycles, over all tests.

        Tests of one core are always applied serially through its
        wrapper, so the core's occupancy of a wrapper is the sum of its
        test lengths.
        """
        return sum(t.cycles for t in self.tests)

    @property
    def max_sample_freq_hz(self) -> float:
        """Fastest converter sampling rate any of the core's tests needs."""
        return max(t.sample_freq_hz for t in self.tests)

    @property
    def max_tam_width(self) -> int:
        """Widest TAM requirement over the core's tests.

        A wrapper's encoder/decoder must be designed for the test with
        the largest TAM width requirement (Section 3 of the paper).
        """
        return max(t.tam_width for t in self.tests)

    @property
    def max_test_power(self) -> int:
        """Largest power rating over the core's tests (0 if unrated)."""
        return max(t.power for t in self.tests)

    def test(self, name: str) -> AnalogTest:
        """Return the test called *name*.

        :raises KeyError: if the core has no such test.
        """
        for t in self.tests:
            if t.name == name:
                return t
        raise KeyError(f"analog core {self.name!r} has no test {name!r}")

    def test_resolution(self, test: AnalogTest) -> int:
        """Converter resolution *test* streams at within this core.

        A per-test override wins; otherwise the core's requirement.
        """
        if test.resolution_bits is not None:
            return test.resolution_bits
        return self.resolution_bits

    def has_identical_tests(self, other: "AnalogCore") -> bool:
        """Whether *other* has exactly the same test set and requirements.

        Cores A and B of the paper (the I-Q transmit pair) are identical
        in this sense; the sharing-combination enumeration collapses
        partitions that only differ by swapping such cores.
        """
        return (
            self.tests == other.tests
            and self.resolution_bits == other.resolution_bits
        )


@dataclass(frozen=True)
class DigitalCore:
    """An embedded digital core in ITC'02 benchmark style.

    :param name: module label, e.g. ``"Module 1"``.
    :param inputs: number of functional input terminals.
    :param outputs: number of functional output terminals.
    :param bidirs: number of functional bidirectional terminals.
    :param scan_chains: lengths of the core-internal scan chains.  An
        empty tuple means a combinational (non-scan) core.
    :param patterns: number of test patterns applied to the core.
    :param power: peak power the core draws under test (abstract units,
        the flat per-test rating of the power-constrained test
        scheduling literature; 0 = unrated, never constrained).
    """

    name: str
    inputs: int
    outputs: int
    bidirs: int
    scan_chains: tuple[int, ...]
    patterns: int
    power: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("core name must be non-empty")
        _check_non_negative("inputs", self.inputs)
        _check_non_negative("outputs", self.outputs)
        _check_non_negative("bidirs", self.bidirs)
        _check_positive("patterns", self.patterns)
        for length in self.scan_chains:
            if length <= 0:
                raise ValueError(
                    f"scan chain lengths must be positive, got {length} "
                    f"in core {self.name!r}"
                )
        if self.inputs + self.outputs + self.bidirs + len(self.scan_chains) == 0:
            raise ValueError(
                f"core {self.name!r} has no terminals and no scan chains"
            )
        _check_non_negative("power", self.power)

    @property
    def scan_flops(self) -> int:
        """Total number of scan flip-flops in the core."""
        return sum(self.scan_chains)

    @property
    def scan_inputs(self) -> int:
        """Cells loaded on a scan-in shift: inputs + bidirs + scan flops."""
        return self.inputs + self.bidirs + self.scan_flops

    @property
    def scan_outputs(self) -> int:
        """Cells unloaded on a scan-out shift: outputs + bidirs + scan flops."""
        return self.outputs + self.bidirs + self.scan_flops

    @property
    def test_data_volume(self) -> int:
        """Scan data volume in bits: patterns x (scan-in + scan-out cells).

        A width-independent proxy for the rectangle *area* the core's
        test occupies on the TAM; used for scheduling priorities and for
        test-time lower bounds.
        """
        return self.patterns * (self.scan_inputs + self.scan_outputs)

    @property
    def max_useful_width(self) -> int:
        """TAM width beyond which the core's test time cannot shrink.

        One wrapper chain per scan chain, plus the wider of the
        functional input / output cell populations spread one cell per
        wire, is the most parallelism the wrapper can exploit.
        """
        io = max(self.inputs + self.bidirs, self.outputs + self.bidirs)
        if self.scan_chains:
            return len(self.scan_chains) + io
        return max(1, io)


@dataclass(frozen=True)
class Soc:
    """A mixed-signal SOC: digital cores plus wrapped analog cores.

    :param name: SOC label, e.g. ``"p93791m"``.
    :param digital_cores: the digital modules.
    :param analog_cores: the analog modules (may be empty for a purely
        digital SOC such as the original ITC'02 p93791).
    :param power_budget: SOC-level instantaneous test-power ceiling the
        schedule must respect (``None`` = unconstrained, the default;
        only meaningful when the cores carry power ratings).
    """

    name: str
    digital_cores: tuple[DigitalCore, ...] = field(default_factory=tuple)
    analog_cores: tuple[AnalogCore, ...] = field(default_factory=tuple)
    power_budget: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SOC name must be non-empty")
        names = [c.name for c in self.digital_cores] + [
            c.name for c in self.analog_cores
        ]
        if len(set(names)) != len(names):
            raise ValueError(f"SOC {self.name!r} has duplicate core names")
        if self.power_budget is not None:
            if self.power_budget < 1:
                raise ValueError(
                    f"power_budget must be >= 1 when given, got "
                    f"{self.power_budget}"
                )
            if self.power_budget < self.max_task_power:
                raise ValueError(
                    f"power_budget {self.power_budget} is below the "
                    f"largest single task power {self.max_task_power}: "
                    f"no schedule can exist"
                )

    @property
    def n_digital(self) -> int:
        """Number of digital cores."""
        return len(self.digital_cores)

    @property
    def n_analog(self) -> int:
        """Number of analog cores."""
        return len(self.analog_cores)

    @property
    def is_mixed_signal(self) -> bool:
        """Whether the SOC contains at least one analog core."""
        return bool(self.analog_cores)

    @property
    def max_task_power(self) -> int:
        """Largest single-task power rating on the SOC (0 if unrated).

        Every feasible power budget must be at least this large: a
        digital core draws its flat rating at every operating point,
        and an analog test's rating is fixed.
        """
        digital = max((c.power for c in self.digital_cores), default=0)
        analog = max(
            (t.power for c in self.analog_cores for t in c.tests),
            default=0,
        )
        return max(digital, analog)

    @property
    def total_analog_cycles(self) -> int:
        """Sum of core-test-mode cycles over every analog core.

        Equals the analog test-time lower bound of the fully shared
        (single-wrapper) configuration, the paper's normalization
        reference for :math:`\\hat T_{LB}` in Table 1.
        """
        return sum(core.total_cycles for core in self.analog_cores)

    def digital_core(self, name: str) -> DigitalCore:
        """Return the digital core called *name*.

        :raises KeyError: if absent.
        """
        for core in self.digital_cores:
            if core.name == name:
                return core
        raise KeyError(f"SOC {self.name!r} has no digital core {name!r}")

    def analog_core(self, name: str) -> AnalogCore:
        """Return the analog core called *name*.

        :raises KeyError: if absent.
        """
        for core in self.analog_cores:
            if core.name == name:
                return core
        raise KeyError(f"SOC {self.name!r} has no analog core {name!r}")

    def with_analog_cores(self, analog_cores: tuple[AnalogCore, ...]) -> "Soc":
        """Return a copy of this SOC with *analog_cores* substituted.

        Used to craft mixed-signal SOCs out of digital benchmark SOCs,
        exactly as the paper crafts ``p93791m`` out of ITC'02 ``p93791``.
        """
        return Soc(
            name=self.name,
            digital_cores=self.digital_cores,
            analog_cores=analog_cores,
            power_budget=self.power_budget,
        )

    def with_power_budget(self, power_budget: int | None) -> "Soc":
        """Return a copy of this SOC under *power_budget* (``None``
        lifts the constraint).

        :raises ValueError: if the budget is below the largest single
            task power rating (no schedule could exist).
        """
        return Soc(
            name=self.name,
            digital_cores=self.digital_cores,
            analog_cores=self.analog_cores,
            power_budget=power_budget,
        )

    def summary(self) -> str:
        """A short multi-line human-readable description of the SOC."""
        lines = [
            f"SOC {self.name}: {self.n_digital} digital cores, "
            f"{self.n_analog} analog cores",
        ]
        if self.digital_cores:
            flops = sum(c.scan_flops for c in self.digital_cores)
            patterns = sum(c.patterns for c in self.digital_cores)
            volume = sum(c.test_data_volume for c in self.digital_cores)
            lines.append(
                f"  digital: {flops} scan flops, {patterns} patterns, "
                f"{volume} bits of scan data"
            )
        if self.analog_cores:
            tests = sum(len(c.tests) for c in self.analog_cores)
            lines.append(
                f"  analog: {tests} tests, {self.total_analog_cycles} "
                f"total TAM cycles"
            )
        if self.power_budget is not None:
            lines.append(f"  power budget: {self.power_budget}")
        return "\n".join(lines)


def distance(a: AnalogCore, b: AnalogCore) -> float:
    """Euclidean floorplan distance between two analog cores.

    :raises ValueError: if either core has no floorplan position.
    """
    if a.position is None or b.position is None:
        raise ValueError(
            f"cores {a.name!r} and {b.name!r} must both carry floorplan "
            "positions to compute a distance"
        )
    return math.dist(a.position, b.position)
