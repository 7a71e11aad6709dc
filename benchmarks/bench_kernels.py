"""Micro-benchmarks of the computational kernels.

True pytest-benchmark timing loops (many rounds) over the pieces the
planning flow spends its time in: digital wrapper design, Pareto
staircases, rectangle packing, the .soc parser, and the converter
models.  These are regression guards for performance, not paper
artifacts.
"""

import numpy as np

from repro.analog_wrapper.converters import (
    ConverterSpec,
    ModularDac,
    PipelinedModularAdc,
)
from repro.soc.itc02 import dumps, loads
from repro.tam.builder import soc_tasks
from repro.tam.packing import pack
from repro.wrapper.design import design_wrapper
from repro.wrapper.pareto import pareto_points


def test_bench_design_wrapper(benchmark, context):
    core = max(
        context.soc.digital_cores, key=lambda c: c.scan_flops
    )
    design = benchmark(design_wrapper, core, 32)
    assert design.test_time > 0


def test_bench_pareto_staircase(benchmark, context):
    core = max(
        context.soc.digital_cores, key=lambda c: c.scan_flops
    )
    points = benchmark(pareto_points, core, 64)
    assert points[0].width == 1


def test_bench_pack_w32(benchmark, context):
    tasks = soc_tasks(context.soc, 32)

    def run():
        return pack(tasks, 32, shuffles=2, improvement_passes=1)

    schedule = benchmark.pedantic(run, rounds=3, iterations=1)
    schedule.validate()
    assert schedule.makespan > 0


def test_bench_soc_parser_roundtrip(benchmark, context):
    text = dumps(context.soc)

    def roundtrip():
        return loads(text)

    soc = benchmark(roundtrip)
    assert soc == context.soc


def test_bench_adc_conversion(benchmark):
    adc = PipelinedModularAdc(ConverterSpec(8))
    signal = np.sin(np.linspace(0, 40 * np.pi, 4551))

    codes = benchmark(adc.convert, signal)
    assert len(codes) == 4551


def test_bench_dac_conversion(benchmark):
    dac = ModularDac(ConverterSpec(8))
    codes = np.random.default_rng(0).integers(0, 256, 4551)

    voltages = benchmark(dac.convert, codes)
    assert len(voltages) == 4551
