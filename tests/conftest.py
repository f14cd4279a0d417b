"""Shared fixtures: small kernels and session-cached analysis contexts.

Tests use reduced problem sizes (the algorithms are size-independent);
contexts are session-scoped because gain extraction is the expensive
step and every accuracy/flow test needs one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.flows import AnalysisContext
from repro.ir import ProgramBuilder, loop_index
from repro.kernels import conv2d, fir, iir, kernel_catalog

#: A larger example budget for property tests that take it from the
#: active profile (``pytest --hypothesis-profile=thorough``); tier-1
#: runs Hypothesis' default budget.
settings.register_profile("thorough", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def small_fir():
    """16-tap FIR over 64 samples (same shape as the paper's, smaller)."""
    return fir(n_samples=64, n_taps=16)


@pytest.fixture(scope="session")
def small_iir():
    """4th-order IIR over 256 samples."""
    return iir(n_samples=256, order=4)


@pytest.fixture(scope="session")
def small_conv():
    """3x3 convolution over a 18x18 image."""
    return conv2d(height=18, width=18)


@pytest.fixture(scope="session")
def fir_context(small_fir) -> AnalysisContext:
    return AnalysisContext.build(small_fir)


@pytest.fixture(scope="session")
def iir_context(small_iir) -> AnalysisContext:
    return AnalysisContext.build(small_iir)


@pytest.fixture(scope="session")
def conv_context(small_conv) -> AnalysisContext:
    return AnalysisContext.build(small_conv)


@pytest.fixture(scope="session")
def shipped_contexts(fir_context, iir_context, conv_context):
    """Contexts of every catalog kernel, the paper's three at test size."""
    contexts = {"fir": fir_context, "iir": iir_context, "conv": conv_context}
    for name, (factory, _description) in kernel_catalog().items():
        if name not in contexts:
            contexts[name] = AnalysisContext.build(factory())
    return contexts


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def build_tiny_accumulate(n: int = 8) -> "ProgramBuilder":
    """A minimal accumulate kernel used by several unit tests."""
    builder = ProgramBuilder("tiny")
    x = builder.input_array("x", (n,), value_range=(-1.0, 1.0))
    y = builder.output_array("y", (1,))
    acc = builder.scalar("acc")
    with builder.block("init"):
        builder.setvar(acc, builder.const(0.0))
    with builder.loop("i", n):
        with builder.block("body"):
            v = builder.load(x, loop_index("i"))
            builder.setvar(acc, builder.add(builder.getvar(acc), v))
    with builder.block("fin"):
        builder.store(y, 0, builder.getvar(acc))
    return builder.build()


@pytest.fixture()
def tiny_program():
    return build_tiny_accumulate()
