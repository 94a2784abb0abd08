"""Extension: the applications beyond EM3D, timed end-to-end.

These compose the measured primitives at application scale: sample
sort (all_gather splitters + signaling-store counts + pull-based bulk
all-to-all), conjugate gradient (ghost exchange + all_reduce per
iteration), transpose (tile all-to-all), and the two histogram
variants (correct AM increments vs the racy read-modify-write).
"""

import pytest

from repro.apps.cg import run_cg
from repro.apps.fft import naive_dft, run_fft, bit_reverse_index
from repro.apps.histogram import run_histogram
from repro.apps.samplesort import run_sample_sort
from repro.apps.stencil import run_stencil
from repro.apps.transpose import run_transpose
from repro.machine.machine import Machine
from repro.params import t3d_machine_params


def fresh(shape=(2, 2, 1)):
    return Machine(t3d_machine_params(shape))


def run_suite():
    out = {}
    sort_bulk = run_sample_sort(fresh(), keys_per_pe=64, method="bulk")
    sort_elem = run_sample_sort(fresh(), keys_per_pe=64,
                                method="element")
    out["sort bulk (us)"] = sort_bulk.us_total
    out["sort element (us)"] = sort_elem.us_total
    out["sort correct"] = float(
        sort_bulk.sorted_keys == sorted(sort_bulk.sorted_keys))

    cg = run_cg(fresh(), rows_per_pe=8)
    out["cg (us)"] = cg.us_total
    out["cg iterations"] = float(cg.iterations)
    out["cg residual"] = cg.residual

    tr_bulk = run_transpose(fresh(), 16, "bulk")
    tr_reads = run_transpose(fresh(), 16, "reads")
    out["transpose bulk (us)"] = tr_bulk.us_total
    out["transpose reads (us)"] = tr_reads.us_total

    stencil_bulk = run_stencil(fresh(), cells_per_pe=32, steps=4,
                               sync_style="bulk_synchronous")
    stencil_msg = run_stencil(fresh(), cells_per_pe=32, steps=4,
                              sync_style="message_driven")
    out["stencil barrier (us/step)"] = stencil_bulk.us_per_step
    out["stencil msg-driven (us/step)"] = stencil_msg.us_per_step

    hist = run_histogram(fresh(), num_bins=16, samples_per_pe=40,
                         method="am")
    racy = run_histogram(fresh(), num_bins=16, samples_per_pe=40,
                         method="racy")
    out["histogram AM lost"] = float(hist.lost_updates)
    out["histogram racy lost"] = float(racy.lost_updates)

    fft = run_fft(fresh(), points_per_pe=16)
    out["fft (us)"] = fft.us_total
    from random import Random
    rng = Random(5)
    data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(64)]
    dft = naive_dft(data)
    worst = max(abs(fft.output[bit_reverse_index(k, 6)] - dft[k])
                for k in range(64))
    out["fft max error"] = worst
    return out


def test_ext_applications():
    out = run_suite()

    assert out["sort correct"] == 1.0
    assert out["sort bulk (us)"] < out["sort element (us)"]
    assert out["cg residual"] < 1e-9
    assert out["transpose bulk (us)"] < out["transpose reads (us)"]
    assert out["stencil msg-driven (us/step)"] <= \
        out["stencil barrier (us/step)"] * 1.05
    assert out["histogram AM lost"] == 0.0
    assert out["histogram racy lost"] > 0.0
    assert out["fft max error"] < 1e-9
