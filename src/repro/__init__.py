"""repro — a from-scratch reproduction of "Empirical Evaluation of the
CRAY-T3D: A Compiler Perspective" (Arpaci, Culler, Krishnamurthy,
Steinberg, Yelick; ISCA 1995).

The package rebuilds the paper's entire experimental apparatus as a
calibrated performance model:

* :mod:`repro.params` — every constant, cited to the paper;
* :mod:`repro.node` — the Alpha 21064 node memory system;
* :mod:`repro.shell` — the T3D shell units;
* :mod:`repro.network` — the 3-D torus;
* :mod:`repro.machine` — the assembled machine and SPMD execution;
* :mod:`repro.splitc` — the Split-C runtime and the measurement-driven
  "compiler";
* :mod:`repro.microbench` — the gray-box probe suite and analyzer;
* :mod:`repro.apps` — EM3D and the other applications;
* :mod:`repro.reporting` — the experiment registry behind
  EXPERIMENTS.md.

Quick start::

    from repro.machine.machine import Machine
    from repro.params import t3d_machine_params
    from repro.splitc import GlobalPtr, run_splitc

    machine = Machine(t3d_machine_params((2, 2, 1)))

    def program(sc):
        base = sc.all_alloc(8)
        sc.write(GlobalPtr((sc.my_pe + 1) % sc.num_pes, base), sc.my_pe)
        yield from sc.barrier()
        return sc.ctx.local_read(base)

    results, _ = run_splitc(machine, program)

See README.md, DESIGN.md, docs/ and EXPERIMENTS.md.
"""

__version__ = "1.19.0"

__all__ = ["__version__"]
