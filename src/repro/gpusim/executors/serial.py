"""The serial executor: every CTA simulated in the calling process."""

from __future__ import annotations


from repro.gpusim.executors.base import CtaRow, ExecutorBase
from repro.gpusim.launch import PreparedLaunch


class SerialExecutor(ExecutorBase):
    """Execute every CTA of a launch in-process, in launch order.

    This is the reference strategy: functional launches run every CTA,
    performance-mode launches run the stratified sample, and either the
    compiled execution plan or the IR-interpreter oracle does the per-CTA
    work (the settings' ``engine``).  The pooled executor defines itself against this
    class -- any launch the pool cannot take runs exactly this body.
    """

    def execute(self, prepared: PreparedLaunch) -> list[CtaRow]:
        return [self.run_one_cta(prepared, linear) for linear in prepared.cta_ids]
