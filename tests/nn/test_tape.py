"""Tape mechanics: grad mode is per-thread."""

import threading

import numpy as np

from repro.nn import Tensor, is_grad_enabled, no_grad


class TestThreadLocalGradMode:
    def test_no_grad_on_one_thread_does_not_leak(self):
        """Regression: ``no_grad`` used to flip a process-global flag."""
        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def holder():
            with no_grad():
                inside.set()
                release.wait(timeout=10.0)

        def builder():
            inside.wait(timeout=10.0)
            x = Tensor(np.ones(3), requires_grad=True)
            y = (x * 2.0).sum()
            seen["enabled"] = is_grad_enabled()
            seen["requires_grad"] = y.requires_grad
            release.set()

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=builder)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert seen == {"enabled": True, "requires_grad": True}
        assert is_grad_enabled()

    def test_no_grad_restores_on_exit(self):
        with no_grad():
            assert not is_grad_enabled()
            x = Tensor(np.ones(2), requires_grad=True)
            assert not x.requires_grad
        assert is_grad_enabled()

