"""Where a taped step of the default model holds and peaks its memory.

    PYTHONPATH=src python tools/step_memory.py [--train-rows 64] [--frozen-rows 4]
        [--seed 0]

Two steps of a random-init default-size model, each after one warm-up step
that fills the model's caches:

- one trainable training step (``_mc_loss`` on ``--train-rows`` random
  images and captions at one timestep), as ``train`` runs it: in parts of
  at most ``TRAIN_ROWS`` rows, one tape and one backward each, with the
  parts' gradients summed;
- one frozen ``total_loss`` pass of danp on ``--frozen-rows`` images at one
  timestep, as the immunize stage runs it.

For each part, tracemalloc gives the memory held once its forward returns
(what the tape keeps for backward, plus the gradients the earlier parts
summed), the forward's peak and the backward's peak; then the step's peak
over every part; then, for each backward node of the first part in the order
``Tape.backward`` runs them, the op name, the memory held after the node and
the peak within it. All figures are MiB allocated since the step began. The
held figure is read as the sweep pops the next node, so it still counts the
output gradient the node consumed, which the sweep drops just after. The
probe keeps each node's op name only, never the node: a reference to a node
would keep its vjp closure, and every array the closure holds, alive past
its run.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

import numpy as np

_MIB = 1024.0 * 1024.0


class _NodeProbe(list):
    """A tape's node list that records memory as Tape.backward pops it.

    Each pop starts the next node and so closes the one before: the memory
    held then is what that node left, and the peak since the previous pop
    is the peak within it.
    """

    def __init__(self, nodes, names):
        super().__init__(nodes)
        self.names = names
        self.rows = []
        self.last = None

    def close(self):
        if self.last is not None:
            held, peak = tracemalloc.get_traced_memory()
            self.rows.append((self.last, held, peak))
        self.last = None

    def pop(self):
        self.close()
        tracemalloc.reset_peak()
        node = super().pop()
        self.last = self.names.get(node.out, "?")
        return node


def _profile(run_step):
    """Run one step to warm the model's caches, then one under tracemalloc.

    run_step() runs the step's taped parts, one Tape.backward each. Returns
    one (held, forward peak, rows) per part, rows holding one (op, held,
    peak) per backward node, in bytes allocated since the step began.
    """
    from imukit import autodiff as ad

    run_step()
    # name each taped output by its op while the forward runs; the primitives
    # look _finish up in the module, so a wrapper there sees every op
    names = {}
    finish = ad._finish
    backward = ad.Tape.backward
    parts = []

    def named_finish(op, out_arr, parents, vjp, check=True):
        out = finish(op, out_arr, parents, vjp, check)
        if out.key is not None:
            names[out.key] = op
        return out

    def probed_backward(tape, root):
        held, fwd_peak = tracemalloc.get_traced_memory()
        probe = _NodeProbe(tape.nodes, names)
        tape.nodes = probe
        grads = backward(tape, root)
        probe.close()
        parts.append((held, fwd_peak, probe.rows))
        # the next part's forward peak starts here
        tracemalloc.reset_peak()
        return grads

    ad._finish = named_finish
    ad.Tape.backward = probed_backward
    tracemalloc.start()
    try:
        run_step()
    finally:
        tracemalloc.stop()
        ad._finish = finish
        ad.Tape.backward = backward
    return parts


def _report(label, parts):
    print(label)
    step_peak = 0
    for i, (held, fwd_peak, rows) in enumerate(parts):
        bwd_peak = max(peak for _, _, peak in rows)
        step_peak = max(step_peak, fwd_peak, bwd_peak)
        print(f"  part {i}: held after forward {held / _MIB:8.2f} MiB    "
              f"forward peak {fwd_peak / _MIB:8.2f} MiB    "
              f"backward peak {bwd_peak / _MIB:8.2f} MiB    "
              f"above held {(bwd_peak - held) / _MIB:6.2f} MiB")
    print(f"  step peak {step_peak / _MIB:8.2f} MiB")
    print("  backward nodes of part 0:")
    print(f"  {'#':>3}  {'op':<19} {'held MiB':>9} {'peak MiB':>9}")
    for i, (op, after, peak) in enumerate(parts[0][2]):
        print(f"  {i:>3}  {op:<19} {after / _MIB:>9.2f} {peak / _MIB:>9.2f}")


def _default_model(seed):
    from imukit.diffusion.model import DenoiserModel, ModelConfig
    from imukit.diffusion.schedule import build_schedule

    return DenoiserModel.init(ModelConfig(), seed=seed, schedule=build_schedule(50))


def train_step(rows, seed):
    """One trainable step on random images and caption ids, as train runs it:
    _mc_loss in parts of at most TRAIN_ROWS rows, their gradients summed."""
    from imukit.diffusion.training import _step_grads

    model = _default_model(seed)
    model.set_trainable(True)
    cfg = model.config
    rng = np.random.default_rng(seed)
    size = cfg.image_size
    xs = rng.random((rows, size, size, cfg.in_channels), dtype=np.float32)
    ids = rng.integers(1, cfg.vocab, size=(rows, cfg.max_tokens))
    eps = rng.standard_normal(xs.shape).astype(np.float32)
    return _profile(lambda: _step_grads(model, xs, ids, 25, eps, 1))


def frozen_pass(rows, seed):
    """One frozen danp total_loss pass, as the attack runs it."""
    from imukit.attack import total_loss
    from imukit.autodiff import Tape, Tensor

    model = _default_model(seed)
    model.set_trainable(False)
    cfg = model.config
    rng = np.random.default_rng(seed)
    prompt = model.encode_prompt(rng.integers(1, cfg.vocab, size=cfg.max_tokens))
    size = cfg.image_size
    x0 = rng.random((rows, size, size, cfg.in_channels), dtype=np.float32)
    eps = rng.standard_normal(x0.shape).astype(np.float32)

    def run_step():
        with Tape() as tape:
            delta = Tensor(np.full(x0.shape, 0.01, dtype=np.float32), requires_grad=True)
            loss, _ = total_loss(x0, delta, model, [prompt] * rows, 25, eps)
        tape.backward(loss)

    return _profile(run_step)


def main(argv=None):
    from imukit.diffusion.training import TRAIN_ROWS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--train-rows", type=int, default=64)
    parser.add_argument("--frozen-rows", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    _report(f"trainable training step, B={args.train_rows} in parts of "
            f"at most {TRAIN_ROWS} rows", train_step(args.train_rows, args.seed))
    print()
    _report(f"frozen danp total_loss pass, B={args.frozen_rows}",
            frozen_pass(args.frozen_rows, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
