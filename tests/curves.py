"""Per-epoch loss curves, recorded from outside the package.

A training history holds only what the report reads, so tests that look
at a whole curve record it by wrapping the epoch and validation
callables that ``nn.run_training_loop`` receives.
"""

from qregions import nn


def record_loss_curves(monkeypatch) -> list:
    """Patch ``nn.run_training_loop`` so that each training run appends
    its ``(train_losses, val_losses)`` lists, in training order, to the
    list this returns; the wrapped callables return what they wrapped."""
    curves = []
    real = nn.run_training_loop

    def recording(params, run_epoch, val_loss, max_epochs, patience):
        train_losses, val_losses = [], []
        curves.append((train_losses, val_losses))

        def recorded_epoch():
            train_losses.append(run_epoch())
            return train_losses[-1]

        def recorded_val_loss():
            val_losses.append(val_loss())
            return val_losses[-1]

        return real(params, recorded_epoch, recorded_val_loss, max_epochs, patience)

    monkeypatch.setattr(nn, "run_training_loop", recording)
    return curves
