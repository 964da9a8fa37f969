"""From-scratch residual CNN: layers, model, training loop, metrics."""
