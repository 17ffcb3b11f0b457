"""Brute-force oracles: direct python-loop summation, no vectorized reuse.

These mirror the layer definitions (not the implementations) so tests can
compare the fast numpy paths against independently accumulated values.
"""

import math

import numpy as np


def conv1x1(x, w, b):
    n_, c_in, t_, v_ = x.shape
    c_out = w.shape[0]
    out = np.zeros((n_, c_out, t_, v_))
    for n in range(n_):
        for o in range(c_out):
            for t in range(t_):
                for v in range(v_):
                    acc = b[o]
                    for c in range(c_in):
                        acc += w[o, c, 0, 0] * x[n, c, t, v]
                    out[n, o, t, v] = acc
    return out


def conv_temporal(x, w, b, stride=1, dilation=1, pad=0):
    n_, c_in, t_, v_ = x.shape
    c_out, _, k_t, _ = w.shape
    tp = t_ + 2 * pad
    xp = np.zeros((n_, c_in, tp, v_))
    xp[:, :, pad:pad + t_] = x
    t_out = (tp - dilation * (k_t - 1) - 1) // stride + 1
    out = np.zeros((n_, c_out, t_out, v_))
    for n in range(n_):
        for o in range(c_out):
            for t in range(t_out):
                for v in range(v_):
                    acc = b[o]
                    for c in range(c_in):
                        for kt in range(k_t):
                            acc += (w[o, c, kt, 0]
                                    * xp[n, c, t * stride + kt * dilation, v])
                    out[n, o, t, v] = acc
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    n_, c_, t_, v_ = x.shape
    out = np.zeros_like(x)
    count = c_ * t_ * v_
    for n in range(n_):
        total = 0.0
        for c in range(c_):
            for t in range(t_):
                for v in range(v_):
                    total += x[n, c, t, v]
        mean = total / count
        sq = 0.0
        for c in range(c_):
            for t in range(t_):
                for v in range(v_):
                    sq += (x[n, c, t, v] - mean) ** 2
        ivar = 1.0 / math.sqrt(sq / count + eps)
        for c in range(c_):
            for t in range(t_):
                for v in range(v_):
                    out[n, c, t, v] = (gamma[c] * (x[n, c, t, v] - mean) * ivar
                                       + beta[c])
    return out


def batch_norm_eval(x, gamma, beta, rmean, rvar, eps=1e-5):
    out = np.zeros_like(x)
    n_, c_, t_, v_ = x.shape
    for c in range(c_):
        ivar = 1.0 / math.sqrt(rvar[c] + eps)
        for n in range(n_):
            for t in range(t_):
                for v in range(v_):
                    out[n, c, t, v] = (gamma[c] * (x[n, c, t, v] - rmean[c])
                                       * ivar + beta[c])
    return out


def batch_norm_train(x, gamma, beta, eps=1e-5):
    n_, c_, t_, v_ = x.shape
    count = n_ * t_ * v_
    out = np.zeros_like(x)
    for c in range(c_):
        total = 0.0
        for n in range(n_):
            for t in range(t_):
                for v in range(v_):
                    total += x[n, c, t, v]
        mean = total / count
        sq = 0.0
        for n in range(n_):
            for t in range(t_):
                for v in range(v_):
                    sq += (x[n, c, t, v] - mean) ** 2
        ivar = 1.0 / math.sqrt(sq / count + eps)
        for n in range(n_):
            for t in range(t_):
                for v in range(v_):
                    out[n, c, t, v] = (gamma[c] * (x[n, c, t, v] - mean) * ivar
                                       + beta[c])
    return out


def subset_mask(sub, x, disable="none"):
    n_, _, t_, v_ = x.shape
    cm = sub.c_inter
    learned = np.zeros((n_, cm, v_, v_))
    if sub.branches in ("hybrid", "rd") and disable != "rd":
        f = layer_norm(conv1x1(x, sub.rd.w.data, sub.rd.b.data),
                       sub.rd.gamma.data, sub.rd.beta.data)
        for n in range(n_):
            for c in range(cm):
                fbar = [sum(f[n, c, t, v] for t in range(t_)) / t_
                        for v in range(v_)]
                for i in range(v_):
                    for j in range(v_):
                        learned[n, c, i, j] += math.tanh(fbar[i] - fbar[j])
    if sub.branches in ("hybrid", "ra") and disable != "ra":
        scale = float(sub.alpha.data) if sub.branches == "hybrid" else 1.0
        f = layer_norm(conv1x1(x, sub.ra.w.data, sub.ra.b.data),
                       sub.ra.gamma.data, sub.ra.beta.data)
        for n in range(n_):
            for c in range(cm):
                for i in range(v_):
                    for j in range(v_):
                        dot = sum(f[n, c, t, i] * f[n, c, t, j]
                                  for t in range(t_))
                        learned[n, c, i, j] += scale * math.tanh(dot)
    a_fin = learned + sub.a_base.data[None, None]
    if sub.extension_conv:
        return conv1x1(a_fin, sub.ext_w.data, sub.ext_b.data)
    mask = np.zeros((n_, 1, v_, v_))
    for n in range(n_):
        for i in range(v_):
            for j in range(v_):
                mask[n, 0, i, j] = sum(a_fin[n, c, i, j]
                                       for c in range(cm)) / cm
    return mask


def spatial_attention(layer, x, disable="none"):
    total = None
    for sub in layer.subsets:
        mask = subset_mask(sub, x, disable)
        val = conv1x1(x, sub.val_w.data, sub.val_b.data)
        n_, c_out, t_, v_ = val.shape
        y = np.zeros_like(val)
        for n in range(n_):
            for c in range(c_out):
                mc = mask[n, c if mask.shape[1] > 1 else 0]
                for t in range(t_):
                    for i in range(v_):
                        y[n, c, t, i] = sum(mc[i, j] * val[n, c, t, j]
                                            for j in range(v_))
        total = y if total is None else total + y
    return total


def temporal_multiscale_eval(layer, x):
    outs = []
    for br in layer.branches:
        y = conv1x1(x, br.reduce_w.data, br.reduce_b.data)
        y = batch_norm_eval(y, br.bn_mid.gamma.data, br.bn_mid.beta.data,
                            br.bn_mid.running_mean, br.bn_mid.running_var)
        y = np.where(y > 0, y, 0.0)
        y = conv_temporal(y, br.conv_w.data, br.conv_b.data,
                          stride=br.stride, dilation=br.dilation,
                          pad=br.dilation)
        y = batch_norm_eval(y, br.bn_out.gamma.data, br.bn_out.beta.data,
                            br.bn_out.running_mean, br.bn_out.running_var)
        outs.append(y)
    return np.concatenate(outs, axis=1)


def randomize_layer(layer, rng, var_floor=0.3):
    """Move params and running stats away from init so oracles bite."""
    for _, p in layer.named_params():
        p.data[...] = rng.standard_normal(p.data.shape) * 0.6
    for name, buf in layer.named_buffers():
        if name.endswith("running_var"):
            buf[...] = rng.random(buf.shape) + var_floor
        else:
            buf[...] = rng.standard_normal(buf.shape) * 0.3


# -- vectorized reference formulas ----------------------------------------------
# The straightforward numpy expressions of the norm ops and their gradients.
# The engine's kernels reuse temporaries and compute the statistics
# themselves but keep every operation and its order, so tests hold them to
# these bit for bit.


def batch_norm_formula(x, gamma, beta, g, running=None, eps=1e-5):
    """(out, dx, dgamma, dbeta, mean, var) of batch norm for upstream g;
    batch statistics unless ``running=(mean, var)`` is given."""
    axes = (0, 2, 3)
    n_, c_, t_, v_ = x.shape
    count = n_ * t_ * v_
    shape = (1, c_, 1, 1)
    if running is None:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
    else:
        mean, var = running
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean.reshape(shape)) * ivar.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dxhat = g * gamma.reshape(shape)
    if running is None:
        dx = (ivar.reshape(shape) / count) * (
            count * dxhat
            - dxhat.sum(axis=axes, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
    else:
        dx = dxhat * ivar.reshape(shape)
    return out, dx, dgamma, dbeta, mean, var


def layer_norm_formula(x, gamma, beta, g, eps=1e-5):
    """(out, dx, dgamma, dbeta) of layer norm for upstream g."""
    axes = (1, 2, 3)
    shape = (1, x.shape[1], 1, 1)
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * ivar
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    dgamma = (g * xhat).sum(axis=(0, 2, 3))
    dbeta = g.sum(axis=(0, 2, 3))
    dxhat = g * gamma.reshape(shape)
    dx = ivar * (dxhat
                 - dxhat.mean(axis=axes, keepdims=True)
                 - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True))
    return out, dx, dgamma, dbeta
