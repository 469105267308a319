//! The Adam optimizer with one state record per parameter tensor.
//!
//! Every network of the framework trains with the same hyper-parameters
//! (the PyTorch defaults with a 1e-2 learning rate), so they are
//! constants rather than a configuration.

/// Learning rate.
const LR: f32 = 1e-2;
/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical-stability epsilon.
const EPS: f32 = 1e-8;

/// Per-tensor Adam state (first/second moment estimates).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamState {
    /// State for a tensor of `len` scalars.
    pub fn new(len: usize) -> Self {
        AdamState {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    /// Fresh states for a layer's weights `w` and bias `b`.
    pub(crate) fn for_layer(w: &crate::Matrix, b: &[f32]) -> (Self, Self) {
        (AdamState::new(w.rows() * w.cols()), AdamState::new(b.len()))
    }

    /// One Adam update of `param` with gradient `grad`.
    ///
    /// Subnormal moment estimates are flushed to zero. Once a parameter's
    /// gradient goes quiet (ReLU-dead units, sparse features), its moments
    /// decay geometrically into the subnormal range and then *stay* there:
    /// `beta * min_subnormal` rounds back to `min_subnormal`, so without
    /// the flush every later step pays the hardware's ~100-cycle subnormal
    /// penalty on four ops per element — in practice a >20x slowdown of
    /// the whole optimizer. A subnormal moment contributes at most ~1e-31
    /// to the parameter update (invisible at `f32` precision for any
    /// live weight), so flushing only snaps a value that was already
    /// numerically dead.
    ///
    /// # Panics
    ///
    /// Panics if `param`, `grad`, and the state disagree on length.
    pub fn step(&mut self, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        assert_eq!(param.len(), self.m.len(), "state length mismatch");
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..param.len() {
            let m = BETA1 * self.m[i] + (1.0 - BETA1) * grad[i];
            let v = BETA2 * self.v[i] + (1.0 - BETA2) * grad[i] * grad[i];
            let m = if m.abs() < f32::MIN_POSITIVE { 0.0 } else { m };
            let v = if v < f32::MIN_POSITIVE { 0.0 } else { v };
            self.m[i] = m;
            self.v[i] = v;
            let mhat = m / b1t;
            let vhat = v / b2t;
            param[i] -= LR * mhat / (vhat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize f(x) = (x - 3)^2 from x = 0. Adam moves about LR per
        // step, so 3 / LR steps cover the distance; the rest settle.
        let mut st = AdamState::new(1);
        let mut x = [0.0f32];
        for _ in 0..5_000 {
            let g = [2.0 * (x[0] - 3.0)];
            st.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        let mut st = AdamState::new(1);
        let mut x = [1.0f32];
        st.step(&mut x, &[123.0]);
        // Adam's bias-corrected first step is ≈ lr regardless of grad scale.
        assert!((1.0 - x[0] - LR).abs() < 1e-4, "{}", x[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_checked() {
        AdamState::new(2).step(&mut [0.0], &[0.0]);
    }
}
