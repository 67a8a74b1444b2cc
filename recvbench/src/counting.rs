//! A counting [`LinearOperator`] decorator: forwards every method —
//! including the batch, scratch and `_into` variants — to the wrapped
//! operator, so the same kernels run, and counts forward and adjoint
//! applications.

use std::cell::Cell;

use hybridcs_solver::LinearOperator;

pub struct Counting<'a> {
    inner: &'a dyn LinearOperator,
    /// Forward applications (a batch call counts once).
    pub forward: Cell<u64>,
    /// Adjoint applications (a batch call counts once).
    pub adjoint: Cell<u64>,
}

impl<'a> Counting<'a> {
    pub fn new(inner: &'a dyn LinearOperator) -> Self {
        Counting {
            inner,
            forward: Cell::new(0),
            adjoint: Cell::new(0),
        }
    }

    fn forward_call(&self) {
        self.forward.set(self.forward.get() + 1);
    }

    fn adjoint_call(&self) {
        self.adjoint.set(self.adjoint.get() + 1);
    }
}

impl LinearOperator for Counting<'_> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.forward_call();
        self.inner.apply(x, out);
    }

    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]) {
        self.adjoint_call();
        self.inner.apply_adjoint(y, out);
    }

    fn scratch_len(&self) -> usize {
        self.inner.scratch_len()
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        self.forward_call();
        self.inner.apply_into(x, out, scratch);
    }

    fn apply_adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        self.adjoint_call();
        self.inner.apply_adjoint_into(y, out, scratch);
    }

    fn batch_scratch_len(&self, k: usize) -> usize {
        self.inner.batch_scratch_len(k)
    }

    fn apply_batch_into(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.forward_call();
        self.inner.apply_batch_into(x_panel, k, out_panel, scratch);
    }

    fn apply_adjoint_batch_into(
        &self,
        y_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.adjoint_call();
        self.inner
            .apply_adjoint_batch_into(y_panel, k, out_panel, scratch);
    }

    fn is_orthonormal(&self) -> bool {
        self.inner.is_orthonormal()
    }

    fn norm_est(&self) -> f64 {
        self.inner.norm_est()
    }
}

#[cfg(test)]
mod tests {
    use crate::inputs::{streams, Shape};
    use crate::ledger::{replay_pdhg, Replay};

    /// The decorator changes no bit of a batched or serial solve.
    #[test]
    fn counting_solves_are_bit_identical() {
        let shape = Shape::build(64).expect("shape");
        let ids = [1, 2, 3];
        let s = streams(&shape, &ids, 1, 1, 5).expect("streams");
        let windows: Vec<_> = s.iter().map(|st| &st.encoded[0]).collect();
        let replay = Replay::new(&shape.system, &shape.codec).expect("replay");
        let options = hybridcs_solver::PdhgOptions {
            max_iterations: 40,
            ..hybridcs_solver::PdhgOptions::default()
        };
        for k in [1, 3] {
            let plain = replay_pdhg(&replay, &windows[..k], &options, false).expect("plain");
            let counted = replay_pdhg(&replay, &windows[..k], &options, true).expect("counted");
            assert_eq!(plain.signals.len(), k);
            for (a, b) in plain.signals.iter().zip(&counted.signals) {
                let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "k = {k}");
            }
            // PDHG applies Φ and Φᵀ once per iteration (plus the final
            // residual's forward application).
            let calls = counted.forward + counted.adjoint;
            assert!(calls >= 2 * 40, "k = {k}: {calls} calls");
            assert!(calls <= 2 * 40 + 4, "k = {k}: {calls} calls");
        }
    }
}
