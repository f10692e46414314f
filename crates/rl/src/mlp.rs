//! A dense multi-layer perceptron with manual backpropagation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully connected network with tanh hidden activations and a linear output
/// layer, trained by explicit backpropagation.
///
/// Parameters and gradients are stored as flat `f64` vectors per layer so the
/// [`crate::Adam`] optimizer can treat the whole network as one parameter
/// vector.
///
/// The passes cost in proportion to the non-zero inputs, which matters for
/// DETERRENT's 0/1 set-membership observations. Alongside the row-major
/// weights the network keeps a transposed copy (one contiguous row of
/// output weights per input), which [`Mlp::set_parameters`] refreshes. The
/// forward pass adds each non-zero input's row to all outputs at once, and
/// the backward pass skips zero inputs and zero output gradients. Both are
/// exact for finite values: every output still sums its bias first and its
/// inputs in ascending index order, and a skipped term `w · 0.0` is a signed
/// zero, which leaves a sum unchanged (gradient sums start at `+0.0` and
/// round-to-nearest never turns them into `-0.0`).
#[derive(Debug, Clone)]
pub struct Mlp {
    layer_sizes: Vec<usize>,
    /// weights[l] has shape (out, in) stored row-major; biases[l] has len out.
    weights: Vec<Vec<f64>>,
    /// weights_t[l] is weights[l] transposed: shape (in, out), row-major.
    weights_t: Vec<Vec<f64>>,
    biases: Vec<Vec<f64>>,
    grad_weights: Vec<Vec<f64>>,
    grad_biases: Vec<Vec<f64>>,
    /// Scratch of [`Mlp::backward`]: the gradient flowing into the current
    /// layer, the one flowing out of it, and the non-zero input indices.
    grad_scratch: Vec<f64>,
    prev_grad_scratch: Vec<f64>,
    active_inputs: Vec<usize>,
}

impl Mlp {
    /// Creates a network with the given layer sizes, e.g. `&[4, 32, 32, 2]`
    /// for two hidden layers of 32 units. Weights use Xavier-style
    /// initialization from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or any size is zero.
    #[must_use]
    pub fn new(layer_sizes: &[usize], seed: u64) -> Self {
        assert!(
            layer_sizes.len() >= 2,
            "need at least input and output sizes"
        );
        assert!(
            layer_sizes.iter().all(|&s| s > 0),
            "layer sizes must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights: Vec<Vec<f64>> = Vec::new();
        let mut biases: Vec<Vec<f64>> = Vec::new();
        for w in layer_sizes.windows(2) {
            let (n_in, n_out) = (w[0], w[1]);
            let scale = (6.0 / (n_in + n_out) as f64).sqrt();
            weights.push(
                (0..n_in * n_out)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect(),
            );
            biases.push(vec![0.0; n_out]);
        }
        let grad_weights = weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let grad_biases = biases.iter().map(|b| vec![0.0; b.len()]).collect();
        let mut net = Self {
            layer_sizes: layer_sizes.to_vec(),
            weights_t: weights.clone(),
            weights,
            biases,
            grad_weights,
            grad_biases,
            grad_scratch: Vec::new(),
            prev_grad_scratch: Vec::new(),
            active_inputs: Vec::new(),
        };
        net.refresh_transposed();
        net
    }

    fn refresh_transposed(&mut self) {
        for (l, (w, wt)) in self.weights.iter().zip(&mut self.weights_t).enumerate() {
            let (n_in, n_out) = (self.layer_sizes[l], self.layer_sizes[l + 1]);
            for o in 0..n_out {
                for i in 0..n_in {
                    wt[i * n_out + o] = w[o * n_in + i];
                }
            }
        }
    }

    /// The layer sizes the network was built with (input first, output
    /// last) — together with [`Mlp::parameters`] enough to reconstruct the
    /// network exactly.
    #[must_use]
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }

    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.layer_sizes[0]
    }

    /// Output dimension.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        *self.layer_sizes.last().expect("at least two layers")
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn num_parameters(&self) -> usize {
        self.weights.iter().map(Vec::len).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// Runs a forward pass and returns the output activations.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::input_dim`].
    #[must_use]
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut acts = Vec::new();
        self.forward_full(input, &mut acts);
        acts.pop().expect("at least one layer")
    }

    /// Runs a forward pass, writing the activations of every layer
    /// (including the input) into `acts`, which [`Mlp::backward`] needs.
    /// `acts` is resized to fit and can be reused across calls without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::input_dim`].
    pub fn forward_full(&self, input: &[f64], acts: &mut Vec<Vec<f64>>) {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let num_layers = self.weights.len();
        acts.resize_with(num_layers + 1, Vec::new);
        acts[0].clear();
        acts[0].extend_from_slice(input);
        for l in 0..num_layers {
            let n_out = self.layer_sizes[l + 1];
            let (done, rest) = acts.split_at_mut(l + 1);
            let prev = &done[l];
            let out = &mut rest[0];
            out.clear();
            out.extend_from_slice(&self.biases[l]);
            for (i, &x) in prev.iter().enumerate() {
                if x != 0.0 {
                    let row = &self.weights_t[l][i * n_out..(i + 1) * n_out];
                    for (o, &w) in out.iter_mut().zip(row) {
                        *o += w * x;
                    }
                }
            }
            // tanh on hidden layers, identity on the output layer.
            if l + 1 < num_layers {
                out.iter_mut().for_each(|o| *o = o.tanh());
            }
        }
    }

    /// Accumulates gradients for one sample given the activations from
    /// [`Mlp::forward_full`] and the gradient of the loss with respect to the
    /// network output. Gradients add up until [`Mlp::zero_grad`] is called.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `activations` or `grad_output` do not match
    /// the network.
    pub fn backward(&mut self, activations: &[Vec<f64>], grad_output: &[f64]) {
        let num_layers = self.weights.len();
        assert_eq!(
            activations.len(),
            num_layers + 1,
            "activation count mismatch"
        );
        assert_eq!(grad_output.len(), self.output_dim(), "output grad mismatch");
        let mut delta = std::mem::take(&mut self.grad_scratch);
        let mut prev_grad = std::mem::take(&mut self.prev_grad_scratch);
        delta.clear();
        delta.extend_from_slice(grad_output);
        for l in (0..num_layers).rev() {
            let n_in = self.layer_sizes[l];
            let inputs = &activations[l];
            // Derivative through the activation of layer l's output.
            if l + 1 != num_layers {
                for (d, &a) in delta.iter_mut().zip(activations[l + 1].iter()) {
                    *d *= 1.0 - a * a; // d tanh(z)/dz = 1 - tanh(z)^2
                }
            }
            // Parameter gradients; the network input is sparse, so its
            // layer visits only the non-zero entries.
            if l == 0 {
                self.active_inputs.clear();
                self.active_inputs
                    .extend((0..n_in).filter(|&i| inputs[i] != 0.0));
            }
            for (o, &d) in delta.iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                self.grad_biases[l][o] += d;
                let row = &mut self.grad_weights[l][o * n_in..(o + 1) * n_in];
                if l == 0 {
                    for &i in &self.active_inputs {
                        row[i] += d * inputs[i];
                    }
                } else {
                    for (g, &x) in row.iter_mut().zip(inputs) {
                        *g += d * x;
                    }
                }
            }
            // Gradient with respect to the previous layer's activations.
            if l > 0 {
                prev_grad.clear();
                prev_grad.resize(n_in, 0.0);
                for (o, &d) in delta.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let row = &self.weights[l][o * n_in..(o + 1) * n_in];
                    for (pg, &w) in prev_grad.iter_mut().zip(row) {
                        *pg += d * w;
                    }
                }
                std::mem::swap(&mut delta, &mut prev_grad);
            }
        }
        self.grad_scratch = delta;
        self.prev_grad_scratch = prev_grad;
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad_weights {
            g.iter_mut().for_each(|x| *x = 0.0);
        }
        for g in &mut self.grad_biases {
            g.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Flattens parameters into a single vector (weights then biases, layer by
    /// layer). Used by the optimizer.
    #[must_use]
    pub fn parameters(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for (w, b) in self.weights.iter().zip(self.biases.iter()) {
            out.extend_from_slice(w);
            out.extend_from_slice(b);
        }
        out
    }

    /// Flattened gradients in the same order as [`Mlp::parameters`].
    #[must_use]
    pub fn gradients(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for (w, b) in self.grad_weights.iter().zip(self.grad_biases.iter()) {
            out.extend_from_slice(w);
            out.extend_from_slice(b);
        }
        out
    }

    /// Overwrites parameters from a flat vector produced by
    /// [`Mlp::parameters`] (after an optimizer step).
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    pub fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter count mismatch"
        );
        let mut offset = 0;
        for (w, b) in self.weights.iter_mut().zip(self.biases.iter_mut()) {
            let w_len = w.len();
            w.copy_from_slice(&params[offset..offset + w_len]);
            offset += w_len;
            let b_len = b.len();
            b.copy_from_slice(&params[offset..offset + b_len]);
            offset += b_len;
        }
        self.refresh_transposed();
    }
}

/// The dense per-sample passes the sparse ones replaced, kept as the
/// reference the equivalence tests compare against bit for bit.
#[cfg(test)]
impl Mlp {
    pub(crate) fn forward_full_reference(&self, input: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let num_layers = self.weights.len();
        let mut acts = Vec::with_capacity(num_layers + 1);
        acts.push(input.to_vec());
        for l in 0..num_layers {
            let n_in = self.layer_sizes[l];
            let n_out = self.layer_sizes[l + 1];
            let prev = &acts[l];
            let mut out = vec![0.0; n_out];
            for (o, out_val) in out.iter_mut().enumerate() {
                let row = &self.weights[l][o * n_in..(o + 1) * n_in];
                let mut sum = self.biases[l][o];
                for (w, x) in row.iter().zip(prev.iter()) {
                    sum += w * x;
                }
                *out_val = if l + 1 == num_layers { sum } else { sum.tanh() };
            }
            acts.push(out);
        }
        acts
    }

    pub(crate) fn backward_reference(&mut self, activations: &[Vec<f64>], grad_output: &[f64]) {
        let num_layers = self.weights.len();
        let mut grad = grad_output.to_vec();
        for l in (0..num_layers).rev() {
            let n_in = self.layer_sizes[l];
            let mut delta = grad.clone();
            if l + 1 != num_layers {
                for (d, &a) in delta.iter_mut().zip(activations[l + 1].iter()) {
                    *d *= 1.0 - a * a;
                }
            }
            for (o, &d) in delta.iter().enumerate() {
                self.grad_biases[l][o] += d;
                let row = &mut self.grad_weights[l][o * n_in..(o + 1) * n_in];
                for (i, g) in row.iter_mut().enumerate() {
                    *g += d * activations[l][i];
                }
            }
            if l > 0 {
                let mut prev_grad = vec![0.0; n_in];
                for (o, &d) in delta.iter().enumerate() {
                    let row = &self.weights[l][o * n_in..(o + 1) * n_in];
                    for (i, pg) in prev_grad.iter_mut().enumerate() {
                        *pg += d * row[i];
                    }
                }
                grad = prev_grad;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// An input of `width` entries: 0/1 membership flags, dense reals, or
    /// all zeros, by `kind`.
    fn input_of(kind: u8, width: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..width)
            .map(|_| match kind {
                0 => f64::from(u8::from(rng.gen_range(0.0..1.0) < 0.2)),
                1 => rng.gen_range(-1.5..1.5),
                _ => 0.0,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sparse passes reproduce the dense reference bit for bit:
        /// activations, and gradients accumulated over several samples
        /// (some of whose output gradients are exact zeros, as a masked
        /// policy's are).
        #[test]
        fn sparse_passes_match_dense_reference(
            seed in any::<u64>(),
            n_in in 1usize..40,
            hidden in 1usize..12,
            n_out in 1usize..20,
            kind in 0u8..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = Mlp::new(&[n_in, hidden, hidden, n_out], seed);
            // Non-zero biases, as after training.
            let params: Vec<f64> = net
                .parameters()
                .iter()
                .map(|p| p + rng.gen_range(-0.1..0.1))
                .collect();
            net.set_parameters(&params);
            let mut reference = net.clone();
            let mut acts = Vec::new();
            for _ in 0..4 {
                let input = input_of(kind, n_in, &mut rng);
                let expected = reference.forward_full_reference(&input);
                net.forward_full(&input, &mut acts);
                prop_assert_eq!(acts.len(), expected.len());
                for (got, want) in acts.iter().zip(&expected) {
                    prop_assert_eq!(bits(got), bits(want));
                }
                let grad_out: Vec<f64> = (0..n_out)
                    .map(|_| if rng.gen_range(0.0..1.0) < 0.3 { 0.0 } else { rng.gen_range(-1.0..1.0) })
                    .collect();
                reference.backward_reference(&expected, &grad_out);
                net.backward(&acts, &grad_out);
                prop_assert_eq!(bits(&net.gradients()), bits(&reference.gradients()));
            }
            let input = input_of(kind, n_in, &mut rng);
            let expected = reference.forward_full_reference(&input);
            prop_assert_eq!(bits(&net.forward(&input)), bits(&expected[3]));
        }
    }

    #[test]
    fn shapes_and_parameter_count() {
        let net = Mlp::new(&[3, 8, 2], 1);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.num_parameters(), 3 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(net.forward(&[0.1, -0.2, 0.3]).len(), 2);
    }

    #[test]
    fn parameters_round_trip() {
        let mut net = Mlp::new(&[2, 4, 1], 3);
        let p = net.parameters();
        let out_before = net.forward(&[0.5, -0.5]);
        let mut p2 = p.clone();
        p2[0] += 0.1;
        net.set_parameters(&p2);
        assert_ne!(net.forward(&[0.5, -0.5]), out_before);
        net.set_parameters(&p);
        assert_eq!(net.forward(&[0.5, -0.5]), out_before);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut net = Mlp::new(&[3, 5, 2], 42);
        let input = [0.3, -0.7, 0.2];
        // Loss = sum of squared outputs.
        let mut acts = Vec::new();
        net.forward_full(&input, &mut acts);
        let out = acts.last().unwrap().clone();
        let grad_out: Vec<f64> = out.iter().map(|&o| 2.0 * o).collect();
        net.zero_grad();
        net.backward(&acts, &grad_out);
        let analytic = net.gradients();

        let params = net.parameters();
        let eps = 1e-6;
        let loss = |net: &Mlp| -> f64 { net.forward(&input).iter().map(|o| o * o).sum() };
        for idx in [0usize, 3, 10, params.len() - 1, params.len() / 2] {
            let mut plus = params.clone();
            plus[idx] += eps;
            let mut minus = params.clone();
            minus[idx] -= eps;
            let mut net_p = net.clone();
            net_p.set_parameters(&plus);
            let mut net_m = net.clone();
            net_m.set_parameters(&minus);
            let numeric = (loss(&net_p) - loss(&net_m)) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 1e-5,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut net = Mlp::new(&[2, 3, 1], 5);
        let mut acts = Vec::new();
        net.forward_full(&[1.0, -1.0], &mut acts);
        net.backward(&acts, &[1.0]);
        let g1 = net.gradients();
        net.backward(&acts, &[1.0]);
        let g2 = net.gradients();
        for (a, b) in g1.iter().zip(g2.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-12);
        }
        net.zero_grad();
        assert!(net.gradients().iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dim_panics() {
        let net = Mlp::new(&[2, 2], 0);
        let _ = net.forward(&[1.0]);
    }

    #[test]
    fn deterministic_init_given_seed() {
        let a = Mlp::new(&[4, 8, 3], 9);
        let b = Mlp::new(&[4, 8, 3], 9);
        assert_eq!(a.parameters(), b.parameters());
        let c = Mlp::new(&[4, 8, 3], 10);
        assert_ne!(a.parameters(), c.parameters());
    }
}
