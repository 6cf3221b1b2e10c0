//! Uniform random contacts — the paper's randomized adversary as a workload.

use doda_adversary::RandomizedAdversary;
use doda_core::InteractionSource;

use crate::Workload;

/// Uniformly random pairwise contacts over `n` nodes: every pair occurs
/// with probability `2 / (n(n−1))` at every time step, exactly the
/// randomized adversary of Section 4, whose source this workload hands
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformWorkload {
    n: usize,
}

impl UniformWorkload {
    /// Creates the workload over `n ≥ 2` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        UniformWorkload { n }
    }
}

impl Workload for UniformWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "uniform"
    }

    fn source(&self, seed: u64) -> Box<dyn InteractionSource + Send> {
        Box::new(RandomizedAdversary::new(self.n, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_core::sequence::AdversaryView;
    use doda_core::Interaction;
    use doda_graph::NodeId;
    use doda_stats::rng::seeded_rng;
    use rand::Rng;

    #[test]
    fn every_pull_path_draws_one_stream() {
        const LEN: usize = 3_000;
        for n in [2, 3, 64, 255, 256, 257, 512, 1000] {
            for seed in [0, 7, 8_675_309] {
                let owns = vec![true; n];
                let view = AdversaryView {
                    owns_data: &owns,
                    sink: NodeId(0),
                };
                let mut source = UniformWorkload::new(n).source(seed);
                let per_step: Vec<Interaction> = (0..LEN as u64)
                    .map(|t| source.next_interaction(t, &view).unwrap())
                    .collect();

                // Ragged batches, so pulls start mid-refill.
                let mut source = UniformWorkload::new(n).source(seed);
                let mut batched = Vec::new();
                for max in [1, 7, 64, 255, 1000].into_iter().cycle() {
                    let want = max.min(LEN - batched.len());
                    source.next_interaction_batch(batched.len() as u64, &view, &mut batched, want);
                    if batched.len() == LEN {
                        break;
                    }
                }

                let mut adversary = RandomizedAdversary::new(n, seed);
                let direct: Vec<Interaction> = (0..LEN).map(|_| adversary.draw()).collect();

                // The division-based mapping every recorded table was drawn
                // with.
                let mut rng = seeded_rng(seed);
                let reference: Vec<Interaction> = (0..LEN)
                    .map(|_| {
                        let a = rng.gen_range(0..n);
                        let mut b = rng.gen_range(0..n - 1);
                        if b >= a {
                            b += 1;
                        }
                        Interaction::new(NodeId(a), NodeId(b))
                    })
                    .collect();

                assert_eq!(per_step, reference, "per-step, n = {n}, seed {seed}");
                assert_eq!(batched, reference, "batched, n = {n}, seed {seed}");
                assert_eq!(direct, reference, "adversary, n = {n}, seed {seed}");
            }
        }
    }

    #[test]
    fn generates_requested_length_and_valid_pairs() {
        let w = UniformWorkload::new(6);
        let seq = w.generate(1000, 3);
        assert_eq!(seq.len(), 1000);
        for ti in seq.iter() {
            assert!(ti.interaction.max().index() < 6);
        }
    }

    #[test]
    fn underlying_graph_becomes_complete_quickly() {
        let w = UniformWorkload::new(6);
        let seq = w.generate(500, 9);
        assert!(seq.underlying_graph().is_complete());
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn rejects_single_node() {
        let _ = UniformWorkload::new(1);
    }
}
