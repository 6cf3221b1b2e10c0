//! The randomized adversary.
//!
//! "The randomized adversary constructs the sequence of interactions by
//! picking a couple of nodes among all possible couples, uniformly at
//! random" (Section 4). Every interaction therefore occurs with probability
//! `2 / (n(n−1))`, independently of the past — the setting of Theorems
//! 7–11.

use doda_core::sequence::{AdversaryView, InteractionSource};
use doda_core::{Interaction, InteractionSequence, Time};
use doda_graph::NodeId;
use doda_stats::rng::{seeded_rng, DodaRng, Modulus};
use rand::RngCore;

/// The uniform randomized adversary over `n ≥ 2` nodes.
///
/// The adversary is an infinite [`InteractionSource`]; it can also
/// materialise a finite prefix of its sequence with
/// [`RandomizedAdversary::generate_sequence`], which is what the
/// knowledge-based algorithms (Waiting Greedy, offline optimal) need in
/// order to build their oracles.
///
/// Each pair costs two 64-bit draws, reduced modulo `n` and `n − 1`
/// without a hardware division ([`Modulus`]).
#[derive(Debug, Clone)]
pub struct RandomizedAdversary {
    n: usize,
    rng: DodaRng,
    /// Reduction modulo `n`: the first endpoint.
    nodes: Modulus,
    /// Reduction modulo `n − 1`: the second endpoint, among the others.
    others: Modulus,
}

impl RandomizedAdversary {
    /// Creates the adversary for `n` nodes with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no pair of distinct nodes exists).
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(
            n >= 2,
            "the randomized adversary needs at least 2 nodes, got {n}"
        );
        RandomizedAdversary {
            n,
            rng: seeded_rng(seed),
            nodes: Modulus::new(n as u64),
            others: Modulus::new(n as u64 - 1),
        }
    }

    /// Draws one uniformly random pair of distinct nodes.
    ///
    /// The first endpoint is `x % n`, the second `y % (n − 1)` shifted
    /// past the first, for the next two 64-bit draws `x`, `y`. Sorting the
    /// endpoints with branch-free min/max before [`Interaction::new`]
    /// keeps its normalisation branch (50/50 on random pairs) always
    /// untaken.
    #[inline(always)]
    pub fn draw(&mut self) -> Interaction {
        let a = self.nodes.reduce(self.rng.next_u64());
        let raw = self.others.reduce(self.rng.next_u64());
        let b = raw + u64::from(raw >= a);
        Interaction::new(NodeId(a.min(b) as usize), NodeId(a.max(b) as usize))
    }

    /// Materialises a finite sequence of `len` uniformly random
    /// interactions — shorthand for [`InteractionSequence::materialize`]
    /// over this source.
    pub fn generate_sequence(&mut self, len: usize) -> InteractionSequence {
        InteractionSequence::materialize(self, len)
    }

    /// A generous default horizon for materialised sequences: `8·n²`
    /// interactions, comfortably above the `O(n² log n)`-with-small-constant
    /// needs of every algorithm studied for moderate `n` (the engine reports
    /// non-termination if it ever falls short, so experiments can detect and
    /// enlarge it).
    pub fn default_horizon(n: usize) -> usize {
        8 * n * n
    }
}

impl InteractionSource for RandomizedAdversary {
    // The stream never reads the view: the lane engine may pull it in
    // devirtualised batches.
    fn is_oblivious(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        Some(self.draw())
    }

    // The lane engine and `fill_from` pull oblivious sources in batches;
    // the sized `extend` reserves once instead of growth-checking every
    // push.
    fn next_interaction_batch(
        &mut self,
        _t0: Time,
        _view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        out.extend((0..max).map(|_| self.draw()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn rejects_tiny_graphs() {
        let _ = RandomizedAdversary::new(1, 0);
    }

    #[test]
    fn draws_are_valid_pairs() {
        let mut adv = RandomizedAdversary::new(5, 7);
        for _ in 0..1000 {
            let i = adv.draw();
            assert!(i.min().index() < 5 && i.max().index() < 5);
            assert_ne!(i.min(), i.max());
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = RandomizedAdversary::new(6, 99);
        let mut b = RandomizedAdversary::new(6, 99);
        assert_eq!(a.generate_sequence(50), b.generate_sequence(50));
        let mut c = RandomizedAdversary::new(6, 100);
        assert_ne!(a.generate_sequence(50), c.generate_sequence(50));
    }

    #[test]
    fn pairs_are_roughly_uniform() {
        // chi-square-ish sanity check: all 10 pairs of 5 nodes appear with
        // frequency within 20% of the expected 1/10 over 50k draws.
        let mut adv = RandomizedAdversary::new(5, 2024);
        let mut counts: HashMap<Interaction, u64> = HashMap::new();
        let draws = 50_000;
        for _ in 0..draws {
            *counts.entry(adv.draw()).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 10);
        let expected = draws as f64 / 10.0;
        for (pair, count) in counts {
            let dev = (count as f64 - expected).abs() / expected;
            assert!(dev < 0.2, "pair {pair} frequency off by {dev:.3}");
        }
    }

    #[test]
    fn source_is_infinite() {
        let mut adv = RandomizedAdversary::new(4, 1);
        let owns = vec![true; 4];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        for t in 0..100 {
            assert!(adv.next_interaction(t, &view).is_some());
        }
        assert_eq!(adv.node_count(), 4);
    }

    #[test]
    fn generated_sequence_has_requested_length() {
        let mut adv = RandomizedAdversary::new(4, 3);
        let seq = adv.generate_sequence(123);
        assert_eq!(seq.len(), 123);
        assert_eq!(seq.node_count(), 4);
        assert_eq!(RandomizedAdversary::default_horizon(10), 800);
    }
}
