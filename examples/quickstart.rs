//! Quickstart: sweep every algorithm of the paper over the uniform
//! randomized adversary with one [`Sweep`] call each, and print what
//! happened — including which execution tier each sweep resolved to.
//!
//! [`Sweep`] is the one entry point for running trials. It picks the
//! fastest admissible engine path per algorithm/scenario pair:
//!
//! - **lanes** — knowledge-free, fault-free trials stepped in lockstep
//!   through `[u64]` bit-lane state, up to 64 per batch;
//! - **streamed** — the scalar per-trial path, one interaction per step
//!   (`O(n)` memory at any horizon), required once faults are in play and
//!   chosen for round scenarios, whose matchings it plays one edge per
//!   step;
//! - **materialized** — knowledge-based algorithms only: the adversary
//!   commits to a finite sequence so oracles over the future can be built;
//! - **hierarchical** — clustered two-phase aggregation, never chosen
//!   automatically (opt in with `Sweep::tier`).
//!
//! Tiers are interchangeable where they overlap — per-trial results are
//! byte-identical — so the resolver is free to chase throughput.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use doda::prelude::*;
use doda::sim::table::Table;

fn main() {
    let n = 32;
    let trials = 8;
    let seed = 2016; // ICDCS 2016
    let scenario = Scenario::Uniform;
    println!("Distributed online data aggregation over a random dynamic graph");
    println!("n = {n} nodes, scenario = {scenario}, {trials} trials, seed = {seed}\n");

    let mut table = Table::new([
        "algorithm",
        "knowledge",
        "tier",
        "terminated",
        "mean interactions",
    ]);

    for spec in AlgorithmSpec::all() {
        if !scenario.supports(spec) {
            continue;
        }
        let sweep = Sweep::scenario(spec, scenario)
            .n(n)
            .trials(trials)
            .seed(seed);
        let tier = sweep.path_label();
        let results = sweep.run();
        let terminated = results.iter().filter(|r| r.terminated()).count();
        let mean = results
            .iter()
            .map(|r| r.interactions_processed)
            .sum::<u64>() as f64
            / trials as f64;
        table.push_row([
            spec.to_string(),
            spec.knowledge().to_string(),
            tier.to_string(),
            format!("{terminated}/{trials}"),
            format!("{mean:.0}"),
        ]);
    }

    println!("{}", table.to_markdown());
    println!("The paper's theorems predict the ordering offline < WaitingGreedy < Gathering");
    println!("< Waiting on expected termination time under the randomized adversary.\n");

    // The tier contract, demonstrated: forcing the lane tier and the scalar
    // reference produces the same trials, byte for byte.
    let forced = |tier| {
        Sweep::scenario(AlgorithmSpec::Gathering, scenario)
            .n(n)
            .trials(trials)
            .seed(seed)
            .tier(tier)
            .run()
    };
    assert_eq!(forced(ExecutionTier::Lanes), forced(ExecutionTier::Scalar));
    println!("lane tier == scalar reference on all {trials} Gathering trials, byte for byte");
}
