//! Cluster-scale power oversubscription, end to end: run the canonical
//! two-rack power tree (`cluster 34 W → row0 ×1.2 → rack0/rack1 →
//! enclosures`) under three tenants, once with the model-driven selector
//! rebalancing budgets down the tree every control round and once with a
//! naive uniform per-device cap, then compare what each policy serves at
//! the same cluster cap.
//!
//! Run with: `cargo run --release --example cluster_oversubscription`
//!
//! Fully traceable: `POWADAPT_TRACE=perfetto:cluster_trace.json` (or
//! `-- --trace-out cluster_trace.json`) exports
//! per-rack power counter tracks and every rebalance decision as a
//! Perfetto/Chrome trace plus a metrics snapshot.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "examples assert on exact expected values"
)]

use powadapt::cluster::{oversubscribed_cluster, run_cluster, SelectionPolicy};
use powadapt_bench::cli;

fn main() {
    // Install the recorder before any devices are built so construction-
    // time captures land in the trace; finished (and written out) at the
    // bottom of main.
    let cli = cli::parse("cluster_oversubscription", &[]);
    let trace = cli.start_tracing();

    let seed = 42;
    println!("== Can a storage cluster be power adaptive? ==\n");

    let spec = oversubscribed_cluster(SelectionPolicy::ModelDriven, seed);
    let root = spec.tree.root_id();
    println!(
        "Power tree: {:.0} W cluster cap, row advertises {:.1} W to racks \
         whose caps sum to 37 W (oversubscription bet).",
        spec.tree.cap_w(root),
        spec.tree.advertised_w(powadapt::cluster::NodeId(1)),
    );
    println!(
        "Tenants: {} offered streams over {} enclosures.\n",
        spec.tenants.len(),
        spec.enclosures.len()
    );

    println!("-- model-driven: Fig 10 models pick configurations, tree rebalances --");
    let model = run_cluster(spec).expect("model-driven run");
    print!("{model}");
    println!();

    println!("-- uniform static: cluster cap split evenly, set once --");
    let uniform = run_cluster(oversubscribed_cluster(SelectionPolicy::UniformStatic, seed))
        .expect("uniform run");
    print!("{uniform}");
    println!();

    let win = model.aggregate_throughput_bps() / uniform.aggregate_throughput_bps();
    assert!(model.caps_respected() && uniform.caps_respected());
    assert!(win >= 1.3, "expected >= 1.3x, measured {win:.2}x");
    println!(
        "Verdict: model-driven oversubscription serves {win:.2}x the bytes of the \
         uniform cap ({:.1} vs {:.1} MiB/s) without exceeding any breaker,",
        model.aggregate_throughput_bps() / (1024.0 * 1024.0),
        uniform.aggregate_throughput_bps() / (1024.0 * 1024.0),
    );
    println!(
        "because an 8.5 W uniform share strands SSD2 (10 W floor) and PM1743 \
         (9 W floor) while the tree routes the same watts to where they buy bytes."
    );

    cli::finish_tracing(trace);
}
