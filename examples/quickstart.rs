//! Quickstart: a small secondary spectrum auction end to end, then
//! incrementally.
//!
//! Six base stations (transmitters with coverage disks) bid on three
//! channels. We build the disk-graph conflict model (Proposition 9 of the
//! paper certifies ρ ≤ 5 for the radius-descending ordering), configure the
//! pipeline with [`SolverBuilder`] — the one place to pick the seed depth
//! and the rounding stage — and solve. Then we open an
//! [`AuctionSession`] over the same market and let a seventh operator
//! arrive: the session reuses the LP state (dual-simplex row absorption)
//! instead of re-solving from scratch.
//!
//! Run with: `cargo run --example quickstart`
//!
//! [`SolverBuilder`]: spectrum_auctions::auction::solver::SolverBuilder
//! [`AuctionSession`]: spectrum_auctions::auction::session::AuctionSession

use spectrum_auctions::auction::instance::ConflictStructure;
use spectrum_auctions::auction::session::BidderConflicts;
use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::auction::{AuctionInstance, ChannelSet, Valuation, XorValuation};
use spectrum_auctions::geometry::{Disk, Point2D};
use spectrum_auctions::interference::DiskGraphModel;
use std::sync::Arc;

fn main() {
    // 1. The physical deployment: six base stations with coverage disks.
    let disks = vec![
        Disk::new(Point2D::new(0.0, 0.0), 3.0),
        Disk::new(Point2D::new(4.0, 1.0), 2.5),
        Disk::new(Point2D::new(9.0, 0.0), 2.0),
        Disk::new(Point2D::new(1.0, 6.0), 2.0),
        Disk::new(Point2D::new(7.0, 6.5), 3.0),
        Disk::new(Point2D::new(13.0, 6.0), 2.5),
    ];

    // 2. The interference model: disk graph + radius-descending ordering.
    let model = DiskGraphModel::new(disks).build();
    println!(
        "conflict graph: {} bidders, {} conflicts",
        model.graph.num_vertices(),
        model.graph.num_edges()
    );
    println!(
        "inductive independence number: certified ρ = {} (paper bound: {})",
        model.certified_rho.rho,
        model.theoretical_rho.unwrap()
    );

    // 3. The market: every operator submits XOR bids on channel bundles.
    let k = 3;
    let bid = |bundles: Vec<(Vec<usize>, f64)>| -> Arc<dyn Valuation> {
        Arc::new(XorValuation::new(
            k,
            bundles
                .into_iter()
                .map(|(chs, v)| (ChannelSet::from_channels(chs), v))
                .collect(),
        ))
    };
    let bidders: Vec<Arc<dyn Valuation>> = vec![
        bid(vec![(vec![0], 8.0), (vec![0, 1], 13.0)]),
        bid(vec![(vec![1], 6.0), (vec![1, 2], 9.0)]),
        bid(vec![(vec![2], 7.0)]),
        bid(vec![(vec![0], 5.0), (vec![2], 4.0)]),
        bid(vec![(vec![0, 1, 2], 18.0)]),
        bid(vec![(vec![1], 6.5), (vec![0, 2], 10.0)]),
    ];

    // 4. Assemble the auction instance. ρ comes from the certified value.
    let instance = AuctionInstance::new(
        k,
        bidders,
        ConflictStructure::Binary(model.graph.clone()),
        model.ordering.clone(),
        model.rho_for_lp(),
    );

    // 5. Solve: LP relaxation by column generation + Algorithm 1 rounding.
    //    The builder is the single configuration point (seed depth,
    //    rounding); the LP engine is steepest edge × Forrest–Tomlin LU.
    let solver = SolverBuilder::new().rounding(1, 16).build();
    let outcome = solver
        .try_solve(&instance)
        .expect("well-formed instances solve");

    println!();
    println!(
        "LP relaxation optimum (b*):      {:.3}",
        outcome.lp_objective
    );
    println!("welfare of rounded allocation:   {:.3}", outcome.welfare);
    println!(
        "a-priori guarantee factor 8√k·ρ: {:.1}",
        outcome.guarantee_factor
    );
    println!(
        "empirical ratio b*/welfare:      {:.3}",
        outcome.empirical_ratio()
    );
    println!();
    println!("allocation (bidder -> channels):");
    for v in 0..instance.num_bidders() {
        let bundle = outcome.allocation.bundle(v);
        let value = instance.value(v, bundle);
        println!("  bidder {v}: {bundle}   (value {value:.1})");
    }
    assert!(outcome.allocation.is_feasible(&instance));
    println!();
    println!("feasible: every channel's winners form an independent set of the conflict graph ✓");

    // 6. The market is dynamic: open a session and let operator 6 arrive
    //    (conflicting with the stations it overlaps). The session absorbs
    //    the newcomer's LP rows through the dual simplex and re-solves warm
    //    instead of rebuilding the LP.
    let mut session = SolverBuilder::new().rounding(1, 16).session(instance);
    let before = session.resolve().expect("initial resolve");
    session.add_bidder(
        bid(vec![(vec![0], 7.5), (vec![1, 2], 12.0)]),
        BidderConflicts::Binary(vec![1, 4]),
    );
    let after = session.resolve().expect("incremental resolve");
    println!();
    println!(
        "after one arrival (warm resolve): b* {:.3} -> {:.3}, welfare {:.3} -> {:.3}",
        before.lp_objective, after.lp_objective, before.welfare, after.welfare
    );
    assert!(after.allocation.is_feasible(session.instance()));

    // 7. Markets shrink too: station 2 hands back its license. The session
    //    absorbs the departure in place — the departed operator's LP
    //    columns are retired at objective 0 and its rows deactivated behind
    //    relief columns, so the surviving basis resumes with a few primal
    //    pivots instead of rebuilding the master.
    session.remove_bidder(2);
    let shrunk = session.resolve().expect("departure resolve");
    println!(
        "after one departure (warm resolve): b* {:.3} -> {:.3}, welfare {:.3} -> {:.3}",
        after.lp_objective, shrunk.lp_objective, after.welfare, shrunk.welfare
    );
    let stats = session.stats();
    println!(
        "session paths: {} cold, {} dual-simplex row absorptions, {} in-place departures",
        stats.cold_resolves, stats.warm_row_resolves, stats.deactivated_resolves
    );
    assert_eq!(stats.deactivated_resolves, 1);
    assert!(shrunk.allocation.is_feasible(session.instance()));
}
