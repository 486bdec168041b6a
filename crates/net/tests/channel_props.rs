//! Property-based tests for the shared radio channel: packet accounting,
//! collision symmetry and arbiter determinism over randomly drawn fleets.
//!
//! The arbiter is pure — stats are a function of the timestamp traces and
//! positions alone — so every invariant here is checked exactly, with no
//! simulation in the loop.

use numkit::rng::Rng;
use proptest::prelude::*;
use wsn_net::{distance, NodeTrace, RadioChannel};

/// Strategy: a fleet of 1–6 nodes, each with a position in a 80 m square
/// around the sink and 0–24 unsorted transmission timestamps in a window
/// a few thousand airtimes wide (so overlaps are common but not total).
fn fleet() -> impl Strategy<Value = Vec<((f64, f64), Vec<f64>)>> {
    prop::collection::vec(
        (
            (-40.0..40.0f64, -40.0..40.0f64),
            prop::collection::vec(0.0..30.0f64, 0..25usize),
        ),
        1..7usize,
    )
}

/// Borrows a generated fleet as the channel's trace view.
fn traces(fleet: &[((f64, f64), Vec<f64>)]) -> Vec<NodeTrace<'_>> {
    fleet
        .iter()
        .map(|(position, tx_times)| NodeTrace {
            position: *position,
            tx_times,
        })
        .collect()
}

/// Strategy: a fleet whose timestamps land on a coarse half-airtime grid,
/// so exact duplicates, exact window boundaries (`tj - ti == airtime_s`)
/// and heavy overlap all occur; node counts start at 0 (the empty fleet)
/// and traces may be empty and unsorted.
fn gridded_fleet() -> impl Strategy<Value = Vec<((f64, f64), Vec<f64>)>> {
    let airtime = wsn_net::DEFAULT_AIRTIME_S;
    prop::collection::vec(
        (
            (-120.0..120.0f64, -120.0..120.0f64),
            prop::collection::vec(
                (0i32..400).prop_map(move |k| k as f64 * airtime / 2.0),
                0..25usize,
            ),
        ),
        0..8usize,
    )
}

/// Strategy: a channel whose interference and delivery ranges include the
/// degenerate corners (0, a range smaller than the fleet box, a range
/// covering everything, and infinity).
fn any_channel() -> impl Strategy<Value = RadioChannel> {
    (
        prop::sample::select(vec![0.0f64, 20.0, 75.0, 400.0, f64::INFINITY]),
        prop::sample::select(vec![0.0f64, 30.0, 200.0, f64::INFINITY]),
        prop::sample::select(vec![0.5f64, 1.0, 2.0]),
    )
        .prop_map(|(interference, delivery, slot)| {
            RadioChannel::paper_default()
                .with_interference_range(interference)
                .with_delivery_range(delivery)
                .with_slot(slot)
        })
}

proptest! {
    /// Every packet lands in exactly one bucket: per node,
    /// `attempted == delivered + collided + out_of_range`, and the
    /// in-range identity `delivered + collided == attempted_in_range`
    /// holds whenever the node can reach the sink at all. Duplicates
    /// are a subset of deliveries.
    #[test]
    fn packets_are_fully_accounted(nodes in fleet()) {
        let ch = RadioChannel::paper_default();
        let sink = (0.0, 0.0);
        let stats = ch.arbitrate(sink, &traces(&nodes));
        for (node, s) in nodes.iter().zip(&stats) {
            prop_assert_eq!(s.attempted, node.1.len() as u64);
            prop_assert_eq!(s.attempted, s.delivered + s.collided + s.out_of_range);
            prop_assert!(s.duplicates <= s.delivered);
            if distance(node.0, sink) <= ch.delivery_range_m {
                // In range: nothing is ever out_of_range, so the issue's
                // two-term identity is exact.
                prop_assert_eq!(s.out_of_range, 0);
                prop_assert_eq!(s.delivered + s.collided, s.attempted);
            } else {
                prop_assert_eq!(s.delivered, 0);
            }
        }
    }

    /// Collision symmetry: a destroyed packet always has at least one
    /// destroyed counterpart (collisions are pairwise), so the fleet-wide
    /// collided count is never exactly one — and a lone node, with nobody
    /// to interfere with, never collides at all.
    #[test]
    fn collisions_come_in_groups(nodes in fleet()) {
        let ch = RadioChannel::paper_default();
        let stats = ch.arbitrate((0.0, 0.0), &traces(&nodes));
        let collided: u64 = stats.iter().map(|s| s.collided).sum();
        prop_assert!(collided != 1, "a collision needs two packets");
        if nodes.len() == 1 {
            prop_assert_eq!(collided, 0, "a lone node cannot jam itself");
        }
    }

    /// Under the ideal channel nothing interferes and everything in range
    /// is delivered, regardless of overlap structure.
    #[test]
    fn ideal_channel_never_collides(nodes in fleet()) {
        let stats = RadioChannel::ideal().arbitrate((0.0, 0.0), &traces(&nodes));
        for s in &stats {
            prop_assert_eq!(s.collided, 0);
            prop_assert_eq!(s.delivered, s.attempted);
        }
    }

    /// The tentpole equivalence oracle: the spatial-index/streaming
    /// arbitration path is bit-identical to the naive pairwise sweep on
    /// randomised fleets — random positions, interference and delivery
    /// ranges including 0 and ∞, timestamps with exact duplicates and
    /// exact airtime-boundary separations, empty traces and the empty
    /// fleet. `ChannelStats` is `Eq`, so the comparison is exact, not
    /// approximate.
    #[test]
    fn indexed_arbitration_equals_the_naive_sweep(
        nodes in gridded_fleet(),
        channel in any_channel(),
    ) {
        let sink = (0.0, 0.0);
        let traces = traces(&nodes);
        let naive = channel.arbitrate_naive(sink, &traces);
        let indexed = channel.arbitrate(sink, &traces);
        prop_assert_eq!(&indexed, &naive, "paths diverged on channel {}", channel);
    }

    /// Same oracle over the original free-floating timestamp strategy
    /// (arbitrary reals, not gridded), so near-boundary float separations
    /// are covered too.
    #[test]
    fn indexed_arbitration_equals_the_naive_sweep_on_free_timestamps(
        nodes in fleet(),
        channel in any_channel(),
    ) {
        let sink = (0.0, 0.0);
        let traces = traces(&nodes);
        prop_assert_eq!(
            channel.arbitrate(sink, &traces),
            channel.arbitrate_naive(sink, &traces)
        );
    }

    /// Arbiter determinism: permuting the order in which node traces are
    /// handed to the channel permutes the stats and changes nothing else.
    /// Collision verdicts, deliveries and duplicate counts all survive
    /// relabelling, so fleet evaluation order can never leak into the
    /// report.
    #[test]
    fn verdicts_survive_node_permutation(nodes in fleet(), seed in 0..u64::MAX) {
        let ch = RadioChannel::paper_default();
        let sink = (0.0, 0.0);
        let baseline = ch.arbitrate(sink, &traces(&nodes));

        let mut order: Vec<usize> = (0..nodes.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        let permuted: Vec<((f64, f64), Vec<f64>)> =
            order.iter().map(|&i| nodes[i].clone()).collect();
        let shuffled = ch.arbitrate(sink, &traces(&permuted));

        for (slot, &original_index) in order.iter().enumerate() {
            prop_assert_eq!(
                &shuffled[slot],
                &baseline[original_index],
                "node {} changed verdicts after relabelling to slot {}",
                original_index,
                slot
            );
        }
    }
}
