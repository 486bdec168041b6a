//! The shared radio channel: a slotted collision model arbitrated
//! deterministically from recorded transmission timestamps.
//!
//! Every node's simulation records the start time of each completed
//! transmission ([`wsn_node::SimOutcome::tx_times`]). The channel replays
//! those timestamps *after* the per-node simulations finish: each
//! transmission opens an airtime window of [`RadioChannel::airtime_s`]
//! seconds, and two windows that overlap in time — from different nodes
//! within interference range of each other — destroy both packets. The
//! energy is already spent inside the node simulation (Table III charges
//! per attempt), so a collision costs throughput, not extra energy.
//!
//! Arbitration is a pure function of the timestamp multiset and the node
//! positions: packets are processed in a total order (time, then node
//! index), so the verdict is bit-identical however the per-node runs were
//! scheduled across worker threads.
//!
//! [`RadioChannel::arbitrate`] consults a uniform spatial grid (cell
//! edge = `interference_range_m`) and streams the timeline through a
//! sliding airtime window, so a city-scale fleet never materialises one
//! flat sorted packet vector. The original quadratic-in-co-windowed-nodes
//! sweep, [`RadioChannel::arbitrate_naive`], is kept as the reference
//! oracle. The two are bit-identical — same total order, same symmetric
//! collision marking — enforced by an equivalence property test
//! (crates/net/tests/channel_props.rs) and by a pin test that replays
//! real fleet traces through the oracle (crates/net/tests/report_pin.rs).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;

use wsn_dse::fold_fingerprint;

/// Default airtime of one packet (s). Matches the Table III transmission
/// duration used by the node model ([`wsn_node::SensorNode::tx_duration`]).
pub const DEFAULT_AIRTIME_S: f64 = 4.5e-3;

/// Default sink deduplication slot (s): repeat deliveries from one node
/// within the same slot carry no new information (the measurand cannot
/// have changed) and count as duplicates.
pub const DEFAULT_SLOT_S: f64 = 1.0;

/// The shared medium all fleet nodes transmit on.
///
/// The model is intentionally coarse — a slotted-ALOHA-style collision
/// rule over recorded timestamps — because the interesting coupling is
/// *energy policy → transmission times → contention*, not RF propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioChannel {
    /// Airtime of one packet (s). Two transmissions whose start times are
    /// closer than this overlap on the medium.
    pub airtime_s: f64,
    /// Sink deduplication slot (s): extra deliveries by the same node
    /// within one slot are counted as duplicates.
    pub slot_s: f64,
    /// Interference range (m): transmitters farther apart than this never
    /// collide with each other. `0` disables collisions entirely.
    pub interference_range_m: f64,
    /// Delivery range (m): packets from nodes farther than this from the
    /// sink are lost even without a collision.
    pub delivery_range_m: f64,
}

impl RadioChannel {
    /// The default fleet channel: Table III airtime, 1 s sink slot, 50 m
    /// interference range, 30 m delivery range.
    pub fn paper_default() -> Self {
        RadioChannel {
            airtime_s: DEFAULT_AIRTIME_S,
            slot_s: DEFAULT_SLOT_S,
            interference_range_m: 50.0,
            delivery_range_m: 30.0,
        }
    }

    /// An ideal channel: no collisions (zero interference range) and
    /// unbounded delivery range. A 1-node fleet on this channel delivers
    /// exactly the transmissions the single-node simulation counts.
    pub fn ideal() -> Self {
        RadioChannel {
            airtime_s: DEFAULT_AIRTIME_S,
            slot_s: DEFAULT_SLOT_S,
            interference_range_m: 0.0,
            delivery_range_m: f64::INFINITY,
        }
    }

    /// Replaces the packet airtime.
    ///
    /// # Panics
    ///
    /// Panics unless `airtime_s` is positive and finite.
    pub fn with_airtime(mut self, airtime_s: f64) -> Self {
        assert!(
            airtime_s > 0.0 && airtime_s.is_finite(),
            "airtime must be positive and finite"
        );
        self.airtime_s = airtime_s;
        self
    }

    /// Replaces the sink deduplication slot.
    ///
    /// # Panics
    ///
    /// Panics unless `slot_s` is positive and finite.
    pub fn with_slot(mut self, slot_s: f64) -> Self {
        assert!(
            slot_s > 0.0 && slot_s.is_finite(),
            "slot must be positive and finite"
        );
        self.slot_s = slot_s;
        self
    }

    /// Replaces the interference range (`0` disables collisions).
    ///
    /// # Panics
    ///
    /// Panics if the range is negative or NaN.
    pub fn with_interference_range(mut self, range_m: f64) -> Self {
        assert!(range_m >= 0.0, "interference range must be non-negative");
        self.interference_range_m = range_m;
        self
    }

    /// Replaces the delivery range (`f64::INFINITY` delivers from
    /// anywhere).
    ///
    /// # Panics
    ///
    /// Panics if the range is negative or NaN.
    pub fn with_delivery_range(mut self, range_m: f64) -> Self {
        assert!(range_m >= 0.0, "delivery range must be non-negative");
        self.delivery_range_m = range_m;
        self
    }

    /// A stable 64-bit fingerprint of the channel parameters, folded
    /// into the fleet fingerprint so cached fleet evaluations under
    /// different channels never collide.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const CHAN: u64 = 0x6368_616e; // "chan"
        [
            self.airtime_s,
            self.slot_s,
            self.interference_range_m,
            self.delivery_range_m,
        ]
        .iter()
        .fold(FNV_OFFSET ^ CHAN, |h, v| fold_fingerprint(h, v.to_bits()))
    }

    /// Arbitrates one fleet's recorded transmissions over the shared
    /// medium, returning per-node channel statistics (one entry per
    /// trace, in input order).
    ///
    /// The verdict depends only on the *content* of `traces` — packets
    /// are processed in a global (time, node index) total order — so the
    /// same traces always produce the same statistics, regardless of how
    /// the per-node simulations were scheduled.
    ///
    /// Arbitration is near-linear: a uniform spatial grid over the
    /// node positions (cell edge = `interference_range_m`, so any two
    /// transmitters within range sit in the same or an adjacent cell)
    /// plus a streaming k-way merge of the per-node traces through a
    /// sliding airtime window. Peak memory is O(nodes + packets in one
    /// airtime window): the flat sorted packet vector of the naive sweep
    /// is never materialised. Per packet, only candidates from the nine
    /// neighbouring cells that are currently on the air are distance-
    /// tested, so the work is near-linear in transmissions for any
    /// bounded-density layout.
    ///
    /// Bit-identical to [`RadioChannel::arbitrate_naive`]: the merge
    /// yields the same (time, node index) total order, the window holds
    /// exactly the packets the naive backward scan would visit, the grid
    /// only prunes pairs the shared private `interferes` test
    /// would reject anyway, and per-node verdicts are settled in global
    /// packet order with the same sink-slot deduplication.
    pub fn arbitrate(&self, sink: (f64, f64), traces: &[NodeTrace<'_>]) -> Vec<ChannelStats> {
        let n = traces.len();

        // Per-node sorted views. Both engines record tx_times in
        // nondecreasing order, so the common case borrows the trace
        // as-is; an unsorted trace (reachable through the public API)
        // gets a per-node sorted copy — never a global flatten.
        let sorted: Vec<Option<Vec<f64>>> = traces
            .iter()
            .map(|trace| {
                if trace
                    .tx_times
                    .windows(2)
                    .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater)
                {
                    None
                } else {
                    let mut copy = trace.tx_times.to_vec();
                    copy.sort_by(|a, b| a.total_cmp(b));
                    Some(copy)
                }
            })
            .collect();
        let times = |i: usize| -> &[f64] { sorted[i].as_deref().unwrap_or(traces[i].tx_times) };

        // Static node → grid-cell assignment. A non-finite range keeps
        // everyone in one cell (every node is every node's neighbour,
        // exactly the naive candidate set); a zero range disables
        // collision testing entirely, as in the naive sweep.
        let collisions_on = self.interference_range_m > 0.0;
        let cell_edge = self.interference_range_m;
        let cell_of = |p: (f64, f64)| -> (i64, i64) {
            if cell_edge > 0.0 && cell_edge.is_finite() {
                (
                    (p.0 / cell_edge).floor() as i64,
                    (p.1 / cell_edge).floor() as i64,
                )
            } else {
                (0, 0)
            }
        };
        // Dense cell ids: hashing happens once per *node* here, never in
        // the per-packet hot loop below.
        let mut cell_index: HashMap<(i64, i64), u32> = HashMap::new();
        let node_cell: Vec<u32> = traces
            .iter()
            .map(|t| {
                let next = cell_index.len() as u32;
                *cell_index.entry(cell_of(t.position)).or_insert(next)
            })
            .collect();
        // Per cell, the dense ids of the (up to nine) neighbouring cells
        // somebody actually occupies. A cell nobody occupies can never
        // host an on-air packet, so skipping it prunes nothing the naive
        // sweep would have collided. Saturating offsets only coarsen the
        // pathological far-coordinate case into re-testing a cell, and
        // marking is idempotent.
        let mut cell_neighbors: Vec<Vec<u32>> = vec![Vec::new(); cell_index.len()];
        for (&(cx, cy), &id) in &cell_index {
            for dx in -1..=1i64 {
                for dy in -1..=1i64 {
                    let key = (cx.saturating_add(dx), cy.saturating_add(dy));
                    if let Some(&neighbor) = cell_index.get(&key) {
                        cell_neighbors[id as usize].push(neighbor);
                    }
                }
            }
        }
        // The same per-node predicate the naive sweep evaluates per
        // packet: pure in the position, so hoisting it cannot change a
        // verdict.
        let in_delivery_range: Vec<bool> = traces
            .iter()
            .map(|t| distance(t.position, sink) <= self.delivery_range_m)
            .collect();

        // Min-heap merging the per-node traces in (time, node) order —
        // the identical total order the naive sweep sorts into.
        #[derive(Clone, Copy)]
        struct Head {
            t: f64,
            node: usize,
        }
        impl PartialEq for Head {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for Head {}
        impl PartialOrd for Head {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Head {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.t.total_cmp(&other.t).then(self.node.cmp(&other.node))
            }
        }

        let mut heap: BinaryHeap<Reverse<Head>> = BinaryHeap::with_capacity(n);
        let mut cursor = vec![0usize; n];
        for (i, c) in cursor.iter_mut().enumerate() {
            if let Some(&t0) = times(i).first() {
                heap.push(Reverse(Head { t: t0, node: i }));
                *c = 1;
            }
        }

        // The sliding airtime window — the "streamed chunk" of the
        // timeline currently on the air. Packets are identified by a
        // monotone id, so the window always holds the contiguous id range
        // [front_id, next_id) and per-cell occupant lists (FIFO, because
        // ids are issued in global order) index into it directly.
        struct Pending {
            t: f64,
            node: usize,
            collided: bool,
        }
        let mut window: VecDeque<Pending> = VecDeque::new();
        let mut cells: Vec<VecDeque<u64>> = vec![VecDeque::new(); cell_index.len()];
        let mut front_id: u64 = 0;
        let mut next_id: u64 = 0;

        let mut stats = vec![ChannelStats::default(); n];
        let mut last_slot: Vec<Option<i64>> = vec![None; n];
        // Settles one packet once its airtime window has provably closed
        // (no later packet can reach it), in global packet order — the
        // same accumulation the naive sweep runs after its full pass.
        let slot_s = self.slot_s;
        let settle =
            |p: Pending, stats: &mut Vec<ChannelStats>, last_slot: &mut Vec<Option<i64>>| {
                stats[p.node].attempted += 1;
                if p.collided {
                    stats[p.node].collided += 1;
                } else if in_delivery_range[p.node] {
                    stats[p.node].delivered += 1;
                    let slot = (p.t / slot_s).floor() as i64;
                    if last_slot[p.node] == Some(slot) {
                        stats[p.node].duplicates += 1;
                    } else {
                        last_slot[p.node] = Some(slot);
                    }
                } else {
                    stats[p.node].out_of_range += 1;
                }
            };

        while let Some(Reverse(Head { t, node })) = heap.pop() {
            if let Some(&t_next) = times(node).get(cursor[node]) {
                cursor[node] += 1;
                heap.push(Reverse(Head { t: t_next, node }));
            }

            // Expire packets whose windows this packet can no longer
            // overlap (`t - t_i >= airtime_s`, the naive sweep's break
            // condition); later packets are no earlier than `t`, so the
            // expired verdicts are final.
            while let Some(front) = window.front() {
                if t - front.t >= self.airtime_s {
                    let p = window.pop_front().expect("front exists");
                    let popped = cells[node_cell[p.node] as usize].pop_front();
                    debug_assert_eq!(popped, Some(front_id), "cell lists expire in id order");
                    front_id += 1;
                    settle(p, &mut stats, &mut last_slot);
                } else {
                    break;
                }
            }

            // Distance-test this packet against the on-air candidates
            // from the nine neighbouring cells — a superset of every true
            // interferer, filtered by the same `interferes` predicate the
            // naive sweep applies, marking both sides exactly as it does.
            let mut collided = false;
            if collisions_on && !window.is_empty() {
                for &cell in &cell_neighbors[node_cell[node] as usize] {
                    for &id in &cells[cell as usize] {
                        let p = &mut window[(id - front_id) as usize];
                        if p.node != node
                            && self.interferes(traces[p.node].position, traces[node].position)
                        {
                            p.collided = true;
                            collided = true;
                        }
                    }
                }
            }

            window.push_back(Pending { t, node, collided });
            cells[node_cell[node] as usize].push_back(next_id);
            next_id += 1;
        }
        while let Some(p) = window.pop_front() {
            settle(p, &mut stats, &mut last_slot);
        }
        stats
    }

    /// The reference arbitration oracle: flattens every trace into one
    /// globally sorted packet vector and resolves collisions with a
    /// pairwise backward time-sweep. O(P·W) in the number of packets P
    /// and the co-windowed packet count W — W grows linearly with fleet
    /// density, which is what makes this path quadratic on city-scale
    /// fleets. No runtime path calls it: it is kept verbatim as the
    /// ground truth [`RadioChannel::arbitrate`] is checked against by
    /// the equivalence tests and the `fleet_scaling` micro-bench.
    pub fn arbitrate_naive(&self, sink: (f64, f64), traces: &[NodeTrace<'_>]) -> Vec<ChannelStats> {
        // Flatten to (start time, node) packets in a total order.
        let mut packets: Vec<(f64, usize)> = traces
            .iter()
            .enumerate()
            .flat_map(|(n, trace)| trace.tx_times.iter().map(move |&t| (t, n)))
            .collect();
        packets.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Sweep: packet j collides with every earlier packet i whose
        // airtime window it overlaps, provided the transmitters differ
        // and sit within interference range. Marking both sides makes the
        // relation symmetric by construction.
        let mut collided = vec![false; packets.len()];
        for j in 1..packets.len() {
            let (tj, nj) = packets[j];
            let mut i = j;
            while i > 0 {
                i -= 1;
                let (ti, ni) = packets[i];
                if tj - ti >= self.airtime_s {
                    break;
                }
                if ni != nj && self.interferes(traces[ni].position, traces[nj].position) {
                    collided[i] = true;
                    collided[j] = true;
                }
            }
        }

        // Accumulate the per-node verdicts in packet order, tracking the
        // sink's deduplication slot per node.
        let mut stats = vec![ChannelStats::default(); traces.len()];
        let mut last_slot: Vec<Option<i64>> = vec![None; traces.len()];
        for (k, &(t, n)) in packets.iter().enumerate() {
            stats[n].attempted += 1;
            if collided[k] {
                stats[n].collided += 1;
            } else if distance(traces[n].position, sink) <= self.delivery_range_m {
                stats[n].delivered += 1;
                let slot = (t / self.slot_s).floor() as i64;
                if last_slot[n] == Some(slot) {
                    stats[n].duplicates += 1;
                } else {
                    last_slot[n] = Some(slot);
                }
            } else {
                stats[n].out_of_range += 1;
            }
        }
        stats
    }

    /// Whether transmitters at `a` and `b` can destroy each other's
    /// packets. A zero interference range disables collisions even for
    /// co-located nodes.
    fn interferes(&self, a: (f64, f64), b: (f64, f64)) -> bool {
        self.interference_range_m > 0.0 && distance(a, b) <= self.interference_range_m
    }
}

impl fmt::Display for RadioChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "airtime {:.1} ms, slot {:.1} s, interference {} m, delivery {} m",
            self.airtime_s * 1e3,
            self.slot_s,
            self.interference_range_m,
            self.delivery_range_m
        )
    }
}

/// Euclidean distance between two plane positions (m).
pub fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    (dx * dx + dy * dy).sqrt()
}

/// One node's contribution to the arbitration: where it sits and when it
/// transmitted. Borrowed, because timestamp vectors can be long.
#[derive(Debug, Clone, Copy)]
pub struct NodeTrace<'a> {
    /// Plane position of the node (m).
    pub position: (f64, f64),
    /// Start times of the node's completed transmissions (s), as recorded
    /// in [`wsn_node::SimOutcome::tx_times`].
    pub tx_times: &'a [f64],
}

/// Per-node channel verdict: where each recorded transmission ended up.
///
/// Invariant: `attempted == delivered + collided + out_of_range`, and
/// `duplicates <= delivered` (duplicates are delivered packets that carry
/// no new information).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Transmissions the node put on the air.
    pub attempted: u64,
    /// Packets that reached the sink (including duplicates).
    pub delivered: u64,
    /// Delivered packets that repeated an earlier delivery from the same
    /// node within one deduplication slot.
    pub duplicates: u64,
    /// Packets destroyed by a collision on the shared medium.
    pub collided: u64,
    /// Packets that survived the medium but started outside the sink's
    /// delivery range.
    pub out_of_range: u64,
}

impl ChannelStats {
    /// Delivered packets that carried new information.
    pub fn unique_delivered(&self) -> u64 {
        self.delivered - self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(position: (f64, f64), tx_times: &[f64]) -> NodeTrace<'_> {
        NodeTrace { position, tx_times }
    }

    #[test]
    fn lone_node_delivers_everything() {
        let ch = RadioChannel::ideal();
        let times = [0.0, 5.0, 10.0];
        let stats = ch.arbitrate((0.0, 0.0), &[trace((3.0, 4.0), &times)]);
        assert_eq!(stats[0].attempted, 3);
        assert_eq!(stats[0].delivered, 3);
        assert_eq!(stats[0].collided, 0);
        assert_eq!(stats[0].duplicates, 0);
    }

    #[test]
    fn overlapping_windows_destroy_both_packets() {
        let ch = RadioChannel::paper_default();
        let a = [1.0];
        let b = [1.0 + ch.airtime_s / 2.0];
        let stats = ch.arbitrate((0.0, 0.0), &[trace((1.0, 0.0), &a), trace((2.0, 0.0), &b)]);
        assert_eq!(stats[0].collided, 1, "earlier packet dies too");
        assert_eq!(stats[1].collided, 1);
        assert_eq!(stats[0].delivered + stats[1].delivered, 0);
    }

    #[test]
    fn separated_windows_both_deliver() {
        let ch = RadioChannel::paper_default();
        let a = [1.0];
        let b = [1.0 + 2.0 * ch.airtime_s]; // clear of the airtime window
        let stats = ch.arbitrate((0.0, 0.0), &[trace((1.0, 0.0), &a), trace((2.0, 0.0), &b)]);
        assert_eq!(stats[0].delivered, 1);
        assert_eq!(stats[1].delivered, 1);
    }

    #[test]
    fn out_of_interference_range_never_collides() {
        let ch = RadioChannel::paper_default().with_interference_range(10.0);
        let t = [1.0];
        let stats = ch.arbitrate(
            (0.0, 0.0),
            &[trace((0.0, 0.0), &t), trace((100.0, 0.0), &t)],
        );
        assert_eq!(stats[0].collided, 0);
        assert_eq!(stats[1].collided, 0);
        // The far node is also outside the 30 m delivery range.
        assert_eq!(stats[0].delivered, 1);
        assert_eq!(stats[1].out_of_range, 1);
    }

    #[test]
    fn hidden_terminals_chain_through_the_middle_node() {
        // A and C are out of range of each other but both in range of B:
        // B's packet dies to both, while A and C kill each other only
        // through their overlaps with B.
        let ch = RadioChannel::paper_default()
            .with_interference_range(15.0)
            .with_delivery_range(f64::INFINITY);
        let a = [1.0];
        let b = [1.0 + ch.airtime_s * 0.5];
        let c = [1.0 + ch.airtime_s * 0.9];
        let stats = ch.arbitrate(
            (0.0, 0.0),
            &[
                trace((-10.0, 0.0), &a),
                trace((0.0, 0.0), &b),
                trace((10.0, 0.0), &c),
            ],
        );
        assert_eq!(stats[0].collided, 1, "A overlaps B");
        assert_eq!(stats[1].collided, 1, "B overlaps both");
        assert_eq!(stats[2].collided, 1, "C overlaps B");
        // A and C never interfere directly (20 m apart, 15 m range), so
        // with B silent both would deliver.
        let quiet: [f64; 0] = [];
        let stats = ch.arbitrate(
            (0.0, 0.0),
            &[
                trace((-10.0, 0.0), &a),
                trace((0.0, 0.0), &quiet),
                trace((10.0, 0.0), &c),
            ],
        );
        assert_eq!(stats[0].delivered, 1);
        assert_eq!(stats[2].delivered, 1);
    }

    #[test]
    fn sink_slot_marks_repeat_deliveries_as_duplicates() {
        let ch = RadioChannel::ideal().with_slot(1.0);
        let times = [0.1, 0.5, 0.9, 1.1]; // three in slot 0, one in slot 1
        let stats = ch.arbitrate((0.0, 0.0), &[trace((0.0, 0.0), &times)]);
        assert_eq!(stats[0].delivered, 4);
        assert_eq!(stats[0].duplicates, 2);
        assert_eq!(stats[0].unique_delivered(), 2);
    }

    #[test]
    fn accounting_invariant_holds() {
        let ch = RadioChannel::paper_default();
        let a = [0.0, 1.0, 2.0, 2.001];
        let b = [1.0005, 3.0];
        let stats = ch.arbitrate(
            (0.0, 0.0),
            &[trace((5.0, 0.0), &a), trace((100.0, 0.0), &b)],
        );
        for s in &stats {
            assert_eq!(s.attempted, s.delivered + s.collided + s.out_of_range);
            assert!(s.duplicates <= s.delivered);
        }
    }

    #[test]
    fn zero_interference_range_disables_collisions_even_co_located() {
        let ch = RadioChannel::ideal();
        let t = [1.0];
        let stats = ch.arbitrate((0.0, 0.0), &[trace((0.0, 0.0), &t), trace((0.0, 0.0), &t)]);
        assert_eq!(stats[0].collided + stats[1].collided, 0);
    }

    #[test]
    fn fingerprints_separate_channel_variants() {
        let base = RadioChannel::paper_default();
        assert_eq!(
            base.fingerprint(),
            RadioChannel::paper_default().fingerprint()
        );
        assert_ne!(base.fingerprint(), RadioChannel::ideal().fingerprint());
        assert_ne!(
            base.fingerprint(),
            base.clone().with_slot(2.0).fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn airtime_must_be_positive() {
        let _ = RadioChannel::paper_default().with_airtime(0.0);
    }

    #[test]
    fn indexed_matches_naive_on_hidden_terminals() {
        let ch = RadioChannel::paper_default()
            .with_interference_range(15.0)
            .with_delivery_range(f64::INFINITY);
        let a = [1.0, 7.0, 7.003];
        let b = [1.0 + ch.airtime_s * 0.5, 12.0];
        let c = [1.0 + ch.airtime_s * 0.9, 7.001];
        let fleet = [
            trace((-10.0, 0.0), &a),
            trace((0.0, 0.0), &b),
            trace((10.0, 0.0), &c),
        ];
        let sink = (0.0, 0.0);
        assert_eq!(ch.arbitrate(sink, &fleet), ch.arbitrate_naive(sink, &fleet));
    }

    #[test]
    fn indexed_handles_unsorted_and_empty_traces() {
        let ch = RadioChannel::paper_default();
        let unsorted = [5.0, 1.0, 3.0, 1.0]; // duplicates included
        let sorted = [1.0 + ch.airtime_s * 0.4];
        let quiet: [f64; 0] = [];
        let fleet = [
            trace((3.0, 0.0), &unsorted),
            trace((-3.0, 0.0), &sorted),
            trace((0.0, 5.0), &quiet),
        ];
        let sink = (0.0, 0.0);
        assert_eq!(ch.arbitrate(sink, &fleet), ch.arbitrate_naive(sink, &fleet));
        assert_eq!(ch.arbitrate(sink, &[]), Vec::new());
    }

    #[test]
    fn indexed_matches_naive_across_grid_cell_boundaries() {
        // Nodes straddling cell edges (positions at exact multiples of
        // the 10 m interference range) exercise the adjacent-cell lookup.
        let ch = RadioChannel::paper_default()
            .with_interference_range(10.0)
            .with_delivery_range(f64::INFINITY);
        let t0 = [1.0];
        let t1 = [1.0 + ch.airtime_s * 0.3];
        let t2 = [1.0 + ch.airtime_s * 0.6];
        let fleet = [
            trace((0.0, 0.0), &t0),
            trace((10.0, 0.0), &t1), // exactly on the range: interferes
            trace((20.0, 0.0), &t2), // next cell over: out of range of node 0
        ];
        let sink = (0.0, 0.0);
        let naive = ch.arbitrate_naive(sink, &fleet);
        assert_eq!(ch.arbitrate(sink, &fleet), naive);
        assert_eq!(naive[0].collided, 1);
        assert_eq!(naive[2].collided, 1, "collides with node 1, not node 0");
    }
}
