//! Event-level network model: routed messages with per-link occupancy
//! (contention), used by the simulator to time each communication phase.
//! One healthy walk and one fault walk serve every interconnect, routing
//! without allocation: the healthy walk takes each route's link slots
//! from [`hpf_machines::Topology::route_into`], the fault walk takes its
//! links from [`hpf_machines::Topology::route_links_into`] so that link
//! faults match per link.
//!
//! This is deliberately *richer* than the analytic collective model the
//! predictor uses — contention and per-hop effects are exactly the kind of
//! behaviour a static model abstracts away, and they are one honest source
//! of prediction error in the reproduction.

use hpf_machines::Topology;
use machine::{CommComponent, FaultPlan, LinkState};
use rand::rngs::StdRng;
use rand::Rng;

/// One message to deliver within a communication phase.
#[derive(Debug, Clone, Copy)]
pub struct Message {
    pub from: usize,
    pub to: usize,
    pub bytes: u64,
}

/// Outcome of simulating one phase.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Completion time of each node (seconds from phase start).
    pub node_done: Vec<f64>,
    /// Max over nodes.
    pub duration: f64,
}

/// Startup latency and wire time of one message under `comm`.
fn message_cost(comm: &CommComponent, bytes: u64) -> (f64, f64) {
    let startup = if bytes <= comm.short_threshold {
        comm.short_latency_s
    } else {
        comm.long_latency_s
    };
    (startup, bytes as f64 * comm.per_byte_s)
}

/// Simulate the delivery of a set of messages injected simultaneously at
/// phase start, routed over `topo`. Links are half-duplex channels;
/// messages crossing the same link slot serialize (store-and-forward per
/// link occupancy). Each traversed slot adds `wire + hop` to the
/// occupancy start; that f64 association order is part of every golden.
pub fn simulate_phase(
    topo: &dyn Topology,
    comm: &CommComponent,
    nodes: usize,
    messages: &[Message],
) -> PhaseTiming {
    let limit = nodes.min(topo.nodes());
    let mut node_done = vec![0.0f64; nodes];
    let mut free = vec![0.0f64; topo.link_slots()];
    let mut route = Vec::new();
    // Deterministic order: messages as given (phase algorithms inject in a
    // fixed order already).
    for m in messages {
        if m.from == m.to || m.from >= limit || m.to >= limit {
            continue;
        }
        let (startup, wire) = message_cost(comm, m.bytes);
        let mut t = node_done[m.from] + startup;
        route.clear();
        topo.route_into(m.from, m.to, &mut route);
        for &i in &route {
            let start = t.max(free[i]);
            let end = start + wire + comm.per_hop_s;
            free[i] = end;
            t = end;
        }
        // Sender is busy only for injection; receiver blocks until arrival.
        node_done[m.from] = node_done[m.from].max(node_done[m.from] + startup + wire);
        node_done[m.to] = node_done[m.to].max(t);
    }
    PhaseTiming::from_node_done(node_done)
}

impl PhaseTiming {
    fn from_node_done(node_done: Vec<f64>) -> PhaseTiming {
        let duration = node_done.iter().copied().fold(0.0, f64::max);
        PhaseTiming {
            node_done,
            duration,
        }
    }
}

/// Counts of fault events observed while delivering messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Timed-out transmissions that were resent.
    pub retries: u64,
    /// Messages rerouted around a severed link.
    pub detours: u64,
    /// Messages that could not reach their destination at all (network
    /// partitioned by severed links).
    pub undeliverable: u64,
}

impl FaultStats {
    pub fn any(&self) -> bool {
        self.retries + self.detours + self.undeliverable > 0
    }

    pub fn absorb(&mut self, other: FaultStats) {
        self.retries += other.retries;
        self.detours += other.detours;
        self.undeliverable += other.undeliverable;
    }
}

/// Replace `route` with the links of a shortest detour from `from` to `to`
/// that crosses no link `plan` severs: a breadth-first search over
/// `vertex_neighbors`, explored in list order so the same detour is found
/// every time. Returns `false`, leaving `route` untouched, when the
/// severed links partition `from` from `to`.
fn detour(
    topo: &dyn Topology,
    plan: &FaultPlan,
    from: usize,
    to: usize,
    route: &mut Vec<(usize, usize)>,
) -> bool {
    let mut prev = vec![usize::MAX; topo.vertices()];
    prev[from] = from;
    let mut queue = std::collections::VecDeque::from([from]);
    'search: while let Some(v) = queue.pop_front() {
        for w in topo.vertex_neighbors(v) {
            if prev[w] == usize::MAX && plan.link_state(v, w) != Some(LinkState::Down) {
                prev[w] = v;
                if w == to {
                    break 'search;
                }
                queue.push_back(w);
            }
        }
    }
    if prev[to] == usize::MAX {
        return false;
    }
    route.clear();
    let mut v = to;
    while v != from {
        route.push((prev[v], v));
        v = prev[v];
    }
    route.reverse();
    true
}

/// Fault-injected variant of [`simulate_phase`]: each message is subject to
/// the plan's loss probability (timeout + exponential-backoff resend, per
/// [`machine::RetryPolicy`]), degraded links stretch wire time, and severed
/// links force detour routes. Deterministic for a given `rng` state.
///
/// A link fault names a vertex pair and applies to the hops that cross it,
/// in either direction. The walk therefore routes by links
/// (`route_links_into`, which is `route_into` before `link_index`) and
/// takes each hop's slot from its link: on the crossbar, whose slots are
/// receiver ports shared by every link into a node, a fault on `a-b`
/// touches only the traffic between `a` and `b`.
pub fn simulate_phase_faulty(
    topo: &dyn Topology,
    comm: &CommComponent,
    nodes: usize,
    messages: &[Message],
    plan: &FaultPlan,
    rng: &mut StdRng,
) -> (PhaseTiming, FaultStats) {
    let limit = nodes.min(topo.nodes());
    let mut node_done = vec![0.0f64; nodes];
    let mut free = vec![0.0f64; topo.link_slots()];
    let mut route = Vec::new();
    let mut stats = FaultStats::default();

    for m in messages {
        if m.from == m.to || m.from >= limit || m.to >= limit {
            continue;
        }
        let (startup, wire) = message_cost(comm, m.bytes);
        route.clear();
        topo.route_links_into(m.from, m.to, &mut route);
        if route
            .iter()
            .any(|&(a, b)| plan.link_state(a, b) == Some(LinkState::Down))
        {
            if !detour(topo, plan, m.from, m.to, &mut route) {
                // Partitioned: the sender burns its full retry budget.
                stats.undeliverable += 1;
                let mut waited = 0.0;
                for k in 0..plan.retry.max_retries {
                    waited += plan.retry.timeout_s * plan.retry.backoff.powi(k as i32);
                }
                node_done[m.from] = node_done[m.from].max(node_done[m.from] + startup + waited);
                continue;
            }
            stats.detours += 1;
        }

        let mut inject = node_done[m.from];
        for attempt in 0..=plan.retry.max_retries {
            // The transmission occupies links whether or not it is lost.
            let mut t = inject + startup;
            for &(a, b) in &route {
                let slow = match plan.link_state(a, b) {
                    Some(LinkState::Degraded { factor }) => factor.max(1.0),
                    _ => 1.0,
                };
                let i = topo.link_index(a, b);
                let start = t.max(free[i]);
                let end = start + wire * slow + comm.per_hop_s;
                free[i] = end;
                t = end;
            }
            let lost = plan.loss_prob > 0.0
                && attempt < plan.retry.max_retries
                && rng.gen_bool(plan.loss_prob.clamp(0.0, 1.0));
            if lost {
                stats.retries += 1;
                // Sender notices via timeout, backs off, resends.
                inject += startup + plan.retry.timeout_s * plan.retry.backoff.powi(attempt as i32);
                continue;
            }
            node_done[m.from] = node_done[m.from].max(inject + startup + wire);
            node_done[m.to] = node_done[m.to].max(t);
            break;
        }
    }
    (PhaseTiming::from_node_done(node_done), stats)
}

/// Build the message list for one stage-structured collective. The
/// schedules do not depend on the interconnect: stage-structured ones run
/// over the `dim` dimensions of a virtual hypercube, and the topology only
/// decides how each message is routed.
pub mod patterns {
    use super::Message;

    /// Nearest-neighbor exchange in both directions between consecutive
    /// nodes of a ring (grid-dimension shift).
    pub fn shift(nodes: usize, bytes: u64) -> Vec<Message> {
        let mut ms = Vec::new();
        if nodes < 2 {
            return ms;
        }
        for n in 0..nodes {
            let up = (n + 1) % nodes;
            ms.push(Message {
                from: n,
                to: up,
                bytes,
            });
            ms.push(Message {
                from: up,
                to: n,
                bytes,
            });
        }
        ms
    }

    /// Recursive-halving reduction: `dim` stages of pairwise exchange
    /// across one dimension each. Returns per-stage message lists (stages
    /// synchronize); a stage with no partner inside `nodes` is empty.
    pub fn reduce_stages(dim: u32, nodes: usize, bytes: u64) -> Vec<Vec<Message>> {
        let mut stages = Vec::new();
        for d in 0..dim {
            let mut ms = Vec::new();
            for n in 0..nodes {
                let partner = n ^ (1 << d);
                if partner < nodes {
                    ms.push(Message {
                        from: n,
                        to: partner,
                        bytes,
                    });
                }
            }
            stages.push(ms);
        }
        stages
    }

    /// Spanning-tree broadcast from node 0: stage d sends across dim d.
    pub fn broadcast_stages(dim: u32, nodes: usize, bytes: u64) -> Vec<Vec<Message>> {
        let mut stages = Vec::new();
        for d in 0..dim {
            let mut ms = Vec::new();
            for n in 0..nodes {
                // nodes with all bits above d clear have the data
                if n & !((1usize << (d + 1)) - 1) == 0 && n < (1 << d) + (1 << d) {
                    let to = n | (1 << d);
                    if n < (1 << d) && to < nodes {
                        ms.push(Message { from: n, to, bytes });
                    }
                }
            }
            stages.push(ms);
        }
        stages
    }

    /// All-to-all personalized exchange: p-1 rounds of pairwise exchange
    /// (XOR schedule — classic hypercube algorithm).
    pub fn all_to_all_rounds(nodes: usize, bytes_per_pair: u64) -> Vec<Vec<Message>> {
        let mut rounds = Vec::new();
        for r in 1..nodes {
            let mut ms = Vec::new();
            for n in 0..nodes {
                let partner = n ^ r;
                if partner < nodes {
                    ms.push(Message {
                        from: n,
                        to: partner,
                        bytes: bytes_per_pair,
                    });
                }
            }
            rounds.push(ms);
        }
        rounds
    }

    /// Unstructured gather: every node receives from its partners across
    /// the first `min(dim, 2)` dimensions.
    pub fn gather(dim: u32, nodes: usize, bytes: u64) -> Vec<Message> {
        let mut ms = Vec::new();
        for n in 0..nodes {
            for d in 0..dim.min(2) {
                let partner = n ^ (1 << d);
                if partner < nodes {
                    ms.push(Message {
                        from: partner,
                        to: n,
                        bytes,
                    });
                }
            }
        }
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machines::topology::HypercubeTopo;
    use machine::{ipsc860_comm, Hypercube};

    pub(super) fn cube(dim: u32) -> HypercubeTopo {
        HypercubeTopo {
            cube: Hypercube { dim },
        }
    }

    pub(super) fn msg(from: usize, to: usize, bytes: u64) -> Message {
        Message { from, to, bytes }
    }

    #[test]
    fn single_message_time() {
        let comm = ipsc860_comm();
        let t = simulate_phase(&cube(3), &comm, 8, &[msg(0, 1, 1024)]);
        let expect = comm.long_latency_s + 1024.0 * comm.per_byte_s + comm.per_hop_s;
        assert!(
            (t.duration - expect).abs() < 1e-9,
            "{} vs {expect}",
            t.duration
        );
    }

    #[test]
    fn contention_serializes_shared_links() {
        let comm = ipsc860_comm();
        // two messages crossing the same link 0-1
        let t2 = simulate_phase(&cube(2), &comm, 4, &[msg(0, 1, 4096), msg(0, 1, 4096)]);
        let t1 = simulate_phase(&cube(2), &comm, 4, &[msg(0, 1, 4096)]);
        assert!(
            t2.duration > 1.5 * t1.duration,
            "{} vs {}",
            t2.duration,
            t1.duration
        );
    }

    #[test]
    fn disjoint_messages_overlap() {
        let comm = ipsc860_comm();
        let par = simulate_phase(&cube(2), &comm, 4, &[msg(0, 1, 4096), msg(2, 3, 4096)]);
        let one = simulate_phase(&cube(2), &comm, 4, &[msg(0, 1, 4096)]);
        assert!((par.duration - one.duration).abs() < 1e-9);
    }

    #[test]
    fn multi_hop_costs_more() {
        let comm = ipsc860_comm();
        let far = simulate_phase(&cube(3), &comm, 8, &[msg(0, 7, 512)]);
        let near = simulate_phase(&cube(3), &comm, 8, &[msg(0, 1, 512)]);
        assert!(far.duration > near.duration);
    }

    #[test]
    fn shift_pattern_shape() {
        let ms = patterns::shift(4, 100);
        assert_eq!(ms.len(), 8); // 4 ups + 4 downs
        let ms1 = patterns::shift(1, 100);
        assert!(ms1.is_empty());
    }

    #[test]
    fn reduce_stages_cover_dims() {
        let st = patterns::reduce_stages(3, 8, 4);
        assert_eq!(st.len(), 3);
        assert_eq!(st[0].len(), 8);
        // Stages beyond the participants stay, empty: the schedule
        // dimension, not the node count, fixes the stage count.
        let st = patterns::reduce_stages(3, 2, 4);
        assert_eq!(st.len(), 3);
        assert!(st[1].is_empty() && st[2].is_empty());
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let st = patterns::broadcast_stages(3, 8, 4);
        let mut have = [false; 8];
        have[0] = true;
        for stage in &st {
            for m in stage {
                assert!(have[m.from], "sender {} must already hold data", m.from);
                have[m.to] = true;
            }
        }
        assert!(have.iter().all(|&h| h));
    }

    #[test]
    fn all_to_all_rounds_pair_everyone() {
        let rounds = patterns::all_to_all_rounds(4, 64);
        assert_eq!(rounds.len(), 3);
        // each round pairs each node exactly once
        for r in &rounds {
            assert_eq!(r.len(), 4);
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{cube, msg};
    use super::*;
    use hpf_machines::topology::{CrossbarTopo, FatTreeTopo, TorusTopo};
    use machine::ipsc860_comm;
    use rand::SeedableRng;

    /// The fault walk over `topo` under `plan`.
    fn faulty(
        topo: &dyn Topology,
        nodes: usize,
        ms: &[Message],
        plan: &FaultPlan,
    ) -> (PhaseTiming, FaultStats) {
        let mut rng = StdRng::seed_from_u64(0xFA17);
        simulate_phase_faulty(topo, &ipsc860_comm(), nodes, ms, plan, &mut rng)
    }

    #[test]
    fn zero_plan_matches_healthy_path_exactly() {
        let ms = [msg(0, 5, 2048), msg(1, 6, 64), msg(3, 3, 9), msg(7, 2, 700)];
        let topos: [&dyn Topology; 4] = [
            &cube(3),
            &TorusTopo {
                dims: vec![2, 2, 2],
            },
            &FatTreeTopo { nodes: 8, radix: 4 },
            &CrossbarTopo { nodes: 8 },
        ];
        for topo in topos {
            let healthy = simulate_phase(topo, &ipsc860_comm(), 8, &ms);
            let (faulty, stats) = faulty(topo, 8, &ms, &FaultPlan::none());
            assert_eq!(healthy.node_done, faulty.node_done, "{}", topo.kind());
            assert_eq!(healthy.duration, faulty.duration);
            assert!(!stats.any());
        }
    }

    #[test]
    fn degraded_link_stretches_crossing_messages_only() {
        let plan = FaultPlan::degraded_link(0, 1, 4.0);
        let crossing = [msg(0, 1, 4096)];
        let (t_cross, _) = faulty(&cube(2), 4, &crossing, &plan);
        let (t_avoid, _) = faulty(&cube(2), 4, &[msg(2, 3, 4096)], &plan);
        let base = simulate_phase(&cube(2), &ipsc860_comm(), 4, &crossing);
        assert!(
            t_cross.duration > base.duration * 1.5,
            "{} vs {}",
            t_cross.duration,
            base.duration
        );
        assert_eq!(t_avoid.duration, base.duration);
    }

    #[test]
    fn severed_link_detours_and_still_delivers() {
        let ms = [msg(0, 1, 512)];
        let (t, stats) = faulty(&cube(3), 8, &ms, &FaultPlan::link_down(0, 1));
        assert_eq!(stats.detours, 1);
        assert_eq!(stats.undeliverable, 0);
        // Delivered, later than the direct single-hop send.
        let direct = simulate_phase(&cube(3), &ipsc860_comm(), 8, &ms);
        assert!(t.node_done[1] > direct.node_done[1]);
    }

    #[test]
    fn severed_link_detours_only_the_crossing_message() {
        // 0->1 crosses the severed link and detours; 2->3 keeps its route.
        let ms = [msg(0, 1, 512), msg(2, 3, 512)];
        let (_, stats) = faulty(&cube(3), 8, &ms, &FaultPlan::link_down(0, 1));
        assert_eq!(stats.detours, 1);
    }

    #[test]
    fn partition_is_reported_not_hung() {
        // 2 nodes, single link
        let (t, stats) = faulty(&cube(1), 2, &[msg(0, 1, 512)], &FaultPlan::link_down(0, 1));
        assert_eq!(stats.undeliverable, 1);
        // Receiver never completes; sender burned its retry budget.
        assert_eq!(t.node_done[1], 0.0);
        assert!(t.node_done[0] > 0.0);
    }

    #[test]
    fn loss_forces_retries_deterministically() {
        let plan = FaultPlan::lossy(0.4);
        let ms: Vec<Message> = (0..8).map(|n| msg(n, (n + 1) % 8, 256)).collect();
        let (t1, s1) = faulty(&cube(3), 8, &ms, &plan);
        let (t2, s2) = faulty(&cube(3), 8, &ms, &plan);
        assert!(
            s1.retries > 0,
            "p=0.4 over 8 messages should lose at least one"
        );
        assert_eq!(s1, s2);
        assert_eq!(t1.node_done, t2.node_done);
        // Retries only ever add time.
        let healthy = simulate_phase(&cube(3), &ipsc860_comm(), 8, &ms);
        assert!(t1.duration >= healthy.duration);
    }

    #[test]
    fn torus_detours_around_a_severed_ring_link() {
        let torus = TorusTopo { dims: vec![4, 4] };
        let ms = [msg(0, 1, 512)];
        let (t, stats) = faulty(&torus, 16, &ms, &FaultPlan::link_down(0, 1));
        assert_eq!((stats.detours, stats.undeliverable), (1, 0));
        let direct = simulate_phase(&torus, &ipsc860_comm(), 16, &ms);
        assert!(t.node_done[1] > direct.node_done[1]);
    }

    #[test]
    fn fat_tree_node_link_down_isolates_the_node() {
        // Node 0 hangs off leaf switch vertex 8 by its only link.
        let tree = FatTreeTopo { nodes: 8, radix: 4 };
        let ms = [msg(0, 5, 512), msg(1, 5, 512)];
        let (_, stats) = faulty(&tree, 8, &ms, &FaultPlan::link_down(0, 8));
        assert_eq!((stats.detours, stats.undeliverable), (0, 1));
        // A degraded leaf up-link stretches inter-leaf traffic only.
        let slow = FaultPlan::degraded_link(8, 10, 4.0);
        let (inter, _) = faulty(&tree, 8, &[msg(0, 5, 4096)], &slow);
        let (intra, _) = faulty(&tree, 8, &[msg(0, 3, 4096)], &slow);
        let comm = ipsc860_comm();
        assert!(inter.duration > simulate_phase(&tree, &comm, 8, &[msg(0, 5, 4096)]).duration);
        assert_eq!(
            intra.duration,
            simulate_phase(&tree, &comm, 8, &[msg(0, 3, 4096)]).duration
        );
    }

    #[test]
    fn crossbar_link_fault_touches_only_its_pair() {
        // Receiver ports are shared by every link into a node, but a
        // fault on 0-1 slows or cuts the traffic between 0 and 1 only.
        let xbar = CrossbarTopo { nodes: 4 };
        let comm = ipsc860_comm();
        let plan = FaultPlan::degraded_link(0, 1, 4.0);
        for ms in [[msg(0, 1, 4096)], [msg(1, 0, 4096)]] {
            let (t, _) = faulty(&xbar, 4, &ms, &plan);
            assert!(t.duration > simulate_phase(&xbar, &comm, 4, &ms).duration);
        }
        for ms in [[msg(2, 1, 4096)], [msg(3, 0, 4096)], [msg(0, 2, 4096)]] {
            let (t, _) = faulty(&xbar, 4, &ms, &plan);
            assert_eq!(t.duration, simulate_phase(&xbar, &comm, 4, &ms).duration);
        }
        // Severed, 0-1 detours through another node; 2->1 and 0->3 do not.
        let ms = [
            msg(0, 1, 512),
            msg(1, 0, 512),
            msg(2, 1, 512),
            msg(0, 3, 512),
        ];
        let (_, stats) = faulty(&xbar, 4, &ms, &FaultPlan::link_down(0, 1));
        assert_eq!((stats.detours, stats.undeliverable), (2, 0));
    }
}

#[cfg(test)]
mod network_properties {
    use super::tests::cube;
    use super::*;
    use machine::ipsc860_comm;
    use proptest::prelude::*;

    proptest! {
        /// Phase duration is at least the cost of its largest message and at
        /// most the fully serialized sum; all node completion times are
        /// non-negative and bounded by the phase duration.
        #[test]
        fn phase_duration_bounds(
            dim in 1u32..5,
            msgs in proptest::collection::vec((0usize..16, 0usize..16, 1u64..50_000), 1..12),
        ) {
            let comm = ipsc860_comm();
            let topo = cube(dim);
            let nodes = topo.nodes();
            let messages: Vec<Message> = msgs
                .iter()
                .map(|&(f, t, b)| Message { from: f % nodes, to: t % nodes, bytes: b })
                .collect();
            let timing = simulate_phase(&topo, &comm, nodes, &messages);

            let single = |m: &Message| -> f64 {
                if m.from == m.to {
                    return 0.0;
                }
                let (startup, wire) = message_cost(&comm, m.bytes);
                let hops = topo.hops(m.from, m.to) as f64;
                startup + hops * (wire + comm.per_hop_s)
            };
            let max_single = messages.iter().map(&single).fold(0.0f64, f64::max);
            let serial_sum: f64 = messages.iter().map(single).sum();

            prop_assert!(timing.duration + 1e-12 >= max_single,
                "duration {} < max single {max_single}", timing.duration);
            // Upper bound is loose (sender-serialization can interleave with
            // link waits) — 2x the serial sum is a safe envelope.
            prop_assert!(timing.duration <= 2.0 * serial_sum + 1e-9,
                "duration {} > 2x serial {serial_sum}", timing.duration);
            for t in &timing.node_done {
                prop_assert!(*t >= 0.0 && *t <= timing.duration + 1e-12);
            }
        }

        /// Self-messages and out-of-range endpoints are ignored, never panic.
        #[test]
        fn degenerate_messages_ignored(n in 0usize..10, b in 0u64..1000) {
            let comm = ipsc860_comm();
            let t = simulate_phase(
                &cube(2),
                &comm,
                4,
                &[Message { from: n % 5, to: n % 5, bytes: b }],
            );
            prop_assert_eq!(t.duration, 0.0);
        }
    }
}
