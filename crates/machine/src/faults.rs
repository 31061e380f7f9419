//! Fault plans: deterministic, replayable degradations of the abstracted
//! machine.
//!
//! A [`FaultPlan`] describes *what is wrong* with the machine — slowed
//! nodes, degraded or severed interconnect links, a message-loss probability —
//! together with the NX-layer [`RetryPolicy`] that recovers from transient
//! loss. The same plan is consumed from both sides of the paper's
//! methodology:
//!
//! * the discrete-event simulator (`ipsc-sim`) *injects* the faults into
//!   its network walk (per-message loss draws, timeout/backoff
//!   retransmission, detour routing around severed links), playing the role
//!   of the degraded physical machine, and
//! * the interpretation engine consumes [`MachineModel::degrade`], an
//!   analytic worst-case re-parameterization of the SAU components under
//!   the same plan, playing the role of the predictor.
//!
//! Comparing the two extends the paper's predicted-vs-measured question to
//! degraded operating points. Plans are pure data with a fixed `seed`: the
//! simulator's fault draws are a deterministic function of (plan, config),
//! so every experiment is replayable.

use crate::MachineModel;
use serde::{Deserialize, Serialize};

/// Health of one interconnect link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkState {
    /// Link operates at `1/factor` of its healthy bandwidth (`factor > 1`).
    Degraded { factor: f64 },
    /// Link is severed; traffic must detour around it.
    Down,
}

/// A fault on the undirected link between `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    pub a: usize,
    pub b: usize,
    pub state: LinkState,
}

/// A fault on one compute node: it runs `slowdown`× slower than spec
/// (thermal throttling, competing daemon load, a flaky memory bank).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeFault {
    pub node: usize,
    pub slowdown: f64,
}

/// Timeout/retransmission discipline for point-to-point sends under loss:
/// a sender that has not been acknowledged within `timeout_s` resends,
/// backing off exponentially, up to `max_retries` resends. After the final
/// attempt the message is delivered anyway (the send is assumed to succeed
/// at the protocol level eventually; the walk must terminate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    pub timeout_s: f64,
    pub max_retries: u32,
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_s: 500e-6,
            max_retries: 4,
            backoff: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Expected (transmission count, total timeout wait in seconds) for a
    /// per-attempt loss probability `p`, with delivery forced after the
    /// final attempt. This is the analytic counterpart of the simulator's
    /// per-message retry loop.
    pub fn expectations(&self, p: f64) -> (f64, f64) {
        let p = p.clamp(0.0, 0.999);
        let mut e_tx = 0.0;
        let mut e_wait = 0.0;
        let mut reach = 1.0; // probability this attempt happens
        for k in 0..=self.max_retries {
            e_tx += reach;
            if k < self.max_retries {
                e_wait += reach * p * self.timeout_s * self.backoff.powi(k as i32);
                reach *= p;
            }
        }
        (e_tx, e_wait)
    }
}

/// A complete fault-injection plan. `FaultPlan::none()` is the healthy
/// machine and is guaranteed to leave every consumer on its unfaulted code
/// path (bit-identical results to a build without this module).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Display name for reports.
    pub name: String,
    /// Seed for the simulator's fault draws (loss), independent of the
    /// load-jitter stream so adding faults never perturbs the healthy RNG.
    pub seed: u64,
    pub node_faults: Vec<NodeFault>,
    pub link_faults: Vec<LinkFault>,
    /// Probability that any single point-to-point transmission is lost.
    pub loss_prob: f64,
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The healthy machine.
    pub fn none() -> FaultPlan {
        FaultPlan {
            name: "none".into(),
            seed: 0xFA17,
            node_faults: Vec::new(),
            link_faults: Vec::new(),
            loss_prob: 0.0,
            retry: RetryPolicy::default(),
        }
    }

    /// One link running at `1/factor` bandwidth.
    pub fn degraded_link(a: usize, b: usize, factor: f64) -> FaultPlan {
        FaultPlan {
            name: format!("degraded-link {a}-{b} x{factor}"),
            link_faults: vec![LinkFault {
                a,
                b,
                state: LinkState::Degraded { factor },
            }],
            ..FaultPlan::none()
        }
    }

    /// One severed link.
    pub fn link_down(a: usize, b: usize) -> FaultPlan {
        FaultPlan {
            name: format!("link-down {a}-{b}"),
            link_faults: vec![LinkFault {
                a,
                b,
                state: LinkState::Down,
            }],
            ..FaultPlan::none()
        }
    }

    /// One node running `slowdown`× slower.
    pub fn slow_node(node: usize, slowdown: f64) -> FaultPlan {
        FaultPlan {
            name: format!("slow-node {node} x{slowdown}"),
            node_faults: vec![NodeFault { node, slowdown }],
            ..FaultPlan::none()
        }
    }

    /// Uniform message loss with the default retry policy.
    pub fn lossy(loss_prob: f64) -> FaultPlan {
        FaultPlan {
            name: format!("lossy p={loss_prob}"),
            loss_prob,
            ..FaultPlan::none()
        }
    }

    /// True when the plan injects nothing: consumers must take their
    /// original, unfaulted code path (this is what keeps the zero-fault
    /// experiment bit-identical to the baseline tables).
    pub fn is_zero(&self) -> bool {
        self.node_faults.is_empty() && self.link_faults.is_empty() && self.loss_prob <= 0.0
    }

    /// Slowdown factor of `node` (1.0 when healthy). Multiple faults on the
    /// same node compound by taking the worst.
    pub fn slowdown(&self, node: usize) -> f64 {
        self.node_faults
            .iter()
            .filter(|f| f.node == node)
            .map(|f| f.slowdown)
            .fold(1.0, f64::max)
            .max(1.0)
    }

    /// Worst node slowdown anywhere in the plan. Loosely: SPMD phases
    /// synchronize, so the slowest node gates every phase.
    pub fn max_slowdown(&self) -> f64 {
        self.node_faults
            .iter()
            .map(|f| f.slowdown)
            .fold(1.0, f64::max)
            .max(1.0)
    }

    /// State of the undirected link (a, b), if faulted.
    pub fn link_state(&self, a: usize, b: usize) -> Option<LinkState> {
        let key = (a.min(b), a.max(b));
        self.link_faults
            .iter()
            .find(|f| (f.a.min(f.b), f.a.max(f.b)) == key)
            .map(|f| f.state)
    }

    /// True when any link in the plan is severed.
    pub fn any_link_down(&self) -> bool {
        self.link_faults.iter().any(|f| f.state == LinkState::Down)
    }

    /// Whether collectives must insert stage-level recovery barriers
    /// (anything that can force a retransmission mid-stage).
    pub fn needs_recovery(&self) -> bool {
        self.loss_prob > 0.0 || self.any_link_down()
    }

    /// Analytic communication degradation on a `nodes`-node hypercube:
    /// `(latency_scale, wire_scale, extra_s)` such that a healthy transfer
    /// with startup `l` and wire time `w` costs about
    /// `l·latency_scale + w·wire_scale + extra_s` under this plan.
    ///
    /// * expected retransmissions repeat the whole send (startup included)
    ///   and add the expected timeout wait ([`RetryPolicy::expectations`]);
    /// * a degraded link stretches only the traffic crossing it — under
    ///   uniform collective traffic one of the cube's links carries a
    ///   `1/2^dim` share of the wire time, so the factor is weighted by
    ///   that share rather than applied globally;
    /// * a severed link doubles the traffic on its two detour links (the
    ///   same share-weighted surcharge, over two links) and costs two extra
    ///   hops per crossing message;
    /// * anything that can disturb a collective stage (loss, severed links)
    ///   charges one stage-recovery resynchronization.
    pub fn comm_degradation(&self, comm: &crate::CommComponent, nodes: usize) -> (f64, f64, f64) {
        let (e_tx, e_wait) = self.retry.expectations(self.loss_prob);
        let share = 1.0 / crate::Hypercube::fitting(nodes.max(2)).nodes() as f64;
        let mut wire_scale = 1.0f64;
        let mut extra = e_wait;
        for f in &self.link_faults {
            match f.state {
                LinkState::Degraded { factor } => {
                    wire_scale += (factor.max(1.0) - 1.0) * share;
                }
                LinkState::Down => {
                    wire_scale += 2.0 * share;
                    extra += 2.0 * comm.per_hop_s;
                }
            }
        }
        if self.needs_recovery() {
            extra += comm.sync_overhead_s;
        }
        (e_tx, e_tx * wire_scale, extra)
    }
}

impl MachineModel {
    /// Analytic degraded-mode re-abstraction of the machine under `plan`:
    /// the SAU parameters the interpretation engine consults are rescaled
    /// so that predictions model the faulted machine. Zero-fault plans
    /// return an identical clone.
    pub fn degrade(&self, plan: &FaultPlan) -> MachineModel {
        if plan.is_zero() {
            return self.clone();
        }
        let mut m = self.clone();
        m.name = format!("{} [{}]", self.name, plan.name);

        // Processing/memory: the slowest node gates every synchronized
        // SPMD phase, so the whole abstraction runs at its clock.
        let slow = plan.max_slowdown();
        if slow > 1.0 {
            m.node_processing.clock_mhz /= slow;
            m.node_memory.clock_mhz /= slow;
        }

        // Communication: retransmissions and link degradation. Startup
        // latencies scale only with retransmissions; per-byte wire time
        // additionally pays the worst-link factor.
        let (lat_scale, wire_scale, extra) = plan.comm_degradation(&self.comm, self.nodes);
        m.comm.short_latency_s = m.comm.short_latency_s * lat_scale + extra;
        m.comm.long_latency_s = m.comm.long_latency_s * lat_scale + extra;
        m.comm.per_byte_s *= wire_scale;
        m.comm.per_hop_s *= wire_scale;

        // The fitted collective models were benchmarked on the healthy
        // machine; rescale them by the same degradation so calibrated
        // predictions see the faults too (α is latency-like, β is
        // per-byte wire time).
        if let Some(cal) = &mut m.calibration {
            for pc in cal.comm.values_mut() {
                pc.small.alpha_s = pc.small.alpha_s * lat_scale + extra;
                pc.small.beta_s_per_byte *= wire_scale;
                pc.large.alpha_s = pc.large.alpha_s * lat_scale + extra;
                pc.large.beta_s_per_byte *= wire_scale;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipsc860;

    #[test]
    fn zero_plan_is_identity() {
        let m = ipsc860(8);
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        let d = m.degrade(&plan);
        assert_eq!(d.name, m.name);
        assert_eq!(d.comm.short_latency_s, m.comm.short_latency_s);
        assert_eq!(d.node_processing.clock_mhz, m.node_processing.clock_mhz);
    }

    #[test]
    fn slow_node_gates_processing() {
        let m = ipsc860(8);
        let d = m.degrade(&FaultPlan::slow_node(3, 2.0));
        assert_eq!(
            d.node_processing.clock_mhz,
            m.node_processing.clock_mhz / 2.0
        );
        assert_eq!(d.node_memory.clock_mhz, m.node_memory.clock_mhz / 2.0);
        // comm untouched by a pure node fault
        assert_eq!(d.comm.per_byte_s, m.comm.per_byte_s);
    }

    #[test]
    fn degraded_link_scales_wire_time() {
        let m = ipsc860(8);
        let d = m.degrade(&FaultPlan::degraded_link(0, 1, 4.0));
        // One link of the 8-node cube carries a 1/8 traffic share:
        // wire scale = 1 + (4-1)/8.
        assert_eq!(d.comm.per_byte_s, m.comm.per_byte_s * 1.375);
        assert!(d.comm.short_latency_s >= m.comm.short_latency_s);
        // compute untouched by a pure link fault
        assert_eq!(d.node_processing.clock_mhz, m.node_processing.clock_mhz);
    }

    #[test]
    fn loss_adds_expected_retransmissions() {
        let rp = RetryPolicy::default();
        let (tx0, w0) = rp.expectations(0.0);
        assert_eq!(tx0, 1.0);
        assert_eq!(w0, 0.0);
        let (tx, w) = rp.expectations(0.2);
        assert!(tx > 1.0 && tx < 1.3, "E[tx] {tx}");
        assert!(w > 0.0);
        // more loss, more retransmissions
        let (tx5, _) = rp.expectations(0.5);
        assert!(tx5 > tx);
    }

    #[test]
    fn link_state_is_undirected() {
        let plan = FaultPlan::degraded_link(2, 5, 3.0);
        assert!(plan.link_state(5, 2).is_some());
        assert!(plan.link_state(2, 5).is_some());
        assert!(plan.link_state(0, 1).is_none());
    }

    #[test]
    fn recovery_needed_only_for_loss_or_severed_links() {
        assert!(!FaultPlan::none().needs_recovery());
        assert!(!FaultPlan::degraded_link(0, 1, 2.0).needs_recovery());
        assert!(!FaultPlan::slow_node(0, 2.0).needs_recovery());
        assert!(FaultPlan::lossy(0.05).needs_recovery());
        assert!(FaultPlan::link_down(0, 1).needs_recovery());
    }

    #[test]
    fn degrade_rescales_calibration() {
        let mut m = ipsc860(4);
        let mut cal = crate::Calibration {
            compute_scale: 1.0,
            comm: Default::default(),
            io: Default::default(),
        };
        cal.comm.insert(
            crate::Calibration::key(crate::CollectiveOp::Reduce, 4),
            crate::PiecewiseCost {
                boundary: 100,
                small: crate::LinearCost {
                    alpha_s: 1e-4,
                    beta_s_per_byte: 1e-7,
                },
                large: crate::LinearCost {
                    alpha_s: 2e-4,
                    beta_s_per_byte: 2e-7,
                },
            },
        );
        m.calibration = Some(cal);
        let d = m.degrade(&FaultPlan::degraded_link(0, 1, 2.0));
        let t_healthy = m.collective_time(crate::CollectiveOp::Reduce, 4, 1024);
        let t_degraded = d.collective_time(crate::CollectiveOp::Reduce, 4, 1024);
        assert!(t_degraded > 1.05 * t_healthy, "{t_degraded} vs {t_healthy}");
    }
}
