//! What certify and construct share: the fault profile, and the exact
//! wire counts of one live run read off its `NetRun` and `EventLog`.

use mstv_core::MessageCost;
use mstv_net::{FaultProfile, LogEvent, NetRun};

use crate::util::Metrics;

/// Drop 5%, duplicate 2%, hold frames back up to one step; no crashes.
pub const PROFILE: FaultProfile = FaultProfile {
    drop: 0.05,
    duplicate: 0.02,
    max_delay: 1,
    crash: 0.0,
    max_crashes: 0,
};

/// Exact counts of one run. Every field is a deterministic function of
/// the instance and the link seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCounts {
    pub cost: MessageCost,
    pub phases: [MessageCost; 3],
    pub start: u64,
    pub deliver: u64,
    pub tick: u64,
    pub crash: u64,
    pub log_text_bytes: u64,
}

impl WireCounts {
    pub fn of(run: &NetRun, log_text_bytes: usize) -> WireCounts {
        let (mut start, mut deliver, mut tick, mut crash) = (0, 0, 0, 0);
        for ev in &run.log.events {
            match ev {
                LogEvent::Start { .. } => start += 1,
                LogEvent::Deliver { .. } => deliver += 1,
                LogEvent::Tick { .. } => tick += 1,
                LogEvent::Crash { .. } => crash += 1,
                LogEvent::Round => {}
            }
        }
        WireCounts {
            cost: run.cost,
            phases: [run.phases.ghs, run.phases.marker, run.phases.verify],
            start,
            deliver,
            tick,
            crash,
            log_text_bytes: log_text_bytes as u64,
        }
    }

    pub fn dispatches(&self) -> u64 {
        self.start + self.deliver + self.tick + self.crash
    }

    /// Rounds, and messages and bits sent per node of an `n`-node
    /// instance.
    pub fn per_node(&self, n: usize, m: &mut Metrics) {
        m.insert("net.rounds", self.cost.rounds as f64);
        m.insert("net.msgs_per_node", self.cost.msgs as f64 / n as f64);
        m.insert("net.bits_per_node", self.cost.bits as f64 / n as f64);
    }

    /// The per-layer counts of the `net` layer, plus the dispatch rate
    /// over `live_ms` of router time.
    pub fn layers(&self, live_ms: f64, m: &mut Metrics) {
        m.insert("net.dispatch_start", self.start as f64);
        m.insert("net.dispatch_deliver", self.deliver as f64);
        m.insert("net.dispatch_tick", self.tick as f64);
        m.insert(
            "net.useful_dispatch_ratio",
            self.deliver as f64 / self.dispatches().max(1) as f64,
        );
        m.insert(
            "net.dispatch_per_s",
            self.dispatches() as f64 / (live_ms / 1e3).max(1e-9),
        );
        m.insert(
            "net.delivered_per_sent",
            self.deliver as f64 / self.cost.msgs.max(1) as f64,
        );
        m.insert("net.log_text_bytes", self.log_text_bytes as f64);
        for (keys, c) in PHASE_KEYS.iter().zip(&self.phases) {
            m.insert(keys[0], c.msgs as f64);
            m.insert(keys[1], c.bits as f64);
            m.insert(keys[2], c.rounds as f64);
        }
    }
}

/// `[msgs, bits, rounds]` metric names of the GHS, marker and verify
/// phases, in `PhaseCost` order.
const PHASE_KEYS: [[&str; 3]; 3] = [
    ["net.ghs_msgs", "net.ghs_bits", "net.ghs_rounds"],
    ["net.marker_msgs", "net.marker_bits", "net.marker_rounds"],
    ["net.verify_msgs", "net.verify_bits", "net.verify_rounds"],
];
