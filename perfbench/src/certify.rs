//! `certify`: centralized certification at scale with frames carrying
//! full π_mst labels.
//!
//! One operation runs `MstScheme::marker_parallel`, wraps every node's
//! encoded certificate in the shared frame payload the wire sends,
//! drops the structured labeling, verifies the certificates live on the
//! events engine over a `LossyLink`, and serializes the run's event log
//! to text as `mstv net --log` does.
//! The last operation of every round first forges the fresh labeling
//! at `FORGERS` nodes, rotating the class through root, omega and bits.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mstv_core::{mst_configuration, MstScheme};
use mstv_graph::{ConfigGraph, NodeId, TreeState};
use mstv_labels::BitString;
use mstv_net::{
    forge_labeling, replay, run_verification_encoded_with, Engine, ForgeClass, LossyLink,
    MstWireScheme, NetConfig, NetRun,
};
use mstv_trees::ParallelConfig;

use crate::netrun::{WireCounts, PROFILE};
use crate::trace::Tracer;
use crate::util::{instance, median, ms_since, peak_rss_mib, subseed};
use crate::util::{Outcome, Params, Setups, Timed, INSTANCE_SEED};

pub const NODES: usize = 50_000;
/// Operations per round; the last one verifies a forged labeling.
const SLOTS: usize = 4;
/// Colluding nodes of every forgery.
const FORGERS: usize = 4;
const SETUP_REPS: usize = 25;

/// The widest and the total label size of an operation's labeling, in
/// bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Widths {
    pub max: usize,
    pub total: usize,
}

/// What one operation produced, for the checks that follow it.
pub struct OpResult {
    pub forged: Option<ForgeClass>,
    /// `None` when forgery found no rejecting rewrite or the run did not
    /// converge.
    pub run: Option<NetRun>,
}

/// Honest labelings must be accepted at every node; forged ones must be
/// rejected at one node or more.
pub fn op_correct(op: &OpResult) -> bool {
    match (&op.run, op.forged) {
        (Some(run), None) => run.verdict.accepted(),
        (Some(run), Some(_)) => !run.verdict.rejecting.is_empty(),
        (None, _) => false,
    }
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let n = p.nodes;
    let (cfg, setups) = Setups::first(SETUP_REPS, || setup(n, tr));
    let wire = MstWireScheme::for_config(&cfg);
    let tree = sorted(cfg.induced_edges());
    let mut out = Outcome {
        correct: tree == sorted(mstv_mst::kruskal(cfg.graph()))
            && mstv_mst::is_mst(cfg.graph(), &tree),
        ..Outcome::default()
    };

    let mut timed = Timed::default();
    let mut latency_ms = Vec::new();
    // Counts of the first run of each (slot, forgery class); every
    // repeat must reproduce them exactly.
    let mut first: BTreeMap<(usize, Option<usize>), WireCounts> = BTreeMap::new();
    let mut widths = Widths::default();
    let (mut verify0_ms, mut replay0_ms) = (0.0, 0.0);
    let started = Instant::now();
    let mut round = 0;
    loop {
        for slot in 0..SLOTS {
            let forge = (slot == SLOTS - 1).then_some(round % ForgeClass::ALL.len());
            tr.set_op(out.attempted);
            out.attempted += 1;

            let t0 = Instant::now();
            let (op, op_widths, log_bytes) =
                timed.time(1, || certify_once(&cfg, &wire, p.seed, slot, forge, tr));
            latency_ms.push(ms_since(t0));

            let mut ok = op_correct(&op);
            if let Some(run) = &op.run {
                let counts = WireCounts::of(run, log_bytes);
                let want = first.entry((slot, forge)).or_insert_with(|| counts.clone());
                ok &= *want == counts;
                if out.attempted == 1 {
                    widths = op_widths;
                    verify0_ms = tr.durations_ms("net.verify").last().copied().unwrap_or(0.0);
                    if tr.enabled() {
                        // Machine work alone: the same schedule re-fed on
                        // one thread, no router, link or pool. The first
                        // operation is honest, so the marker rebuilds
                        // the labeling it verified.
                        let labeling = MstScheme::new()
                            .marker_parallel(&cfg, ParallelConfig::default())
                            .expect("the configuration is Kruskal's MST");
                        let again =
                            tr.span("net.replay", || replay(&wire, &cfg, &labeling, &run.log));
                        replay0_ms = tr.durations_ms("net.replay")[0];
                        ok &= again.is_ok_and(|r| r.verdict == run.verdict && r.cost == run.cost);
                    }
                }
            }
            if !ok {
                out.failed += 1;
            }
        }
        round += 1;
        timed.end_round();
        if started.elapsed().as_secs_f64() >= p.seconds {
            break;
        }
    }

    let e = &mut out.e2e;
    e.insert("peak_rss_mb", peak_rss_mib());
    e.insert("label_bits_max", widths.max as f64);

    let l = &mut out.layers;
    timed.report(&latency_ms, &latency_ms, e, l);
    for (metric, span) in [
        ("graph.gen_ms", "graph.gen"),
        ("mst.kruskal_ms", "mst.kruskal"),
        ("core.marker_ms", "core.marker"),
        ("labels.encode_ms", "labels.encode"),
        ("net.forge_ms", "net.forge"),
        ("net.verify_ms", "net.verify"),
        ("net.log_text_ms", "net.log_text"),
    ] {
        l.insert(metric, median(&tr.durations_ms(span)));
    }
    l.insert("labels.bits_total", widths.total as f64);
    l.insert("net.replay_ms", replay0_ms);
    l.insert("net.router_ms", verify0_ms - replay0_ms);
    if let Some(honest) = first.get(&(0, None)) {
        honest.per_node(n, l);
        honest.layers(verify0_ms, l);
    }
    drop((wire, cfg));
    out.e2e.insert("setup_s", setups.finish(|| setup(n, tr)));
    out
}

/// The instance and its Kruskal MST configuration.
fn setup(n: usize, tr: &mut Tracer) -> ConfigGraph<TreeState> {
    let g = tr.span("graph.gen", || instance(n, INSTANCE_SEED));
    tr.span("mst.kruskal", || mst_configuration(g))
}

/// One certification: marker, optional forgery, certificate framing,
/// live verification, log text. The structured labeling is dropped once
/// its certificates are framed, so the verification runs with only the
/// certificates in the process. Returns the outcome, the widths of the
/// labeling the network verified, and the size of the log's text form.
fn certify_once(
    cfg: &ConfigGraph<TreeState>,
    wire: &MstWireScheme,
    seed: u64,
    slot: usize,
    forge: Option<usize>,
    tr: &mut Tracer,
) -> (OpResult, Widths, usize) {
    let n = cfg.graph().num_nodes();
    let mut labeling = tr.span("core.marker", || {
        MstScheme::new()
            .marker_parallel(cfg, ParallelConfig::default())
            .expect("the configuration is Kruskal's MST")
    });
    let forged = forge.map(|c| ForgeClass::ALL[c]);
    if let (Some(class), Some(c)) = (forged, forge) {
        let outcome = tr.span("net.forge", || {
            forge_labeling(
                cfg,
                &mut labeling,
                class,
                FORGERS,
                subseed(seed, 200 + c as u64),
            )
        });
        if outcome.is_none() {
            return (OpResult { forged, run: None }, Widths::default(), 0);
        }
    }
    let certs: Vec<Arc<BitString>> = tr.span("labels.encode", || {
        (0..n)
            .map(|v| Arc::new(labeling.encoded(NodeId(v as u32)).clone()))
            .collect()
    });
    let widths = Widths {
        max: labeling.max_label_bits(),
        total: labeling.total_bits(),
    };
    drop(labeling);
    let mut link = LossyLink::new(PROFILE, subseed(seed, 10 + slot as u64));
    let run = tr.span("net.verify", || {
        run_verification_encoded_with(
            wire,
            cfg,
            certs,
            &mut link,
            NetConfig::default(),
            Engine::events(),
        )
    });
    let Ok(run) = run else {
        return (OpResult { forged, run: None }, widths, 0);
    };
    let text = tr.span("net.log_text", || run.log.to_string());
    let bytes = std::hint::black_box(text).len();
    (
        OpResult {
            forged,
            run: Some(run),
        },
        widths,
        bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_core::{Labeling, MstLabel};
    use mstv_net::run_verification_with;

    fn small() -> (ConfigGraph<TreeState>, Labeling<MstLabel>) {
        let cfg = mst_configuration(instance(300, 9));
        let labeling = MstScheme::new()
            .marker_parallel(&cfg, ParallelConfig::default())
            .expect("mst");
        (cfg, labeling)
    }

    #[test]
    fn an_accepted_forgery_counts_as_failed() {
        let (cfg, labeling) = small();
        let wire = MstWireScheme::for_config(&cfg);
        // An honest run, presented as if its labeling had been forged:
        // acceptance everywhere must count as a failure.
        let run = run_verification_with(
            &wire,
            &cfg,
            &labeling,
            &mut LossyLink::new(PROFILE, 3),
            NetConfig::default(),
            Engine::events(),
        )
        .expect("converges");
        assert!(run.verdict.accepted());
        let honest = OpResult {
            forged: None,
            run: Some(run.clone()),
        };
        assert!(op_correct(&honest));
        let accepted_forgery = OpResult {
            forged: Some(ForgeClass::Root),
            run: Some(run),
        };
        assert!(!op_correct(&accepted_forgery));
        assert!(!op_correct(&OpResult {
            forged: None,
            run: None
        }));
    }

    #[test]
    fn real_forgeries_are_rejected() {
        let (cfg, _) = small();
        let wire = MstWireScheme::for_config(&cfg);
        let mut tr = Tracer::new(false);
        for c in 0..ForgeClass::ALL.len() {
            let (op, _, bytes) = certify_once(&cfg, &wire, 4, SLOTS - 1, Some(c), &mut tr);
            assert!(op_correct(&op), "class {c}");
            assert!(bytes > 0);
        }
    }
}
