//! `construct`: distributed construction on the events engine over a
//! `LossyLink` — GHS fragments, the distributed marker and the embedded
//! verification — with the run's event log serialized to text. Most of
//! the router's work here is per-round ticks.

use std::time::Instant;

use mstv_core::{mst_configuration, Labeling, MstLabel, MstScheme, ProofLabelingScheme};
use mstv_graph::{EdgeId, Graph, NodeId};
use mstv_net::{replay_compute, run_compute, ComputeRun, Engine, LossyLink, NetConfig};

use crate::netrun::{WireCounts, PROFILE};
use crate::trace::Tracer;
use crate::util::{instance, median, ms_since, peak_rss_mib, subseed};
use crate::util::{Outcome, Params, Setups, Timed, INSTANCE_SEED};

pub const NODES: usize = 2_048;
/// Instances per round. Round counts vary from graph to graph, so every
/// run covers several graphs of its seed.
const SLOTS: usize = 4;
/// Graph generation takes milliseconds here, so the set-up is repeated
/// often enough for its median to be steady.
const SETUP_REPS: usize = 41;

/// The independent truth a construction is checked against: Kruskal's
/// edge set and the centralized marker's labels.
pub struct Reference {
    pub mst: Vec<EdgeId>,
    pub labels: Labeling<MstLabel>,
}

impl Reference {
    pub fn of(g: &Graph) -> Reference {
        let mut mst = mstv_mst::kruskal(g);
        mst.sort_unstable();
        let labels = MstScheme::new()
            .marker(&mst_configuration(g.clone()))
            .expect("Kruskal's tree is an MST");
        Reference { mst, labels }
    }

    /// The network accepted, built Kruskal's tree, and labelled it
    /// bit-identically to the centralized marker.
    pub fn matches(&self, run: &ComputeRun) -> bool {
        let mut mst = run.mst_edges.clone();
        mst.sort_unstable();
        run.net.verdict.accepted()
            && mst == self.mst
            && (0..self.labels.labels().len()).all(|v| {
                let v = NodeId(v as u32);
                run.labeling.encoded(v) == self.labels.encoded(v)
            })
    }
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let n = p.nodes;
    let (graphs, setups) = Setups::first(SETUP_REPS, || setup(n, tr));
    let references: Vec<Reference> = graphs.iter().map(Reference::of).collect();
    let mut out = Outcome {
        correct: graphs
            .iter()
            .zip(&references)
            .all(|(g, r)| mstv_mst::is_mst(g, &r.mst)),
        ..Outcome::default()
    };

    let mut timed = Timed::default();
    let mut latency_ms = Vec::new();
    // Counts of each slot's first run; every repeat must match them.
    let mut first: Vec<Option<WireCounts>> = vec![None; SLOTS];
    let (mut label_bits_max, mut replay0_ms) = (0.0, 0.0);
    let started = Instant::now();
    loop {
        for (slot, (g, reference)) in graphs.iter().zip(&references).enumerate() {
            tr.set_op(out.attempted);
            out.attempted += 1;
            let t0 = Instant::now();
            let mut link = LossyLink::new(PROFILE, subseed(p.seed, 10 + slot as u64));
            let (run, log_bytes) = timed.time(1, || {
                let run = tr.span("net.compute", || {
                    run_compute(g, &mut link, NetConfig::default(), Engine::events())
                });
                let log_bytes = run.as_ref().map_or(0, |run| {
                    let text = tr.span("net.log_text", || run.net.log.to_string());
                    std::hint::black_box(text).len()
                });
                (run, log_bytes)
            });
            latency_ms.push(ms_since(t0));

            let ok = run.is_ok_and(|run| {
                let counts = WireCounts::of(&run.net, log_bytes);
                let repeat = first[slot].is_some();
                let want = first[slot].get_or_insert_with(|| counts.clone());
                let mut ok = *want == counts && reference.matches(&run);
                if !repeat {
                    label_bits_max = f64::max(label_bits_max, run.labeling.max_label_bits() as f64);
                    // Replay re-derives the tree, the labels, the verdict
                    // and every counter from the log on one thread.
                    let t = Instant::now();
                    let again = tr.span("net.replay", || replay_compute(g, &run.net.log));
                    if slot == 0 {
                        replay0_ms = ms_since(t);
                    }
                    ok &= again.is_ok_and(|r| {
                        r.net.verdict == run.net.verdict
                            && r.net.cost == run.net.cost
                            && r.net.phases == run.net.phases
                            && r.mst_edges == run.mst_edges
                            && r.labeling.labels() == run.labeling.labels()
                    });
                }
                ok
            });
            if !ok {
                out.failed += 1;
            }
        }
        timed.end_round();
        if started.elapsed().as_secs_f64() >= p.seconds {
            break;
        }
    }

    let e = &mut out.e2e;
    e.insert("peak_rss_mb", peak_rss_mib());
    e.insert("label_bits_max", label_bits_max);

    // Per-layer figures are those of slot 0's instance.
    let l = &mut out.layers;
    timed.report(&latency_ms, &latency_ms, e, l);
    for (metric, span) in [
        ("graph.gen_ms", "graph.gen"),
        ("mst.kruskal_ms", "mst.kruskal"),
        ("net.log_text_ms", "net.log_text"),
    ] {
        l.insert(metric, median(&tr.durations_ms(span)));
    }
    let live_ms = tr
        .durations_ms("net.compute")
        .first()
        .copied()
        .unwrap_or(0.0);
    l.insert("net.compute_ms", live_ms);
    l.insert("net.replay_ms", replay0_ms);
    l.insert("net.router_ms", live_ms - replay0_ms);
    if let Some(counts) = &first[0] {
        counts.per_node(n, l);
        counts.layers(live_ms, l);
        let m = graphs[0].num_edges() as f64;
        let envelope = m + n as f64 * (n as f64).log2();
        l.insert(
            "net.ghs_envelope_ratio",
            counts.phases[0].msgs as f64 / envelope,
        );
    }
    drop((graphs, references));
    out.e2e.insert("setup_s", setups.finish(|| setup(n, tr)));
    out
}

/// The round's graphs, each checked connected by Kruskal.
fn setup(n: usize, tr: &mut Tracer) -> Vec<Graph> {
    (0..SLOTS)
        .map(|slot| {
            let g = tr.span("graph.gen", || instance(n, INSTANCE_SEED + slot as u64));
            let mst = tr.span("mst.kruskal", || mstv_mst::kruskal(&g));
            assert_eq!(mst.len(), n - 1, "the instance is connected");
            g
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_tree_or_label_fails_the_reference() {
        let g = instance(64, 3);
        let reference = Reference::of(&g);
        let mut run = run_compute(
            &g,
            &mut LossyLink::new(PROFILE, 1),
            NetConfig::default(),
            Engine::events(),
        )
        .expect("converges");
        assert!(reference.matches(&run));
        run.mst_edges.pop();
        assert!(!reference.matches(&run));
    }
}
