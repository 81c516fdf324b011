//! `live`: writes beside reads.
//!
//! A 100k-node graph is held by `DynMarker`; its snapshot is served
//! owned (a mapped engine refuses deltas) from an in-process server.
//! One client thread runs rounds of `READS_PER_WRITE` Zipf-skewed read
//! batches followed by one write from a fixed, seeded mutation stream:
//! `DynMarker::apply`, the `DeltaRecord` bytes, `Client::apply_delta`.
//! Under skew the decoded-label cache earns hits, and every delta
//! evicts its dirty nodes.

use std::time::Instant;

use mstv_dyn::DynMarker;
use mstv_graph::{EdgeId, Graph, NodeId, Weight};
use mstv_labels::SepFieldCodec;
use mstv_serve::{Client, ServeConfig, ServerHandle};
use mstv_store::{DeltaOutcome, DeltaRecord, EngineConfig, Journal, JournalMutation, Query};
use mstv_store::{QueryEngine, Snapshot, SnapshotStore};
use mstv_trees::RootedTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{batch, PathOracle};
use crate::reads::{pipeline, server_p50_ms, Reads, BATCH};
use crate::serve::{engine_pass, Served};
use crate::trace::Tracer;
use crate::util::{instance, median, ms_since, peak_rss_mib, subseed};
use crate::util::{Outcome, Params, Setups, Timed, Zipf, INSTANCE_SEED, MAX_WEIGHT};

pub const NODES: usize = 100_000;
const SETUP_REPS: usize = 6;
const WARMUP_BATCHES: usize = 32;
const READS_PER_WRITE: usize = 32;
/// Weight changes per cycle. A cycle applies them, then reverts them in
/// reverse order, so the graph is the base instance again at the end of
/// every cycle and every cycle repeats the same writes — the way a
/// flapping link changes weight and changes back. Runs make whole cycles.
/// After `k` writes of a cycle the graph is the base plus the first
/// `min(k, CYCLE - k)` changes, so serving states `k` and `CYCLE - k`
/// share a graph.
const CHANGES: usize = 24;
const CYCLE: usize = 2 * CHANGES;
/// Answers kept for the oracle check per serving state (writes applied
/// within the cycle), sampled uniformly over the run's cycles.
const SAMPLES_PER_STATE: usize = 1024;
/// Threads the checks after the timed phase run on.
const CHECK_THREADS: usize = 2;

struct Instance {
    graph: Graph,
    marker: DynMarker,
    base: Snapshot,
    snapshot_bytes: u64,
    served: Served,
}

/// What one write did, for the checks and the counts.
struct Write {
    mutation: (EdgeId, Weight),
    outcome: DeltaOutcome,
    dirty_nodes: usize,
    bytes: usize,
    apply_ms: f64,
    rtt_ms: f64,
}

/// The writes of one cycle: `CHANGES` seeded weight changes (uniform
/// edges, uniform new weights), then their reversals in reverse order.
fn cycle(g: &Graph) -> Vec<(EdgeId, Weight)> {
    let mut rng = StdRng::seed_from_u64(subseed(INSTANCE_SEED, 30));
    let mut g = g.clone();
    let mut undo = Vec::with_capacity(CHANGES);
    let mut writes = Vec::with_capacity(CYCLE);
    for _ in 0..CHANGES {
        let e = EdgeId(rng.gen_range(0..g.num_edges()) as u32);
        let w = Weight(rng.gen_range(1..=MAX_WEIGHT));
        undo.push((e, g.weight(e)));
        g.set_weight(e, w);
        writes.push((e, w));
    }
    writes.extend(undo.into_iter().rev());
    writes
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let n = p.nodes;
    let (inst, setups) = Setups::first(SETUP_REPS, || setup(n, tr));
    let mut inst = match inst {
        Ok(inst) => inst,
        Err(e) => {
            eprintln!("live: set-up failed: {e}");
            return Outcome::default();
        }
    };
    let label_bits_max = inst.base.max_label_bits();
    // The first cycle's records. Every later cycle repeats the same
    // writes from the same graph, so its records must equal these but
    // for their sequence numbers; they are compared and dropped, so the
    // process holds one cycle's records however many cycles run.
    let mut first_cycle: Vec<DeltaRecord> = Vec::with_capacity(CYCLE);
    let cycle = cycle(&inst.graph);
    let zipf = Zipf::new(n, subseed(INSTANCE_SEED, 31));
    let mut read_rng = StdRng::seed_from_u64(subseed(p.seed, 32));
    let mut next_batch = || batch(BATCH, &mut read_rng, |r| zipf.sample(r));

    let mut reads = Reads::new(CYCLE, SAMPLES_PER_STATE, subseed(p.seed, 33));
    let mut writes: Vec<Write> = Vec::new();
    let mut write_failed = 0;
    let mut epoch = 1;
    let client = &mut inst.served.client;
    let warmup: Vec<Vec<Query>> = (0..WARMUP_BATCHES).map(|_| next_batch()).collect();
    let mut ok = pipeline(client, warmup, epoch, false, &mut reads, tr).is_ok();
    let mut timed = Timed::default();
    let started = Instant::now();
    while ok {
        let round: Vec<Vec<Query>> = (0..READS_PER_WRITE).map(|_| next_batch()).collect();
        let mutation = cycle[writes.len() % CYCLE];
        // A round's cost per query includes its write.
        let written = timed.time((READS_PER_WRITE * BATCH) as u64, || {
            ok = pipeline(client, round, epoch, true, &mut reads, tr).is_ok();
            write(&mut inst.marker, client, mutation, tr)
        });
        match written {
            Some((w, record, new_epoch))
                if new_epoch == epoch + 1 && repeats(&first_cycle, &record) =>
            {
                if first_cycle.len() < CYCLE {
                    first_cycle.push(record);
                }
                writes.push(w);
                epoch = new_epoch;
            }
            _ => {
                write_failed += 1;
                ok = false;
            }
        }
        if writes.len().is_multiple_of(CYCLE) {
            timed.end_round();
            if started.elapsed().as_secs_f64() >= p.seconds {
                break;
            }
        }
    }
    let peak_rss_mb = peak_rss_mib();
    let server_p50 = client.stats().ok().as_deref().and_then(server_p50_ms);
    let server = inst.served.server.as_ref().expect("server runs until drop");
    let hit_ratio = server.engine_metrics().hit_ratio();

    // Checks, after the timed phase and the peak: the sampled answers of
    // every serving state against Kruskal's tree of that state's graph,
    // and the compacted journal — cut after the first cycle's changes,
    // when the graph is furthest from the base, and the run's whole
    // journal — against from-scratch snapshots of the graph at that
    // point. The checks share out over `CHECK_THREADS` threads.
    let mut journal = Journal::new(&inst.base);
    for i in 0..writes.len() {
        let mut record = first_cycle[i % CYCLE].clone();
        record.seq = i as u64 + 1;
        journal.append(record);
    }
    let mut furthest = inst.graph.clone();
    for &(e, w) in &cycle[..CHANGES] {
        furthest.set_weight(e, w);
    }
    let mut end = inst.graph.clone();
    for w in &writes {
        end.set_weight(w.mutation.0, w.mutation.1);
    }
    let (base, records) = (&inst.base, journal.records());
    let (wrong, journal_ok) = std::thread::scope(|s| {
        let half = s.spawn(|| {
            records.len() >= CHANGES && {
                let mut half = Journal::new(base);
                for record in &records[..CHANGES] {
                    half.append(record.clone());
                }
                compacts_to_rebuild(&half, base, &furthest)
            }
        });
        let whole = s.spawn(|| compacts_to_rebuild(&journal, base, &end));
        let states: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                let (reads, cycle, g) = (&reads, &cycle, &inst.graph);
                s.spawn(move || {
                    let (mut g, mut applied, mut wrong) = (g.clone(), 0, 0);
                    for k in (t..=CHANGES).step_by(CHECK_THREADS) {
                        for &(e, w) in &cycle[applied..k] {
                            g.set_weight(e, w);
                        }
                        applied = k;
                        let oracle = PathOracle::for_graph(&g);
                        wrong += reads.wrong_answers(k, &oracle);
                        if k > 0 && k < CHANGES {
                            wrong += reads.wrong_answers(CYCLE - k, &oracle);
                        }
                    }
                    wrong
                })
            })
            .collect();
        let wrong: u64 = states.into_iter().map(|h| h.join().expect("check")).sum();
        let journal_ok = half.join().expect("check") & whole.join().expect("check");
        (wrong, journal_ok)
    });
    reads.failed += wrong;

    let mut out = Outcome {
        correct: ok && journal_ok && server_p50.is_some(),
        attempted: reads.queries + writes.len() as u64 + write_failed,
        failed: reads.failed + write_failed,
        ..Outcome::default()
    };
    let e = &mut out.e2e;
    e.insert("peak_rss_mb", peak_rss_mb);
    e.insert("label_bits_max", label_bits_max as f64);

    let l = &mut out.layers;
    timed.report(&reads.window_medians_ms(), &reads.latency_ms, e, l);
    for (metric, span) in [
        ("graph.gen_ms", "graph.gen"),
        ("store.build_ms", "store.build"),
        ("store.write_ms", "store.write"),
    ] {
        l.insert(metric, median(&tr.durations_ms(span)));
    }
    l.insert("store.snapshot_bytes", inst.snapshot_bytes as f64);
    l.insert("store.cache_hit_ratio", hit_ratio);
    let server_p50 = server_p50.unwrap_or(0.0);
    l.insert("serve.latency_p99_ms", reads.latency_p99_ms());
    l.insert("serve.server_p50_ms", server_p50);
    l.insert("serve.wire_ms", median(&reads.latency_ms) - server_p50);
    let rtt: Vec<f64> = writes.iter().map(|w| w.rtt_ms).collect();
    let apply: Vec<f64> = writes.iter().map(|w| w.apply_ms).collect();
    let swap: Vec<f64> = writes
        .iter()
        .filter(|w| w.outcome == DeltaOutcome::TreeSwap)
        .map(|w| w.apply_ms)
        .collect();
    l.insert("serve.delta_rtt_ms", median(&rtt));
    l.insert("dyn.apply_ms", median(&apply));
    l.insert("dyn.swap_ms", median(&swap));
    let fixed = &writes[..CYCLE.min(writes.len())];
    let count = |o: DeltaOutcome| fixed.iter().filter(|w| w.outcome == o).count() as f64;
    l.insert("dyn.noop", count(DeltaOutcome::NoOp));
    l.insert("dyn.weights_only", count(DeltaOutcome::WeightsOnly));
    l.insert("dyn.tree_swap", count(DeltaOutcome::TreeSwap));
    let per_write = |f: fn(&Write) -> usize| {
        fixed.iter().map(f).sum::<usize>() as f64 / fixed.len().max(1) as f64
    };
    l.insert("dyn.dirty_nodes", per_write(|w| w.dirty_nodes));
    l.insert("dyn.delta_bytes_per_write", per_write(|w| w.bytes));
    l.insert("dyn.writes_per_s", writes.len() as f64 / timed.wall_s);
    if tr.enabled() {
        // The engine alone over the same store, config, batches and
        // deltas, in the same order, without TCP.
        let engine = QueryEngine::new(inst.base.clone(), EngineConfig::default());
        let zipf = Zipf::new(n, subseed(INSTANCE_SEED, 31));
        let mut rng = StdRng::seed_from_u64(subseed(p.seed, 32));
        let endpoint = |r: &mut StdRng| zipf.sample(r);
        let (mut batch_ms, mut queries) =
            engine_pass(&engine, WARMUP_BATCHES, &mut rng, endpoint, tr);
        let mut apply_ms = Vec::new();
        for record in journal.records() {
            let (ms, q) = engine_pass(&engine, READS_PER_WRITE, &mut rng, endpoint, tr);
            batch_ms.extend(ms);
            queries += q;
            let t = Instant::now();
            out.correct &= tr
                .span("store.apply_delta", || engine.apply_delta(record))
                .is_ok();
            apply_ms.push(ms_since(t));
        }
        l.insert("store.batch_ms_p50", median(&batch_ms));
        l.insert(
            "store.queries_per_s",
            queries as f64 / (batch_ms.iter().sum::<f64>() / 1e3),
        );
        l.insert("store.apply_delta_ms", median(&apply_ms));
    }
    drop((journal, inst));
    out.e2e.insert("setup_s", setups.finish(|| setup(n, tr)));
    out
}

/// Whether `record`, the record of the next write, equals the record of
/// the same write in the first cycle (trivially, while that cycle runs)
/// but for its sequence number.
fn repeats(first_cycle: &[DeltaRecord], record: &DeltaRecord) -> bool {
    if first_cycle.len() < CYCLE {
        return record.seq == first_cycle.len() as u64 + 1;
    }
    let i = (record.seq - 1) as usize % CYCLE;
    let first = &first_cycle[i];
    record.seq > first.seq
        && (record.seq - first.seq).is_multiple_of(CYCLE as u64)
        && DeltaRecord {
            seq: first.seq,
            ..record.clone()
        } == *first
}

/// Whether `journal` folded onto `base` is byte-identical to a snapshot
/// built from scratch from Kruskal's tree of `g`.
fn compacts_to_rebuild(journal: &Journal, base: &Snapshot, g: &Graph) -> bool {
    let rebuilt = RootedTree::from_graph_edges(g, &mstv_mst::kruskal(g), NodeId(0))
        .map(|t| Snapshot::build(&t, SepFieldCodec::EliasGamma).to_bytes());
    let compacted = journal.compact(base).map(|s| s.to_bytes());
    matches!((rebuilt, compacted), (Ok(a), Ok(b)) if a == b)
}

/// One write: the incremental marker's repair, the record's bytes, and
/// the server folding them in. Returns the write, its record, and the
/// epoch the server reports afterwards.
fn write(
    marker: &mut DynMarker,
    client: &mut Client,
    (e, w): (EdgeId, Weight),
    tr: &mut Tracer,
) -> Option<(Write, DeltaRecord, u64)> {
    let edge = marker.graph().edge(e);
    let mutation = JournalMutation::SetWeight {
        u: edge.u.0,
        v: edge.v.0,
        w: w.0,
    };
    let t = Instant::now();
    let record = tr.span("dyn.apply", || marker.apply(mutation)).ok()?;
    let apply_ms = ms_since(t);
    let bytes = tr.span("store.delta_bytes", || record.to_bytes());
    let t = Instant::now();
    let epoch = tr
        .span("serve.apply_delta", || client.apply_delta(&bytes))
        .ok()?;
    let rtt_ms = ms_since(t);
    Some((
        Write {
            mutation: (e, w),
            outcome: record.outcome,
            dirty_nodes: record.dirty_nodes().len(),
            bytes: bytes.len(),
            apply_ms,
            rtt_ms,
        },
        record,
        epoch,
    ))
}

fn setup(n: usize, tr: &mut Tracer) -> Result<Instance, String> {
    let graph = tr.span("graph.gen", || instance(n, INSTANCE_SEED));
    // The labels are built by the incremental marker, which then
    // assembles the snapshot from its maintained parts.
    tr.enter("store.build");
    let marker = tr.span("dyn.new", || {
        DynMarker::new(graph.clone(), SepFieldCodec::EliasGamma)
    });
    let base = marker
        .as_ref()
        .ok()
        .map(|m| tr.span("dyn.snapshot", || m.snapshot()));
    tr.exit();
    let (marker, base) = (
        marker.map_err(|e| e.to_string())?,
        base.ok_or("no snapshot")?,
    );
    let snapshot_bytes = tr.span("store.write", || base.to_bytes()).len() as u64;
    let server = ServerHandle::spawn_store(
        SnapshotStore::Owned(base.clone()),
        ServeConfig::default(),
        0,
    )
    .map_err(|e| e.to_string())?;
    let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    Ok(Instance {
        graph,
        marker,
        base,
        snapshot_bytes,
        served: Served {
            server: Some(server),
            client,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(g: &Graph) -> Vec<Weight> {
        (0..g.num_edges())
            .map(|e| g.weight(EdgeId(e as u32)))
            .collect()
    }

    #[test]
    fn states_k_and_cycle_minus_k_share_a_graph() {
        let base = instance(300, 4);
        let writes = cycle(&base);
        assert_eq!(writes.len(), CYCLE);
        let mut g = base.clone();
        let mut states = vec![weights(&g)];
        for &(e, w) in &writes {
            g.set_weight(e, w);
            states.push(weights(&g));
        }
        for k in 0..=CYCLE {
            assert_eq!(states[k], states[k.min(CYCLE - k)], "state {k}");
        }
    }

    #[test]
    fn later_cycles_must_repeat_the_first_cycles_records() {
        let g = instance(300, 4);
        let mut marker = DynMarker::new(g.clone(), SepFieldCodec::EliasGamma).expect("marker");
        let writes = cycle(&g);
        let mut first = Vec::new();
        for round in 0..2 {
            for &(e, w) in &writes {
                let edge = marker.graph().edge(e);
                let mutation = JournalMutation::SetWeight {
                    u: edge.u.0,
                    v: edge.v.0,
                    w: w.0,
                };
                let record = marker.apply(mutation).expect("applies");
                assert!(
                    repeats(&first, &record),
                    "round {round}, seq {}",
                    record.seq
                );
                if round == 0 {
                    first.push(record);
                } else {
                    let mut other = record;
                    other.new_omega_bits += 1;
                    assert!(!repeats(&first, &other));
                }
            }
        }
    }
}
