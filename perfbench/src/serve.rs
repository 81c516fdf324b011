//! `serve`: a read-only replica under uniform pairs.
//!
//! The set-up builds the snapshot of a 100k-node instance, writes it as
//! v2, maps it with `Snapshot::open_mmap` and serves it from an
//! in-process `ServerHandle::spawn_store` with the default
//! `ServeConfig` over loopback. One client connection then sends
//! 256-query batches of uniform random pairs in a closed loop with
//! `DEPTH` requests in flight. Uniform pairs rarely repeat, so the
//! decoded-label cache seldom hits and label decode, engine locking and
//! the TCP tier dominate.

use std::path::PathBuf;
use std::time::Instant;

use mstv_graph::NodeId;
use mstv_labels::SepFieldCodec;
use mstv_serve::{Client, ServeConfig, ServerHandle};
use mstv_store::{EngineConfig, Query, QueryEngine, Snapshot, SnapshotFormat, SnapshotStore};
use mstv_trees::{ParallelConfig, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{batch, PathOracle};
use crate::reads::{pipeline, server_p50_ms, Reads, BATCH};
use crate::trace::Tracer;
use crate::util::{instance, median, ms_since, out_dir, peak_rss_mib, subseed};
use crate::util::{Outcome, Params, Setups, Timed, INSTANCE_SEED};

pub const NODES: usize = 100_000;
const SETUP_REPS: usize = 6;
/// Untimed batches that fill the page cache and the engine's caches.
const WARMUP_BATCHES: usize = 64;
/// Batches per round.
const ROUND_BATCHES: usize = 1024;
/// Answers kept for the oracle check, sampled uniformly over the run.
const SAMPLES: usize = 16_384;

/// A running server and a connection to it; dropping it shuts the
/// server down and waits for its threads.
pub struct Served {
    pub server: Option<ServerHandle>,
    pub client: Client,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

struct Instance {
    path: PathBuf,
    snapshot_bytes: u64,
    label_bits_max: usize,
    served: Served,
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let n = p.nodes;
    let path = match out_dir("perfbench-data") {
        Ok(dir) => dir.join(format!("serve-{}-{}.snap", p.seed, std::process::id())),
        Err(_) => return Outcome::default(),
    };
    let (inst, setups) = Setups::first(SETUP_REPS, || setup(n, &path, tr));
    let mut inst = match inst {
        Ok(inst) => inst,
        Err(e) => {
            eprintln!("serve: set-up failed: {e}");
            return Outcome::default();
        }
    };
    let mut rng = StdRng::seed_from_u64(subseed(p.seed, 20));
    let mut next_batch = move || batch(BATCH, &mut rng, |r| r.gen_range(0..n as u32));
    let mut reads = Reads::new(1, SAMPLES, subseed(p.seed, 21));
    let client = &mut inst.served.client;
    let mut ok = pipeline(
        client,
        (0..WARMUP_BATCHES).map(|_| next_batch()),
        1,
        false,
        &mut reads,
        tr,
    )
    .is_ok();
    let mut timed = Timed::default();
    let mut batches = WARMUP_BATCHES;
    let started = Instant::now();
    while ok {
        let round: Vec<Vec<Query>> = (0..ROUND_BATCHES).map(|_| next_batch()).collect();
        ok = timed.time((ROUND_BATCHES * BATCH) as u64, || {
            pipeline(client, round, 1, true, &mut reads, tr).is_ok()
        });
        batches += ROUND_BATCHES;
        timed.end_round();
        if started.elapsed().as_secs_f64() >= p.seconds {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mib();
    let server_p50 = client.stats().ok().as_deref().and_then(server_p50_ms);
    let server = inst.served.server.as_ref().expect("server runs until drop");
    let engine = server.engine_metrics();
    // After the peak is read: the oracle over Kruskal's tree of a
    // freshly generated instance.
    reads.failed += reads.wrong_answers(0, &PathOracle::for_graph(&instance(n, INSTANCE_SEED)));

    let mut out = Outcome {
        correct: ok && server_p50.is_some(),
        attempted: reads.queries,
        failed: reads.failed,
        ..Outcome::default()
    };
    let e = &mut out.e2e;
    e.insert("peak_rss_mb", peak_rss_mb);
    e.insert("label_bits_max", inst.label_bits_max as f64);

    let l = &mut out.layers;
    timed.report(&reads.window_medians_ms(), &reads.latency_ms, e, l);
    for (metric, span) in [
        ("graph.gen_ms", "graph.gen"),
        ("mst.kruskal_ms", "mst.kruskal"),
        ("store.build_ms", "store.build"),
        ("store.write_ms", "store.write"),
        ("store.open_ms", "store.open"),
    ] {
        l.insert(metric, median(&tr.durations_ms(span)));
    }
    l.insert("store.snapshot_bytes", inst.snapshot_bytes as f64);
    l.insert("store.cache_hit_ratio", engine.hit_ratio());
    let server_p50 = server_p50.unwrap_or(0.0);
    l.insert("serve.latency_p99_ms", reads.latency_p99_ms());
    l.insert("serve.server_p50_ms", server_p50);
    l.insert("serve.wire_ms", median(&reads.latency_ms) - server_p50);
    if tr.enabled() {
        // The engine alone: same store, config and batches, no TCP.
        let mut rng = StdRng::seed_from_u64(subseed(p.seed, 20));
        let mapped = Snapshot::open_mmap(&inst.path).expect("the snapshot reopens");
        let engine =
            QueryEngine::from_store(SnapshotStore::Mapped(mapped), EngineConfig::default());
        let (ms, queries) =
            engine_pass(&engine, batches, &mut rng, |r| r.gen_range(0..n as u32), tr);
        l.insert("store.batch_ms_p50", median(&ms));
        l.insert(
            "store.queries_per_s",
            queries as f64 / (ms.iter().sum::<f64>() / 1e3),
        );
    }
    drop(inst);
    out.e2e
        .insert("setup_s", setups.finish(|| setup(n, &path, tr)));
    let _ = std::fs::remove_file(&path);
    out
}

/// Runs `batches` batches with endpoints drawn by `endpoint` (the same
/// stream a client sent, when `rng` starts from the client's seed)
/// through `engine`; returns each batch's time and the query count.
pub fn engine_pass(
    engine: &QueryEngine,
    batches: usize,
    rng: &mut StdRng,
    endpoint: impl Fn(&mut StdRng) -> u32,
    tr: &mut Tracer,
) -> (Vec<f64>, u64) {
    let mut ms = Vec::with_capacity(batches);
    let mut queries = 0;
    for _ in 0..batches {
        let b = batch(BATCH, rng, &endpoint);
        let t = Instant::now();
        let resp = tr.span("store.batch", || engine.run_batch_response(&b));
        ms.push(ms_since(t));
        queries += resp.results.len() as u64;
    }
    (ms, queries)
}

/// Generates the instance, builds and writes its v2 snapshot, maps it
/// and starts serving it.
fn setup(n: usize, path: &PathBuf, tr: &mut Tracer) -> Result<Instance, String> {
    let g = tr.span("graph.gen", || instance(n, INSTANCE_SEED));
    let tree = tr
        .span("mst.kruskal", || {
            RootedTree::from_graph_edges(&g, &mstv_mst::kruskal(&g), NodeId(0))
        })
        .map_err(|e| e.to_string())?;
    drop(g);
    let snap = tr.span("store.build", || {
        Snapshot::build_parallel(&tree, SepFieldCodec::EliasGamma, ParallelConfig::default())
    });
    tr.span("store.write", || {
        snap.write_file_format(path, SnapshotFormat::V2)
    })
    .map_err(|e| e.to_string())?;
    let label_bits_max = snap.max_label_bits();
    drop((tree, snap));
    let mapped = tr
        .span("store.open", || Snapshot::open_mmap(path))
        .map_err(|e| e.to_string())?;
    let snapshot_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let server =
        ServerHandle::spawn_store(SnapshotStore::Mapped(mapped), ServeConfig::default(), 0)
            .map_err(|e| e.to_string())?;
    let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    Ok(Instance {
        path: path.clone(),
        snapshot_bytes,
        label_bits_max,
        served: Served {
            server: Some(server),
            client,
        },
    })
}
