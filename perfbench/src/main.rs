//! End-to-end and per-layer benchmark of the mstv workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload certify|construct|serve|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in this process: a seeded set-up,
//! then whole rounds of the workload's operations until `--seconds`
//! have passed, every output checked outside the timed regions. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `<target dir>/perfbench-trace/`.

mod certify;
mod construct;
mod live;
mod netrun;
mod oracle;
mod reads;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;

use trace::Tracer;
use util::{Outcome, Params};

/// End-to-end metrics every workload reports, with their units.
const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("label_bits_max", "bits"),
];

/// Per-layer metrics, named by module, with their units. A layer a
/// workload does not call reads 0 there.
const LAYERS: &[(&str, &str)] = &[
    ("run.ops_per_s", "1/s"),
    ("run.latency_p50_ms", "ms"),
    ("run.latency_best_ms", "ms"),
    ("graph.gen_ms", "ms"),
    ("mst.kruskal_ms", "ms"),
    ("core.marker_ms", "ms"),
    ("labels.encode_ms", "ms"),
    ("labels.bits_total", "bits"),
    ("net.forge_ms", "ms"),
    ("net.verify_ms", "ms"),
    ("net.compute_ms", "ms"),
    ("net.replay_ms", "ms"),
    ("net.router_ms", "ms"),
    ("net.log_text_ms", "ms"),
    ("net.log_text_bytes", "bytes"),
    ("net.rounds", "rounds"),
    ("net.msgs_per_node", "msgs"),
    ("net.bits_per_node", "bits"),
    ("net.dispatch_start", "count"),
    ("net.dispatch_deliver", "count"),
    ("net.dispatch_tick", "count"),
    ("net.useful_dispatch_ratio", "ratio"),
    ("net.dispatch_per_s", "1/s"),
    ("net.delivered_per_sent", "ratio"),
    ("net.ghs_msgs", "msgs"),
    ("net.ghs_bits", "bits"),
    ("net.ghs_rounds", "rounds"),
    ("net.marker_msgs", "msgs"),
    ("net.marker_bits", "bits"),
    ("net.marker_rounds", "rounds"),
    ("net.verify_msgs", "msgs"),
    ("net.verify_bits", "bits"),
    ("net.verify_rounds", "rounds"),
    ("net.ghs_envelope_ratio", "ratio"),
    ("store.build_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("store.batch_ms_p50", "ms"),
    ("store.queries_per_s", "1/s"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.apply_delta_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.delta_rtt_ms", "ms"),
    ("dyn.apply_ms", "ms"),
    ("dyn.swap_ms", "ms"),
    ("dyn.noop", "count"),
    ("dyn.weights_only", "count"),
    ("dyn.tree_swap", "count"),
    ("dyn.dirty_nodes", "count"),
    ("dyn.writes_per_s", "1/s"),
    ("dyn.delta_bytes_per_write", "bytes"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} <value> is required"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|e| format!("bad value for {flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> Option<Outcome> {
    let params = |nodes| Params {
        nodes,
        seed,
        seconds,
    };
    Some(match name {
        "certify" => certify::run(&params(certify::NODES), tr),
        "construct" => construct::run(&params(construct::NODES), tr),
        "serve" => serve::run(&params(serve::NODES), tr),
        "live" => live::run(&params(live::NODES), tr),
        _ => return None,
    })
}

/// The result line: exactly the registry's metrics, in its order.
fn result_json(out: &Outcome, trace: bool) -> String {
    let (registry, values): (&[(&str, &str)], _) = if trace {
        (LAYERS, &out.layers)
    } else {
        (&E2E, &out.e2e)
    };
    let metrics: Vec<String> = registry
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    util::pin_allocator();
    let mut tr = Tracer::new(args.trace);
    let Some(out) = run_workload(&args.workload, args.seed, args.seconds, &mut tr) else {
        eprintln!(
            "perfbench: unknown workload {:?} (certify|construct|serve|live)",
            args.workload
        );
        return ExitCode::from(2);
    };
    if out.attempted == 0 {
        eprintln!("perfbench: {} attempted no operation", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        let name = format!("{}-{}.json", args.workload, args.seed);
        let written = util::out_dir("perfbench-trace").and_then(|dir| {
            let path = dir.join(name);
            let mut all = out.layers.clone();
            all.extend(&out.e2e);
            std::fs::write(&path, tr.to_json(&args.workload, args.seed, &all))?;
            Ok(path)
        });
        match written {
            Ok(path) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("trace: not written: {e}"),
        }
        for (layer, ms) in tr.self_times_ms() {
            eprintln!("self {layer:<16} {ms:>12.3} ms");
        }
    }
    println!("{}", result_json(&out, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics that are counts: for one seed they must repeat exactly.
    const COUNTS: &[&str] = &[
        "label_bits_max",
        "labels.bits_total",
        "net.log_text_bytes",
        "net.rounds",
        "net.msgs_per_node",
        "net.bits_per_node",
        "net.dispatch_start",
        "net.dispatch_deliver",
        "net.dispatch_tick",
        "net.useful_dispatch_ratio",
        "net.delivered_per_sent",
        "net.ghs_msgs",
        "net.ghs_bits",
        "net.ghs_rounds",
        "net.marker_msgs",
        "net.marker_bits",
        "net.marker_rounds",
        "net.verify_msgs",
        "net.verify_bits",
        "net.verify_rounds",
        "net.ghs_envelope_ratio",
        "store.snapshot_bytes",
        "dyn.noop",
        "dyn.weights_only",
        "dyn.tree_swap",
        "dyn.dirty_nodes",
        "dyn.delta_bytes_per_write",
    ];

    /// Runs a workload twice on a small instance of one seed (one round
    /// each, traced so the per-layer counts exist) and checks that both
    /// runs pass every check and report the same counts.
    fn counts_repeat(run: fn(&Params, &mut Tracer) -> Outcome, nodes: usize) {
        let p = Params {
            nodes,
            seed: 7,
            seconds: 0.0,
        };
        let runs: Vec<Outcome> = (0..2).map(|_| run(&p, &mut Tracer::new(true))).collect();
        for out in &runs {
            assert!(
                out.correct && out.attempted > 0 && out.failed == 0,
                "{out:?}"
            );
        }
        let count = |out: &Outcome, name: &str| out.e2e.get(name).or(out.layers.get(name)).copied();
        for name in COUNTS {
            assert_eq!(count(&runs[0], name), count(&runs[1], name), "{name}");
        }
        assert!(E2E.iter().all(|(name, _)| runs[0].e2e[name] > 0.0));
    }

    #[test]
    fn certify_counts_repeat() {
        counts_repeat(certify::run, 400);
    }

    #[test]
    fn construct_counts_repeat() {
        counts_repeat(construct::run, 128);
    }

    #[test]
    fn serve_counts_repeat() {
        counts_repeat(serve::run, 2_000);
    }

    #[test]
    fn live_counts_repeat() {
        counts_repeat(live::run, 2_000);
    }

    #[test]
    fn result_line_lists_exactly_the_registry() {
        let mut out = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        out.e2e.insert("setup_s", 0.5);
        let line = result_json(&out, false);
        let keys = line.matches("\"unit\"").count();
        assert_eq!(keys, E2E.len());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert_eq!(
            result_json(&out, true).matches("\"unit\"").count(),
            LAYERS.len()
        );
    }
}
