//! The closed-loop read client serve and live share: one connection
//! keeps up to `DEPTH` query batches in flight, times every request
//! from send to response, and keeps a fixed-size sample of answers for
//! the oracle check that runs after the timed phase.

use std::collections::VecDeque;
use std::time::Instant;

use mstv_serve::{Client, ServeError};
use mstv_store::{Answer, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::PathOracle;
use crate::trace::Tracer;
use crate::util::{median, ms_since, quantile};

/// Queries per request.
pub const BATCH: usize = 256;
/// Requests one connection keeps in flight.
pub const DEPTH: usize = 2;
/// One query in every `CHECK_EVERY` of a batch is a candidate for the
/// oracle check.
pub const CHECK_EVERY: usize = 16;

/// A sampled query and its answer.
pub struct Sample {
    pub query: Query,
    pub answer: Answer,
}

/// Consecutive timed requests whose median is one latency window.
pub const WINDOW: usize = 256;
/// Consecutive timed requests whose p99 is one tail window: ten
/// requests lie beyond each window's p99.
pub const TAIL_WINDOW: usize = 1024;

pub struct Reads {
    /// Send-to-response time of every timed request.
    pub latency_ms: Vec<f64>,
    pub queries: u64,
    /// Queries answered with an error or from the wrong epoch.
    pub failed: u64,
    /// `samples[s]` is a uniform sample (a reservoir) of at most `cap`
    /// candidate answers served in state `s = (epoch - 1) % states`.
    /// Its size is fixed before the timed phase, so a faster server
    /// does not make the process hold more of them.
    samples: Vec<Vec<Sample>>,
    /// Candidates offered to each state's reservoir so far.
    seen: Vec<u64>,
    cap: usize,
    rng: StdRng,
}

impl Reads {
    /// A client record whose answers are sampled into one reservoir of
    /// `cap` answers per serving state, drawing from `seed`.
    pub fn new(states: usize, cap: usize, seed: u64) -> Reads {
        Reads {
            latency_ms: Vec::new(),
            queries: 0,
            failed: 0,
            samples: (0..states).map(|_| Vec::with_capacity(cap)).collect(),
            seen: vec![0; states],
            cap,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Offers a candidate answer served at `epoch` to its state's
    /// reservoir (Vitter's algorithm R).
    fn offer(&mut self, epoch: u64, sample: Sample) {
        let s = ((epoch - 1) % self.samples.len() as u64) as usize;
        self.seen[s] += 1;
        if self.samples[s].len() < self.cap {
            self.samples[s].push(sample);
        } else {
            let j = self.rng.gen_range(0..self.seen[s]);
            if j < self.cap as u64 {
                self.samples[s][j as usize] = sample;
            }
        }
    }

    /// Quantile `q` of each window of `len` consecutive requests; all
    /// requests form one window when there are fewer.
    fn windows(&self, len: usize, q: f64) -> Vec<f64> {
        self.latency_ms
            .chunks(len)
            .filter(|w| w.len() == len || self.latency_ms.len() < len)
            .map(|w| quantile(&mut w.to_vec(), q))
            .collect()
    }

    /// The median latency of each window of [`WINDOW`] requests.
    pub fn window_medians_ms(&self) -> Vec<f64> {
        self.windows(WINDOW, 0.5)
    }

    /// The median over windows of [`TAIL_WINDOW`] requests of each
    /// window's p99.
    pub fn latency_p99_ms(&self) -> f64 {
        median(&self.windows(TAIL_WINDOW, 0.99))
    }

    /// The number of sampled answers of serving state `state` that
    /// disagree with `oracle`.
    pub fn wrong_answers(&self, state: usize, oracle: &PathOracle) -> u64 {
        self.samples[state]
            .iter()
            .filter(|s| !oracle.agrees(&s.query, &s.answer))
            .count() as u64
    }
}

/// Sends `batches` over `client` with up to [`DEPTH`] in flight and
/// waits for every response. Answers must come from `epoch`; when
/// `timed`, latencies and query counts are recorded in `reads`.
pub fn pipeline(
    client: &mut Client,
    batches: impl IntoIterator<Item = Vec<Query>>,
    epoch: u64,
    timed: bool,
    reads: &mut Reads,
    tr: &mut Tracer,
) -> Result<(), ServeError> {
    let mut inflight: VecDeque<(u64, Instant, Vec<Query>)> = VecDeque::with_capacity(DEPTH);
    for batch in batches {
        let sent = Instant::now();
        let id = tr.span("serve.send", || client.send(batch.clone()))?;
        inflight.push_back((id, sent, batch));
        if inflight.len() >= DEPTH {
            receive(client, &mut inflight, epoch, timed, reads, tr)?;
        }
    }
    while !inflight.is_empty() {
        receive(client, &mut inflight, epoch, timed, reads, tr)?;
    }
    Ok(())
}

fn receive(
    client: &mut Client,
    inflight: &mut VecDeque<(u64, Instant, Vec<Query>)>,
    epoch: u64,
    timed: bool,
    reads: &mut Reads,
    tr: &mut Tracer,
) -> Result<(), ServeError> {
    let (id, sent, batch) = inflight.pop_front().expect("a request is in flight");
    let resp = tr.span("serve.recv", || client.recv())?;
    let rtt = ms_since(sent);
    if !timed {
        return Ok(());
    }
    reads.latency_ms.push(rtt);
    reads.queries += batch.len() as u64;
    // Per-connection FIFO is part of the serving contract.
    if resp.id != id || resp.server_epoch != epoch || resp.results.len() != batch.len() {
        reads.failed += batch.len() as u64;
        return Ok(());
    }
    for (i, (q, r)) in batch.iter().zip(&resp.results).enumerate() {
        match r {
            Err(_) => reads.failed += 1,
            Ok(a) if i % CHECK_EVERY == 0 => reads.offer(
                epoch,
                Sample {
                    query: *q,
                    answer: *a,
                },
            ),
            Ok(_) => {}
        }
    }
    Ok(())
}

/// The server-side p50 latency in milliseconds, read from the stats
/// JSON `Client::stats` returns (`"server":{…"lat_p50_nanos":N…}`).
pub fn server_p50_ms(stats_json: &str) -> Option<f64> {
    let server = &stats_json[stats_json.find("\"server\":")?..];
    let key = "\"lat_p50_nanos\":";
    let rest = &server[server.find(key)? + key.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse::<f64>().ok().map(|ns| ns / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::{NodeId, Weight};

    #[test]
    fn windowed_statistics() {
        let mut reads = Reads::new(1, 0, 1);
        reads.latency_ms = (0..3 * TAIL_WINDOW)
            .map(|i| (i % TAIL_WINDOW) as f64)
            .collect();
        reads.latency_ms[0] = 1e9;
        assert_eq!(reads.window_medians_ms().len(), 3 * TAIL_WINDOW / WINDOW);
        let mut one_window: Vec<f64> = (0..TAIL_WINDOW).map(|i| i as f64).collect();
        assert_eq!(reads.latency_p99_ms(), quantile(&mut one_window, 0.99));
    }

    #[test]
    fn server_p50_is_read_from_the_server_block() {
        let json = "{\"epoch\":1,\"server\":{\"queries\":5,\"lat_p50_nanos\":2500000,\"x\":1},\
                    \"engine\":{\"lat_p50_nanos\":7}}";
        assert_eq!(server_p50_ms(json), Some(2.5));
        assert_eq!(server_p50_ms("{}"), None);
    }

    #[test]
    fn a_wrong_sampled_answer_counts_as_failed() {
        let g = crate::util::instance(100, 1);
        let oracle = PathOracle::for_graph(&g);
        let q = Query::Max {
            u: NodeId(1),
            v: NodeId(50),
        };
        let mut reads = Reads::new(4, 8, 1);
        let wrong = Answer::Max(Weight(u64::MAX));
        // Epoch 7 is state (7 - 1) % 4 = 2.
        reads.offer(
            7,
            Sample {
                query: q,
                answer: wrong,
            },
        );
        assert_eq!(
            reads.wrong_answers(1, &oracle),
            0,
            "other states are not judged"
        );
        assert_eq!(reads.wrong_answers(2, &oracle), 1);
    }

    #[test]
    fn reservoirs_stay_within_their_size_and_sample_the_whole_stream() {
        let mut reads = Reads::new(1, 100, 3);
        let q = |i: u32| Query::Max {
            u: NodeId(i),
            v: NodeId(0),
        };
        for i in 0..10_000 {
            reads.offer(
                1,
                Sample {
                    query: q(i),
                    answer: Answer::Max(Weight(0)),
                },
            );
        }
        assert_eq!(reads.samples[0].len(), 100);
        assert_eq!(reads.seen[0], 10_000);
        let late = reads.samples[0]
            .iter()
            .filter(|s| matches!(s.query, Query::Max { u, .. } if u.0 >= 5_000))
            .count();
        assert!((30..70).contains(&late), "{late}");
    }
}
