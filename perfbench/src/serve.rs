//! The serving driver: one session of `fedrec_serve::Service` traffic,
//! timed from the benchmark's own per-request timestamps.
//!
//! [`inline_session`] serves a cell's trained model on the calling
//! thread. [`session`] (serve-million) publishes a snapshot, warms the
//! hot set, then runs two
//! phases against one serving worker thread (the calling thread is the
//! request generator, so a session uses two threads):
//!
//! * **closed loop** — lock-step bursts of one batch quantum; the next
//!   burst is submitted only after every reply of the last one arrived.
//!   Gives `serve_rps` and the hit ratio.
//! * **open loop** — request `i` is due at `i / rate` seconds, whatever
//!   the service is doing; latency runs from the due time to the reply,
//!   so a publish stall is charged to every request queued behind it.
//!   Gives `serve_p50_us`/`serve_p99_us` and the generator's lateness.
//!
//! With one worker the service answers in submission order, so replies
//! are matched to requests positionally. Every request counts as one
//! operation: it fails if it was refused, went unanswered, came back for
//! another user, or — on a fixed sample — is not byte-identical (ids and
//! score bits) to an offline `PrunedScores` ranking of the snapshot its
//! epoch tag names.

use crate::clock;
use fedrec_linalg::Matrix;
use fedrec_recsys::scorer::{PrunedItems, PrunedScores};
use fedrec_recsys::UserRowSource;
use fedrec_serve::{ServeConfig, ServedTopK, Service, SERVE_BATCH};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Queue capacity of the service (the `ServeSpec` shape).
const QUEUE_CAP: usize = 4_096;

/// One session's traffic shape.
#[derive(Debug, Clone)]
pub struct ServeLoad {
    /// Ranked items per response.
    pub top_k: usize,
    /// Hot users; 19 of 20 requests cycle through them, every 20th walks
    /// the cold tail.
    pub hot: usize,
    /// Closed-loop requests.
    pub closed: usize,
    /// Open-loop requests.
    pub open: usize,
    /// Open-loop offered rate (requests/s), fixed per workload.
    pub rate: f64,
    /// Publish a drifted snapshot every this many submissions (0 = the
    /// first snapshot serves the whole session).
    pub publish_every: usize,
    /// Verify every this-many-th request against offline ranking.
    pub sample_every: usize,
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Requests submitted (warmup included).
    pub attempted: u64,
    /// Requests refused, unanswered, misrouted or not byte-identical.
    pub failed: u64,
    /// Seconds: service build + first publish + warmup.
    pub warm_s: f64,
    /// Seconds of the closed-loop phase.
    pub closed_s: f64,
    /// Closed-loop requests answered.
    pub closed_done: u64,
    /// Closed-loop cache hits.
    pub closed_hits: u64,
    /// Per-request latency in ns: from due time to reply in the open
    /// loop ([`session`]), from call to return inline ([`inline_session`]).
    pub latency_ns: Vec<f64>,
    /// Open-loop submission lateness per request, ns past its due time.
    pub lag_ns: Vec<f64>,
    /// Milliseconds of the session's first `Service::publish`.
    pub first_publish_ms: f64,
    /// Milliseconds per later publish step (drift + `Service::publish`).
    pub publish_ms: Vec<f64>,
    /// Snapshots published (the first included).
    pub publishes: u64,
    /// Requests the service refused.
    pub refused: u64,
    /// Responses checked against offline ranking.
    pub verified: u64,
}

/// The user a submission targets: 19 of 20 cycle the hot set, every
/// 20th walks the cold tail (a user the service has never seen).
fn user_for(submission: usize, hot: usize, users: usize) -> u32 {
    if users > hot && submission % 20 == 19 {
        (hot + (submission / 20) % (users - hot)) as u32
    } else {
        (submission % hot) as u32
    }
}

/// A small deterministic per-user exclusion list standing in for the
/// requester's already-interacted items (sorted, as `submit` requires).
fn exclusions_for(user: u32, items: usize) -> Vec<u32> {
    ((user as usize % 97)..items)
        .step_by(9_973)
        .map(|i| i as u32)
        .collect()
}

/// The training stand-in between publishes: a small uniform drift that
/// preserves the ranking, so drift-bound caches stay provably valid.
fn drift(items: &mut Matrix) {
    for x in items.as_mut_slice() {
        *x *= 1.001;
    }
}

/// Sample index of warmup requests: never verified (warmup runs before
/// the first drift, the timed phases sample the drifted epochs).
const WARMUP: usize = usize::MAX;

/// A response kept for offline verification.
struct Sample {
    epoch: u64,
    user: u32,
    top: Vec<(u32, f32)>,
}

/// Mutable bookkeeping of one session's generator.
struct Gen<'a> {
    svc: &'a Service,
    items: &'a mut Matrix,
    load: &'a ServeLoad,
    users: usize,
    submitted: usize,
    epoch: u64,
    out: ServeOutcome,
    samples: Vec<Sample>,
}

impl Gen<'_> {
    /// Submit the next request (publishing first when one is due).
    /// Returns the user on success, `None` when refused.
    fn submit(&mut self, tx: &mpsc::Sender<ServedTopK>) -> Option<u32> {
        let every = self.load.publish_every;
        if every > 0 && self.submitted > 0 && self.submitted.is_multiple_of(every) {
            let t = clock::now();
            self.epoch += 1;
            drift(self.items);
            self.svc.publish(self.epoch, self.items);
            self.out.publish_ms.push(clock::secs_since(t) * 1e3);
        }
        let user = user_for(self.submitted, self.load.hot, self.users);
        self.submitted += 1;
        self.out.attempted += 1;
        let m = self.items.rows();
        if self.svc.submit(user, exclusions_for(user, m), tx.clone()) {
            Some(user)
        } else {
            self.out.refused += 1;
            self.out.failed += 1;
            None
        }
    }

    /// Account one reply for the request that targeted `want`.
    fn reply(&mut self, resp: &ServedTopK, want: u32, index: usize) -> bool {
        if resp.user != want || resp.top.len() > self.load.top_k {
            self.out.failed += 1;
            return false;
        }
        if index != WARMUP && index.is_multiple_of(self.load.sample_every) {
            self.samples.push(Sample {
                epoch: resp.epoch,
                user: resp.user,
                top: resp.top.clone(),
            });
        }
        true
    }

    /// Wait for the replies to `pending` (positional, FIFO); returns the
    /// cache hits among them.
    fn wait_all(&mut self, rx: &Receiver<ServedTopK>, pending: &mut VecDeque<(u32, usize)>) -> u64 {
        let mut hits = 0u64;
        while let Some((want, index)) = pending.pop_front() {
            match rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(resp) => {
                    if self.reply(&resp, want, index) && resp.cache_hit {
                        hits += 1;
                    }
                }
                Err(_) => {
                    self.out.failed += 1 + pending.len() as u64;
                    pending.clear();
                }
            }
        }
        hits
    }
}

/// Run one session over `items` (drifted in place by the publishes) and
/// the user rows `rows`, which must stay fixed for the session.
pub fn session(items: &mut Matrix, rows: &dyn UserRowSource, load: &ServeLoad) -> ServeOutcome {
    let users = rows.num_users();
    assert!(load.hot > 0 && load.hot <= users, "hot set out of range");
    let base = items.clone();
    let t_warm = clock::now();
    let svc = Service::new(ServeConfig {
        k: load.top_k,
        queue_cap: QUEUE_CAP,
        batch: SERVE_BATCH,
    });
    let t_publish = clock::now();
    svc.publish(0, items);
    let first_publish_ms = clock::secs_since(t_publish) * 1e3;
    let mut gen = Gen {
        svc: &svc,
        items,
        load,
        users,
        submitted: 0,
        epoch: 0,
        out: ServeOutcome::default(),
        samples: Vec::new(),
    };
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| svc.worker_loop(rows));
        let (tx, rx) = mpsc::channel();
        let quantum = SERVE_BATCH;
        let mut pending: VecDeque<(u32, usize)> = VecDeque::new();

        // Warmup: every hot user once, so the timed phases see the
        // steady state. Warmup submissions are not counted against the
        // publish cadence.
        let mut warmed = 0usize;
        while warmed < load.hot {
            let burst = quantum.min(load.hot - warmed);
            for _ in 0..burst {
                let user = warmed as u32;
                gen.out.attempted += 1;
                if svc.submit(user, exclusions_for(user, gen.items.rows()), tx.clone()) {
                    pending.push_back((user, WARMUP));
                } else {
                    gen.out.refused += 1;
                    gen.out.failed += 1;
                }
                warmed += 1;
            }
            gen.wait_all(&rx, &mut pending);
        }
        gen.out.warm_s = clock::secs_since(t_warm);

        // Closed loop.
        let t_closed = clock::now();
        let mut done = 0usize;
        while done < load.closed {
            let burst = quantum.min(load.closed - done);
            for _ in 0..burst {
                let index = gen.submitted;
                if let Some(user) = gen.submit(&tx) {
                    pending.push_back((user, index));
                }
                done += 1;
            }
            gen.out.closed_done += pending.len() as u64;
            gen.out.closed_hits += gen.wait_all(&rx, &mut pending);
        }
        gen.out.closed_s = clock::secs_since(t_closed);

        // Open loop at the fixed offered rate.
        let period_ns = 1e9 / load.rate;
        let t_open = clock::now();
        let mut due_of: VecDeque<f64> = VecDeque::new();
        let mut sent = 0usize;
        while sent < load.open {
            let due = sent as f64 * period_ns;
            let now = ns_since(t_open);
            if now >= due {
                let index = gen.submitted;
                let at = ns_since(t_open);
                if let Some(user) = gen.submit(&tx) {
                    gen.out.lag_ns.push(at - due);
                    pending.push_back((user, index));
                    due_of.push_back(due);
                }
                sent += 1;
                continue;
            }
            while let Ok(resp) = rx.try_recv() {
                let at = ns_since(t_open);
                open_reply(&mut gen, &resp, &mut pending, &mut due_of, at);
            }
            std::hint::spin_loop();
        }
        while !pending.is_empty() {
            match rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(resp) => {
                    let at = ns_since(t_open);
                    open_reply(&mut gen, &resp, &mut pending, &mut due_of, at);
                }
                Err(_) => {
                    gen.out.failed += pending.len() as u64;
                    pending.clear();
                }
            }
        }
        svc.close();
        worker.join().expect("serving worker panicked");
    });
    let Gen {
        mut out, samples, ..
    } = gen;
    out.publishes = svc.publish_count();
    out.first_publish_ms = first_publish_ms;
    let (verified, mismatched) = verify(base, rows, &samples, load);
    out.verified = verified;
    out.failed += mismatched;
    out
}

/// Serve a fixed model inline: `Service::serve_inline` on the calling
/// thread, one request at a time, after warming the hot set. Only the
/// closed-loop fields and `latency_ns` (call to return) are filled. No thread hand-off sits in the measured path, so a cell's
/// serving numbers measure the serving code over its trained model, not
/// the host's wake-up latency.
pub fn inline_session(items: &Matrix, rows: &dyn UserRowSource, load: &ServeLoad) -> ServeOutcome {
    let users = rows.num_users();
    assert!(load.hot > 0 && load.hot <= users, "hot set out of range");
    let m = items.rows();
    let mut out = ServeOutcome::default();
    let mut samples = Vec::new();
    let t_warm = clock::now();
    let svc = Service::new(ServeConfig {
        k: load.top_k,
        queue_cap: QUEUE_CAP,
        batch: SERVE_BATCH,
    });
    let t_publish = clock::now();
    svc.publish(0, items);
    out.first_publish_ms = clock::secs_since(t_publish) * 1e3;
    let serve = |out: &mut ServeOutcome, user: u32| {
        let exclude = exclusions_for(user, m);
        let t = clock::now();
        let resp = svc.serve_inline(user, &exclude, rows);
        let ns = ns_since(t);
        out.attempted += 1;
        match resp {
            Some(r) if r.user == user && r.top.len() <= load.top_k => Some((r, ns)),
            _ => {
                out.failed += 1;
                None
            }
        }
    };
    for user in 0..load.hot as u32 {
        serve(&mut out, user);
    }
    out.warm_s = clock::secs_since(t_warm);
    let t_closed = clock::now();
    for i in 0..load.closed {
        let user = user_for(i, load.hot, users);
        if let Some((r, ns)) = serve(&mut out, user) {
            out.closed_done += 1;
            out.closed_hits += u64::from(r.cache_hit);
            out.latency_ns.push(ns);
            if i.is_multiple_of(load.sample_every) {
                samples.push(Sample {
                    epoch: r.epoch,
                    user,
                    top: r.top,
                });
            }
        }
    }
    out.closed_s = clock::secs_since(t_closed);
    out.publishes = svc.publish_count();
    let (verified, mismatched) = verify(items.clone(), rows, &samples, load);
    out.verified = verified;
    out.failed += mismatched;
    out
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Account one open-loop reply received at `at` ns.
fn open_reply(
    gen: &mut Gen<'_>,
    resp: &ServedTopK,
    pending: &mut VecDeque<(u32, usize)>,
    due_of: &mut VecDeque<f64>,
    at: f64,
) {
    let (Some((want, index)), Some(due)) = (pending.pop_front(), due_of.pop_front()) else {
        gen.out.failed += 1;
        return;
    };
    if gen.reply(resp, want, index) {
        gen.out.latency_ns.push(at - due);
    }
}

/// Replay the publish drift from `base` and check every sample against
/// an offline ranking of the epoch it was served from. Returns
/// `(checked, mismatched)`.
fn verify(
    mut cur: Matrix,
    rows: &dyn UserRowSource,
    samples: &[Sample],
    load: &ServeLoad,
) -> (u64, u64) {
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.epoch);
    let mut epoch = 0u64;
    let mut pruned = PrunedItems::build(&cur);
    let mut row = vec![0.0f32; cur.cols()];
    let mut offline = Vec::new();
    let mut mismatched = 0u64;
    for s in order {
        while epoch < s.epoch {
            drift(&mut cur);
            epoch += 1;
            if epoch == s.epoch {
                pruned = PrunedItems::build(&cur);
            }
        }
        rows.write_user_row(s.user as usize, &mut row);
        offline.clear();
        PrunedScores::new(&pruned, &cur, &row).top_ranked_excluding(
            &exclusions_for(s.user, cur.rows()),
            load.top_k,
            &mut offline,
        );
        let same = s.top.len() == offline.len()
            && s.top
                .iter()
                .zip(&offline)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same {
            mismatched += 1;
        }
    }
    (samples.len() as u64, mismatched)
}
