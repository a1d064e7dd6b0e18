//! A deployed workload and its load generator: the daemons of one
//! set-up, the clients that drive them, the verdict gate and the client's
//! ledger.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use detect::prelude::{HybridVerdict, StreamVerdict};
use ghsom_comms::Replicator;
use ghsom_daemon::protocol::{Response, VerdictPayload};
use ghsom_daemon::{DaemonClient, FleetClient, FleetEndpoint};
use ghsom_serve::Engine;

use crate::daemon::DaemonChild;
use crate::ledger::{self, Ledger};
use crate::scrape::Scrape;
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::workload::{Corpus, Quality, Workload, TENANT};
use crate::Env;

/// How long a client waits for a verdict before the batch counts as
/// timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a daemon may take to deploy a bundle.
const DEPLOY_TIMEOUT: Duration = Duration::from_secs(10);
/// Time spent on the `fleet.overlap` and `shard.speedup_2` comparisons.
pub const COMPARE_BUDGET: Duration = Duration::from_millis(800);

/// The timed part of a run.
pub struct Phase {
    started: Instant,
    /// Latency of each answered batch, send to verdict.
    pub lat_ms: Vec<f64>,
    /// Verdicts received.
    pub records: u64,
    /// Seconds from the start to the last verdict.
    pub secs: f64,
    /// CPU seconds the daemons spent during the phase.
    pub daemon_cpu_s: f64,
}

impl Phase {
    fn new() -> Self {
        Phase {
            started: Instant::now(),
            lat_ms: Vec::new(),
            records: 0,
            secs: 0.0,
            daemon_cpu_s: 0.0,
        }
    }

    /// Books one answered batch sent at `sent` and answered at `at`.
    fn answered(
        &mut self,
        sent: Instant,
        at: Instant,
        records: usize,
        k: u64,
        spans: Option<&mut Tracer>,
    ) {
        let ns = (at - sent).as_nanos() as f64;
        self.lat_ms.push(ns / 1e6);
        self.records += records as u64;
        self.secs = (at - self.started).as_secs_f64();
        if let Some(tr) = spans {
            tr.record(Span {
                layer: "client.batch",
                id: k,
                records,
                ns,
            });
        }
    }

    /// Verdicts per second over the whole phase.
    pub fn rate(&self) -> f64 {
        self.records as f64 / self.secs
    }
}

/// The daemons of one set-up, the clients that drive them and the
/// client's ledger.
pub struct Session {
    w: Workload,
    pub corpus: Corpus,
    pub bundle: Vec<u8>,
    /// Children are dropped (killed) before the work directory goes.
    pub nodes: Vec<DaemonChild>,
    pub replicate_s: Vec<f64>,
    single: Option<DaemonClient>,
    fleet: Option<FleetClient>,
    /// In-process verdicts of the pass, extended by one batch.
    expected: Vec<HybridVerdict>,
    /// The warm-up's verdicts, booked once `expected` exists.
    warm: Option<Answer>,
    /// Observe batches in the order the daemon folded them, with a
    /// digest of their verdicts.
    folded: Vec<(u64, u64)>,
    pub ledger: Ledger,
    pub quality: Quality,
    next_k: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Session {
    /// Starts the workload's daemons, deploys `bundle` to them (spool
    /// write, or GHSF replication for `fleet_fanout`) and connects.
    pub fn start(
        env: &Env,
        w: Workload,
        corpus: Corpus,
        bundle: Vec<u8>,
        dir: &Path,
    ) -> Result<Self, String> {
        let fleet = w.nodes() > 1;
        let mut nodes = Vec::with_capacity(w.nodes());
        for i in 0..w.nodes() {
            let spool = dir.join(format!("node{i}"));
            std::fs::create_dir_all(&spool).map_err(|e| format!("spool: {e}"))?;
            if !fleet {
                std::fs::write(spool.join(format!("{TENANT}.bundle")), &bundle)
                    .map_err(|e| format!("spool write: {e}"))?;
            }
            // A lock-step daemon shares the generator's CPU, so each
            // hand-off stays on one core; a pipelined one gets a core of
            // its own, so the generator's work overlaps its own.
            let slot = i + usize::from(w.in_flight() > 1);
            nodes.push(env.spawn_daemon(slot, &spool, fleet)?);
        }
        let mut replicate_s = Vec::new();
        if fleet {
            for node in &nodes {
                let addr = node
                    .fleet
                    .ok_or("a --fleet daemon announced no fleet address")?;
                let mut rep = Replicator::connect(addr).map_err(|e| e.to_string())?;
                let t = Instant::now();
                let done = rep.replicate(TENANT, &bundle).map_err(|e| e.to_string())?;
                replicate_s.push(t.elapsed().as_secs_f64());
                if done.bytes_sent != bundle.len() as u64 {
                    return Err("replication sent a partial bundle".to_string());
                }
            }
        }
        for node in &nodes {
            node.wait_deployed(TENANT, DEPLOY_TIMEOUT)?;
        }
        let (single, fleet_client) = if fleet {
            let endpoints = nodes
                .iter()
                .map(|n| FleetEndpoint {
                    ingest: n.ingest,
                    fleet: n.fleet,
                })
                .collect();
            let client = FleetClient::new(endpoints)
                .map_err(|e| e.to_string())?
                .with_node_timeout(READ_TIMEOUT);
            (None, Some(client))
        } else {
            let mut client = DaemonClient::connect(nodes[0].ingest).map_err(|e| e.to_string())?;
            client
                .set_read_timeout(Some(READ_TIMEOUT))
                .map_err(|e| e.to_string())?;
            (Some(client), None)
        };
        Ok(Session {
            w,
            corpus,
            bundle,
            nodes,
            replicate_s,
            single,
            fleet: fleet_client,
            expected: Vec::new(),
            warm: None,
            folded: Vec::new(),
            ledger: Ledger::default(),
            quality: Quality::default(),
            next_k: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        })
    }

    /// Sends batch 0 and waits for its verdicts: the end of set-up.
    pub fn warm_up(&mut self) -> Result<(), String> {
        let k = self.take_k();
        self.warm = Some(self.send(k).map_err(|e| format!("warm-up: {e}"))?);
        Ok(())
    }

    /// Computes the in-process verdicts every `score` batch must match
    /// (the `fleet.overlap` batches of `bulk_observe` included), then
    /// books the warm-up.
    pub fn expect(&mut self) -> Result<(), String> {
        let engine = Engine::from_bytes(&self.bundle).map_err(|e| e.to_string())?;
        let mut expected = engine
            .score_records(self.corpus.pass())
            .map_err(|e| e.to_string())?;
        expected.extend_from_within(..self.w.batch());
        self.expected = expected;
        if let Some(warm) = self.warm.take() {
            self.book(0, &warm);
        }
        Ok(())
    }

    fn take_k(&mut self) -> u64 {
        let k = self.next_k;
        self.next_k += 1;
        self.attempted += 1;
        k
    }

    /// Sends batch `k` and waits for its verdicts.
    fn send(&mut self, k: u64) -> Result<Answer, String> {
        let batch = self.corpus.batch(k);
        let err = |e: &dyn std::fmt::Display| e.to_string();
        match (&mut self.single, &mut self.fleet) {
            (Some(c), _) if self.w.observes() => c
                .observe(TENANT, batch)
                .map(Answer::Stream)
                .map_err(|e| err(&e)),
            (Some(c), _) => c
                .score(TENANT, batch)
                .map(Answer::Score)
                .map_err(|e| err(&e)),
            (None, Some(f)) => f
                .score(TENANT, batch)
                .map(Answer::Score)
                .map_err(|e| err(&e)),
            (None, None) => Err("no client".to_string()),
        }
    }

    /// Checks and books the answer to batch `k`; returns how many
    /// verdicts it held.
    fn book(&mut self, k: u64, answer: &Answer) -> usize {
        match answer {
            Answer::Score(v) => {
                self.check_score(k, v);
                self.count_quality(k, |i| v.get(i).map(|v| v.anomalous));
                v.len()
            }
            Answer::Stream(v) => {
                self.answered_stream(k, v);
                v.len()
            }
        }
    }

    /// Compares one answered `score` batch bit for bit with the
    /// in-process verdicts and books it, one daemon batch per router
    /// chunk (the direct calls of [`Session::fleet_overlap`] use the same
    /// chunks).
    fn check_score(&mut self, k: u64, verdicts: &[HybridVerdict]) {
        let start = self.corpus.start(k);
        let want = &self.expected[start..start + self.w.batch()];
        let same = verdicts.len() == want.len()
            && verdicts.iter().zip(want).all(|(a, b)| same_hybrid(a, b));
        if !same {
            self.fail(format!(
                "batch {k}: verdicts differ from the in-process engine"
            ));
        }
        for range in ledger::fleet_chunks(verdicts.len(), self.w.nodes()) {
            let flagged = verdicts[range.clone()]
                .iter()
                .filter(|v| v.anomalous)
                .count();
            self.ledger.answered(range.len(), flagged);
        }
    }

    /// Counts the first-pass records of batch `k` into the quality figures.
    /// `flagged(i)` is the verdict on record `i` of the batch.
    fn count_quality(&mut self, k: u64, flagged: impl Fn(usize) -> Option<bool>) {
        let start = self.corpus.start(k);
        for offset in self.corpus.first_pass(k) {
            let attack = self.corpus.record(offset).is_attack();
            if let Some(f) = flagged(offset - start) {
                self.quality.add(attack, f);
            }
        }
    }

    /// Books one answered `observe` batch; its digest is checked against
    /// a fresh engine by [`Session::verify_stream`].
    fn answered_stream(&mut self, k: u64, verdicts: &[StreamVerdict]) {
        if verdicts.len() != self.w.batch() {
            self.fail(format!(
                "batch {k}: {} verdicts for {} records",
                verdicts.len(),
                self.w.batch()
            ));
        }
        let flagged = verdicts.iter().filter(|v| v.anomalous).count();
        self.ledger.answered(verdicts.len(), flagged);
        self.folded.push((k, stream_digest(verdicts)));
        self.count_quality(k, |i| verdicts.get(i).map(|v| v.anomalous));
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Drives the workload until `until`; `spans` gets one span per batch.
    pub fn run_phase(&mut self, until: Instant, mut spans: Option<&mut Tracer>) -> Phase {
        let cpu_before = self.daemon_cpu_s();
        let mut phase = Phase::new();
        if self.w.in_flight() > 1 {
            self.pipelined(until, spans, &mut phase);
        } else {
            while Instant::now() < until {
                let k = self.take_k();
                let sent = Instant::now();
                let result = self.send(k);
                let at = Instant::now();
                match result {
                    Ok(answer) => {
                        let records = self.book(k, &answer);
                        phase.answered(sent, at, records, k, spans.as_deref_mut());
                    }
                    Err(e) => {
                        self.fail(format!("batch {k}: {e}"));
                        break;
                    }
                }
            }
        }
        phase.daemon_cpu_s = match (cpu_before, self.daemon_cpu_s()) {
            (Ok(before), Ok(after)) => after - before,
            (Err(e), _) | (_, Err(e)) => {
                self.errors.push(e);
                f64::NAN
            }
        };
        phase
    }

    /// `Workload::in_flight` `observe` batches in flight on one
    /// connection; responses are matched by `req_id`.
    fn pipelined(&mut self, until: Instant, mut spans: Option<&mut Tracer>, phase: &mut Phase) {
        let mut in_flight: VecDeque<(u64, u64, Instant)> = VecDeque::new();
        let send = |s: &mut Session, in_flight: &mut VecDeque<(u64, u64, Instant)>| {
            let k = s.take_k();
            let Some(client) = s.single.as_mut() else {
                return Err("no client".to_string());
            };
            let sent = Instant::now();
            let req = client
                .send_observe_batch(TENANT, s.corpus.batch(k))
                .map_err(|e| format!("batch {k}: {e}"))?;
            in_flight.push_back((req, k, sent));
            Ok(())
        };
        while in_flight.len() < self.w.in_flight() {
            if let Err(e) = send(self, &mut in_flight) {
                self.fail(e);
                break;
            }
        }
        while let Some((req, k, sent)) = in_flight.pop_front() {
            let Some(client) = self.single.as_mut() else {
                break;
            };
            let response = client.recv_response();
            let at = Instant::now();
            match response {
                Ok(Response::Verdicts {
                    req_id,
                    verdicts: VerdictPayload::Stream(v),
                }) if req_id == req => {
                    phase.answered(sent, at, v.len(), k, spans.as_deref_mut());
                    self.answered_stream(k, &v);
                }
                // A rejected or lost batch ends the phase: the stream
                // replay needs every folded batch in order.
                Ok(_) => {
                    self.fail(format!("batch {k}: no verdicts"));
                    break;
                }
                Err(e) => {
                    self.fail(format!("batch {k}: {e}"));
                    break;
                }
            }
            if Instant::now() < until {
                if let Err(e) = send(self, &mut in_flight) {
                    self.fail(e);
                    break;
                }
            }
        }
        for (_, k, _) in in_flight.drain(..) {
            self.fail(format!("batch {k}: lost in flight"));
        }
    }

    /// CPU seconds the daemons have used so far, summed over nodes.
    fn daemon_cpu_s(&self) -> Result<f64, String> {
        self.nodes.iter().map(DaemonChild::cpu_seconds).sum()
    }

    /// Replays every folded `observe` batch, in order, on a fresh engine
    /// and compares the verdict digests.
    pub fn verify_stream(&mut self) -> Result<(), String> {
        if !self.w.observes() {
            return Ok(());
        }
        let engine = Engine::from_bytes(&self.bundle).map_err(|e| e.to_string())?;
        let folded = std::mem::take(&mut self.folded);
        for &(k, digest) in &folded {
            let want = engine
                .observe_records(self.corpus.batch(k))
                .map_err(|e| e.to_string())?;
            if stream_digest(&want) != digest {
                self.fail(format!(
                    "batch {k}: stream verdicts differ from the in-process engine"
                ));
            }
        }
        self.folded = folded;
        Ok(())
    }

    /// `fleet.overlap`: the workload's batches through a `FleetClient`
    /// over the workload's daemons, against direct `DaemonClient::score`
    /// calls on the same chunks.
    pub fn fleet_overlap(&mut self) -> Result<f64, String> {
        let endpoints: Vec<FleetEndpoint> = self
            .nodes
            .iter()
            .map(|n| FleetEndpoint::ingest_only(n.ingest))
            .collect();
        let mut router = FleetClient::new(endpoints)
            .map_err(|e| e.to_string())?
            .with_node_timeout(READ_TIMEOUT);
        let mut direct = Vec::new();
        for n in &self.nodes {
            let mut c = DaemonClient::connect(n.ingest).map_err(|e| e.to_string())?;
            c.set_read_timeout(Some(READ_TIMEOUT))
                .map_err(|e| e.to_string())?;
            direct.push(c);
        }
        let chunks = ledger::fleet_chunks(self.w.batch(), self.nodes.len());
        let nodes = direct.len();
        let mut ratios = Vec::new();
        let started = Instant::now();
        let mut k = 0u64;
        while started.elapsed() < COMPARE_BUDGET || k < 8 {
            let batch = self.corpus.batch(k).to_vec();
            self.attempted += 1;
            let t = Instant::now();
            let routed = router.score(TENANT, &batch).map_err(|e| e.to_string())?;
            let fleet_s = t.elapsed().as_secs_f64();
            self.check_score(k, &routed);
            let mut direct_s = 0.0;
            let mut joined = Vec::with_capacity(batch.len());
            for (i, range) in chunks.iter().enumerate() {
                self.attempted += 1;
                let t = Instant::now();
                let v = direct[i % nodes]
                    .score(TENANT, &batch[range.clone()])
                    .map_err(|e| e.to_string())?;
                direct_s += t.elapsed().as_secs_f64();
                joined.extend(v);
            }
            self.check_score(k, &joined);
            ratios.push(ledger::overlap(direct_s, fleet_s));
            k += 1;
        }
        Ok(stats::median(&ratios))
    }

    pub fn scrapes(&self) -> Result<Vec<Scrape>, String> {
        self.nodes.iter().map(DaemonChild::scrape).collect()
    }
}

/// The verdicts of one batch.
enum Answer {
    Score(Vec<HybridVerdict>),
    Stream(Vec<StreamVerdict>),
}

/// Bitwise equality of two hybrid verdicts.
fn same_hybrid(a: &HybridVerdict, b: &HybridVerdict) -> bool {
    a.score.to_bits() == b.score.to_bits() && a.anomalous == b.anomalous && a.category == b.category
}

/// FNV-1a 64 over the bits of a batch of stream verdicts.
fn stream_digest(verdicts: &[StreamVerdict]) -> u64 {
    let mut bytes = Vec::with_capacity(verdicts.len() * 17);
    for v in verdicts {
        bytes.extend_from_slice(&v.score.to_bits().to_le_bytes());
        bytes.push(u8::from(v.anomalous));
        bytes.extend_from_slice(&v.threshold.to_bits().to_le_bytes());
    }
    crate::host::fnv1a64(&bytes)
}
