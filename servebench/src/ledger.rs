//! The arithmetic that ties the layers to the end-to-end figures, and the
//! client-side count of what was sent, reconciled against each daemon's
//! own counters.

use std::ops::Range;

use ghsom_daemon::fleet::FLEET_MIN_CHUNK;

use crate::scrape::Scrape;

/// Share of the end-to-end time per record that the layer times do not
/// explain: `(end_to_end − layers) / end_to_end`. Negative when layers
/// that run on different cores overlap.
pub fn residual_frac(end_to_end: f64, layers: f64) -> f64 {
    (end_to_end - layers) / end_to_end
}

/// Client batch time left after the daemon's work and the four protocol
/// calls: loopback, lane handoff and wake-ups.
pub fn wire_residual(batch: f64, worker: f64, protocol: f64) -> f64 {
    batch - worker - protocol
}

/// Direct per-chunk times summed, over the router's time for the same
/// batch: 1.0 when the nodes are served one after another, `nodes` when
/// they all run at once.
pub fn overlap(direct_sum: f64, fleet: f64) -> f64 {
    direct_sum / fleet
}

/// The contiguous chunks `FleetClient::score` cuts an `n`-record batch
/// into over `nodes` healthy nodes; chunk `k` goes to node `k % nodes`.
pub fn fleet_chunks(n: usize, nodes: usize) -> Vec<Range<usize>> {
    let workers = nodes.min(n / FLEET_MIN_CHUNK).max(1);
    let width = n.div_ceil(workers).max(1);
    (0..n)
        .step_by(width)
        .map(|start| start..(start + width).min(n))
        .collect()
}

/// What the load generator sent and got back, summed over all daemons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Records in batches the daemons answered with verdicts.
    pub records: u64,
    /// Daemon-level batches answered with verdicts (a fleet call counts
    /// one per chunk).
    pub batches: u64,
    /// Verdicts flagged anomalous.
    pub flagged: u64,
    /// Batches answered with a reject.
    pub rejects: u64,
}

impl Ledger {
    /// Counts one answered daemon batch.
    pub fn answered(&mut self, records: usize, flagged: usize) {
        self.records += records as u64;
        self.batches += 1;
        self.flagged += flagged as u64;
    }

    /// Checks the ledger against every daemon's scraped counters for
    /// `tenant`, summed over the nodes. Returns each disagreement.
    pub fn reconcile(&self, scrapes: &[Scrape], tenant: &str) -> Vec<String> {
        let t = [("tenant", tenant)];
        let total = |name: &str| -> f64 { scrapes.iter().map(|s| s.sum(name, &t)).sum() };
        let checks = [
            ("ghsomd_tenant_records_total", self.records),
            ("ghsomd_tenant_batches_total", self.batches),
            ("ghsomd_tenant_flagged_total", self.flagged),
            ("ghsomd_tenant_rejects_total", self.rejects),
        ];
        checks
            .iter()
            .filter(|(name, mine)| total(name) != *mine as f64)
            .map(|(name, mine)| format!("{name}: daemons {} != client {mine}", total(name)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_and_wire_arithmetic() {
        assert_eq!(residual_frac(10.0, 8.0), 0.2);
        assert_eq!(residual_frac(10.0, 12.5), -0.25);
        assert_eq!(wire_residual(0.72, 0.10, 0.02), 0.72 - 0.10 - 0.02);
    }

    #[test]
    fn overlap_reads_serial_as_one() {
        assert_eq!(overlap(6.0, 6.0), 1.0);
        assert_eq!(overlap(6.0, 3.0), 2.0);
        assert!(overlap(6.0, 6.3) < 1.0);
    }

    #[test]
    fn chunks_follow_the_router() {
        assert_eq!(fleet_chunks(1024, 2), vec![0..512, 512..1024]);
        assert_eq!(fleet_chunks(32, 1), vec![0..32]);
        assert_eq!(fleet_chunks(100, 2), vec![0..100]);
        assert_eq!(fleet_chunks(129, 2), vec![0..65, 65..129]);
        assert_eq!(fleet_chunks(512, 1), vec![0..512]);
    }

    #[test]
    fn ledger_reconciles_against_two_nodes() {
        let node = |records: u64, batches: u64, flagged: u64| {
            Scrape::parse(&format!(
                "ghsomd_tenant_records_total{{tenant=\"prod\"}} {records}\n\
                 ghsomd_tenant_batches_total{{tenant=\"prod\"}} {batches}\n\
                 ghsomd_tenant_flagged_total{{tenant=\"prod\"}} {flagged}\n\
                 ghsomd_tenant_rejects_total{{tenant=\"prod\",code=\"overloaded\"}} 0\n\
                 ghsomd_tenant_rejects_total{{tenant=\"prod\",code=\"internal\"}} 0\n"
            ))
            .unwrap()
        };
        let mut ledger = Ledger::default();
        ledger.answered(512, 7);
        ledger.answered(512, 3);
        assert!(ledger
            .reconcile(&[node(512, 1, 7), node(512, 1, 3)], "prod")
            .is_empty());
        let off = ledger.reconcile(&[node(512, 1, 7), node(511, 1, 3)], "prod");
        assert_eq!(off.len(), 1);
        assert!(off[0].starts_with("ghsomd_tenant_records_total"));
    }
}
