//! The three workloads and the inputs they are made from: a pinned model
//! and traffic drawn from the run's seed.

use ghsom_core::GhsomConfig;
use ghsom_serve::EngineConfig;
use traffic::synth::{MixSpec, TrafficGenerator};
use traffic::{AttackType, ConnectionRecord, Dataset};

/// Training records of the pinned corpus.
pub const TRAIN: usize = 8_000;
/// Test records of the pinned corpus: one pass of the score workloads.
pub const TEST: usize = 6_000;
/// Records in one pass of the benign-heavy `bulk_observe` corpus.
pub const BULK_CORPUS: usize = 16_384;
/// Share of `Normal` records in the benign-heavy mix.
pub const BULK_NORMAL_SHARE: f64 = 0.98;
/// The tenant every workload serves.
pub const TENANT: &str = "prod";
/// Seed of the training corpus and the GHSOM. The model is pinned, so a
/// run's `--seed` changes the traffic served and not the cost of the
/// model serving it.
pub const MODEL_SEED: u64 = 42;

/// A named traffic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection, one 32-record `score` batch in flight.
    EdgeLockstep,
    /// One connection, two 512-record `observe` batches in flight.
    BulkObserve,
    /// One router over two `--fleet` daemons, 1,024-record `score` batches.
    FleetFanout,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "edge_lockstep" => Some(Workload::EdgeLockstep),
            "bulk_observe" => Some(Workload::BulkObserve),
            "fleet_fanout" => Some(Workload::FleetFanout),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeLockstep => "edge_lockstep",
            Workload::BulkObserve => "bulk_observe",
            Workload::FleetFanout => "fleet_fanout",
        }
    }

    /// Records per client batch.
    pub fn batch(self) -> usize {
        match self {
            Workload::EdgeLockstep => 32,
            Workload::BulkObserve => 512,
            Workload::FleetFanout => 1_024,
        }
    }

    /// Batches the generator keeps in flight.
    pub fn in_flight(self) -> usize {
        match self {
            Workload::BulkObserve => 2,
            _ => 1,
        }
    }

    /// Daemons the workload runs.
    pub fn nodes(self) -> usize {
        match self {
            Workload::FleetFanout => 2,
            _ => 1,
        }
    }

    /// `true` for the stateful `observe` workload.
    pub fn observes(self) -> bool {
        self == Workload::BulkObserve
    }
}

/// The model every workload serves: the `shard_scaling` / `engine` bench
/// configuration, trained under [`MODEL_SEED`].
pub fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_ghsom(
            GhsomConfig::default()
                .with_tau1(0.3)
                .with_tau2(0.03)
                .with_max_depth(4)
                .with_epochs(3, 3)
                .with_max_growth_rounds(16)
                .with_max_map_units(256)
                .with_max_total_units(2_000)
                .with_min_unit_samples(10)
                .with_seed(MODEL_SEED),
        )
        .with_stream(4.0, 1_000)
}

/// A workload's inputs: the pinned training set and one pass of the
/// records it sends, extended by one batch so every batch is a contiguous
/// slice.
pub struct Corpus {
    /// Training set of the model.
    pub train: Dataset,
    /// Records of one pass.
    pub len: usize,
    ring: Vec<ConnectionRecord>,
    batch: usize,
}

impl Corpus {
    /// Generates the inputs of `workload`: the training set under
    /// [`MODEL_SEED`], the traffic under `seed`.
    ///
    /// # Errors
    ///
    /// The generator refuses the mix (never for the built-in mixes).
    pub fn generate(workload: Workload, seed: u64) -> Result<Self, String> {
        let err = |e: traffic::TrafficError| e.to_string();
        let (train, _) = traffic::synth::kdd_train_test(TRAIN, TEST, MODEL_SEED).map_err(err)?;
        let (_, test) = traffic::synth::kdd_train_test(TRAIN, TEST, seed).map_err(err)?;
        let pass: Vec<ConnectionRecord> = if workload.observes() {
            TrafficGenerator::new(benign_heavy_mix()?, seed.wrapping_add(0xB0_1C))
                .map_err(|e| e.to_string())?
                .generate(BULK_CORPUS)
                .records()
                .to_vec()
        } else {
            test.records().to_vec()
        };
        let batch = workload.batch();
        let len = pass.len();
        let mut ring = pass;
        ring.extend_from_within(..batch);
        Ok(Corpus {
            train,
            len,
            ring,
            batch,
        })
    }

    /// Stream offset of batch `k`, in `[0, len)`.
    pub fn start(&self, k: u64) -> usize {
        ((k as u128 * self.batch as u128) % self.len as u128) as usize
    }

    /// The records of batch `k` of the endless stream over the pass.
    pub fn batch(&self, k: u64) -> &[ConnectionRecord] {
        let s = self.start(k);
        &self.ring[s..s + self.batch]
    }

    /// Records of batch `k` that belong to the first pass, as their
    /// offsets `[start, end)` into the pass; empty after the first pass.
    pub fn first_pass(&self, k: u64) -> std::ops::Range<usize> {
        let start = (k as u128 * self.batch as u128).min(self.len as u128) as usize;
        start..(start + self.batch).min(self.len)
    }

    /// The record at `offset` of the pass.
    pub fn record(&self, offset: usize) -> &ConnectionRecord {
        &self.ring[offset]
    }

    /// One pass of records.
    pub fn pass(&self) -> &[ConnectionRecord] {
        &self.ring[..self.len]
    }
}

/// 98 % `Normal`; the other 2 % split over the KDD-test attack types in
/// their KDD-test proportions.
fn benign_heavy_mix() -> Result<MixSpec, String> {
    let test = MixSpec::kdd_test();
    let attack_share = 1.0 - test.probability(AttackType::Normal);
    let mut weights = vec![(AttackType::Normal, BULK_NORMAL_SHARE)];
    weights.extend(
        test.classes()
            .into_iter()
            .filter(|&t| t != AttackType::Normal)
            .map(|t| {
                (
                    t,
                    (1.0 - BULK_NORMAL_SHARE) * test.probability(t) / attack_share,
                )
            }),
    );
    MixSpec::custom(weights).map_err(|e| e.to_string())
}

/// Flagged attacks and flagged normal records over one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Attack records seen.
    pub attacks: u64,
    /// Attack records flagged.
    pub detected: u64,
    /// Normal records seen.
    pub normals: u64,
    /// Normal records flagged.
    pub false_alarms: u64,
}

impl Quality {
    /// Counts one verdict on a record.
    pub fn add(&mut self, attack: bool, flagged: bool) {
        if attack {
            self.attacks += 1;
            self.detected += u64::from(flagged);
        } else {
            self.normals += 1;
            self.false_alarms += u64::from(flagged);
        }
    }

    /// Records counted.
    pub fn seen(&self) -> u64 {
        self.attacks + self.normals
    }

    /// Flagged attacks over attacks.
    pub fn detection_rate(&self) -> f64 {
        self.detected as f64 / self.attacks as f64
    }

    /// Flagged normal records over normal records.
    pub fn false_positive_rate(&self) -> f64 {
        self.false_alarms as f64 / self.normals as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in [
            Workload::EdgeLockstep,
            Workload::BulkObserve,
            Workload::FleetFanout,
        ] {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn benign_heavy_mix_is_two_percent_attacks() {
        let mix = benign_heavy_mix().unwrap();
        assert!((mix.probability(AttackType::Normal) - 0.98).abs() < 1e-12);
        assert!(mix.probability(AttackType::Smurf) > mix.probability(AttackType::Neptune));
    }

    #[test]
    fn stream_wraps_and_first_pass_ends() {
        let c = Corpus::generate(Workload::FleetFanout, 3).unwrap();
        assert_eq!(c.len, TEST);
        assert_eq!(c.start(5), 5 * 1_024);
        assert_eq!(c.start(6), 6 * 1_024 - TEST);
        assert_eq!(c.batch(5)[0], c.pass()[5 * 1_024]);
        assert_eq!(c.batch(5)[1_023], c.pass()[6 * 1_024 - TEST - 1]);
        assert_eq!(c.first_pass(5), 5 * 1_024..TEST);
        assert!(c.first_pass(6).is_empty());
        let again = Corpus::generate(Workload::FleetFanout, 3).unwrap();
        assert_eq!(c.pass(), again.pass());
        let other = Corpus::generate(Workload::FleetFanout, 4).unwrap();
        assert_ne!(c.pass(), other.pass());
        assert_eq!(c.train.records(), other.train.records());
    }
}
