//! The host and provenance record written into every result, and the rule
//! that results from different hosts are never compared.

use serde::{Deserialize, Serialize};

/// Where and from what a result was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cores this process may run on (`available_parallelism`).
    pub nproc: usize,
    /// `rustc --version` of the toolchain that built the daemon.
    pub rustc: String,
    /// Git commit of the source tree, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a 64 digest of the daemon binary that was served.
    pub daemon_digest: String,
    /// `true` when the load generator and the daemons ran on one CPU.
    pub pinned: bool,
}

impl Host {
    /// Probes the running host. `rustc` and `commit` come from the
    /// script that built the binaries; call before pinning, so `nproc`
    /// counts the host's cores.
    pub fn probe(rustc: String, commit: String, daemon_digest: String, pinned: bool) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            cpu_model,
            nproc,
            rustc,
            commit,
            daemon_digest,
            pinned,
        }
    }

    /// Two results compare only when they were measured on the same kind
    /// of host under the same pinning.
    pub fn same_host(&self, other: &Host) -> bool {
        self.cpu_model == other.cpu_model
            && self.nproc == other.nproc
            && self.pinned == other.pinned
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a 64 over `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cpu: &str, nproc: usize) -> Host {
        Host {
            cpu_model: cpu.to_string(),
            nproc,
            rustc: "rustc 1.95.0".to_string(),
            commit: "none".to_string(),
            daemon_digest: digest(b""),
            pinned: false,
        }
    }

    #[test]
    fn hosts_compare_on_cpu_cores_and_pinning() {
        let a = host("Xeon", 2);
        assert!(a.same_host(&Host {
            commit: "abc".to_string(),
            ..a.clone()
        }));
        assert!(!a.same_host(&host("Xeon", 1)));
        assert!(!a.same_host(&host("EPYC", 2)));
        assert!(!a.same_host(&Host {
            pinned: true,
            ..a.clone()
        }));
    }

    #[test]
    fn fnv_digest_matches_the_reference_vectors() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
