//! Reading what the daemon says about itself: the address lines it prints
//! on start-up and the plaintext surface of its metrics listener.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One `name{label="value",…} number` line of the metrics surface.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A parsed metrics dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    samples: Vec<Sample>,
}

impl Scrape {
    /// Parses a dump rendered by `DaemonMetrics::render`. `inf` reads as
    /// infinity; blank lines are skipped.
    ///
    /// # Errors
    ///
    /// A line that is not `name[{labels}] value`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut samples = Vec::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("metrics line without a value: {line:?}"))?;
            let value = match value {
                "inf" => f64::INFINITY,
                v => v
                    .parse()
                    .map_err(|_| format!("metrics line with a bad value: {line:?}"))?,
            };
            let (name, labels) = match series.split_once('{') {
                None => (series, Vec::new()),
                Some((name, rest)) => {
                    let body = rest
                        .strip_suffix('}')
                        .ok_or_else(|| format!("unclosed label set: {line:?}"))?;
                    (
                        name,
                        parse_labels(body).ok_or_else(|| format!("bad labels: {line:?}"))?,
                    )
                }
            };
            samples.push(Sample {
                name: name.to_string(),
                labels,
                value,
            });
        }
        Ok(Scrape { samples })
    }

    /// The value of the series `name` whose labels include every pair of
    /// `labels`, if exactly one line matches.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut hits = self.samples.iter().filter(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        });
        let first = hits.next()?;
        hits.next().is_none().then_some(first.value)
    }

    /// Sum over every line of series `name` whose labels include `labels`.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
            .sum()
    }
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let (value, after) = after.split_once('"')?;
        labels.push((key.to_string(), value.to_string()));
        rest = after.strip_prefix(',').unwrap_or(after);
    }
    Some(labels)
}

/// Reads the whole metrics surface from a daemon's metrics listener.
///
/// # Errors
///
/// Connection, read or parse failures, as text.
pub fn fetch(addr: SocketAddr) -> Result<Scrape, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("metrics connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("metrics read {addr}: {e}"))?;
    Scrape::parse(&text)
}

/// Which listener a start-up line announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listener {
    /// GHSD record ingest.
    Ingest,
    /// Plaintext metrics.
    Metrics,
    /// GHSF bundle replication.
    Fleet,
}

/// Parses one address line `ghsom-daemon` prints on start-up, such as
/// `  ingest  127.0.0.1:40123`; any other line gives `None`.
pub fn startup_line(line: &str) -> Option<(Listener, SocketAddr)> {
    let mut words = line.split_whitespace();
    let listener = match words.next()? {
        "ingest" => Listener::Ingest,
        "metrics" => Listener::Metrics,
        "fleet" => Listener::Fleet,
        _ => return None,
    };
    let addr = words.next()?.parse().ok()?;
    words.next().is_none().then_some((listener, addr))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUMP: &str = include_str!("../fixtures/metrics_dump.txt");

    #[test]
    fn captured_dump_parses() {
        let s = Scrape::parse(DUMP).unwrap();
        let t = [("tenant", "prod")];
        assert_eq!(s.value("ghsomd_tenant_records_total", &t), Some(26_016.0));
        assert_eq!(s.value("ghsomd_tenant_batches_total", &t), Some(813.0));
        assert_eq!(s.value("ghsomd_tenant_flagged_total", &t), Some(20_771.0));
        assert_eq!(s.sum("ghsomd_tenant_rejects_total", &t), 0.0);
        assert_eq!(s.value("ghsomd_tenant_queue_high_water", &t), Some(1.0));
        let p50 = [("tenant", "prod"), ("quantile", "0.5")];
        assert_eq!(
            s.value("ghsomd_tenant_batch_latency_us", &p50),
            Some(1_000.0)
        );
        let deployed = [("tenant", "prod"), ("kind", "deployed")];
        assert_eq!(
            s.value("ghsomd_tenant_spool_events_total", &deployed),
            Some(1.0)
        );
        assert_eq!(s.value("ghsomd_frames_total", &[]), Some(813.0));
        // Two reject lines share the name: `value` wants one match.
        assert_eq!(s.value("ghsomd_tenant_rejects_total", &t), None);
    }

    #[test]
    fn live_render_parses() {
        let m = ghsom_daemon::DaemonMetrics::new();
        let t = m.tenant("edge");
        t.record_batch(32, 5, 700);
        t.record_batch(32, 0, 90_000);
        t.record_overload(32);
        let s = Scrape::parse(&m.render()).unwrap();
        let edge = [("tenant", "edge")];
        assert_eq!(s.value("ghsomd_tenant_records_total", &edge), Some(64.0));
        assert_eq!(s.value("ghsomd_tenant_batches_total", &edge), Some(2.0));
        assert_eq!(s.sum("ghsomd_tenant_rejects_total", &edge), 1.0);
        let p99 = [("tenant", "edge"), ("quantile", "0.99")];
        assert_eq!(
            s.value("ghsomd_tenant_batch_latency_us", &p99),
            Some(100_000.0)
        );
    }

    #[test]
    fn malformed_dumps_are_refused() {
        assert!(Scrape::parse("ghsomd_frames_total").is_err());
        assert!(Scrape::parse("ghsomd_frames_total x").is_err());
        assert!(Scrape::parse("a{tenant=\"p\" 1").is_err());
        assert!(Scrape::parse("a{tenant=p} 1").is_err());
        assert_eq!(
            Scrape::parse("a inf").unwrap().value("a", &[]),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn startup_lines() {
        let addr: SocketAddr = "127.0.0.1:40123".parse().unwrap();
        assert_eq!(
            startup_line("  ingest  127.0.0.1:40123"),
            Some((Listener::Ingest, addr))
        );
        assert_eq!(
            startup_line("  metrics 127.0.0.1:40123"),
            Some((Listener::Metrics, addr))
        );
        assert_eq!(
            startup_line("  fleet   127.0.0.1:40123"),
            Some((Listener::Fleet, addr))
        );
        assert_eq!(startup_line("ghsom-daemon serving spool /tmp/x"), None);
        assert_eq!(startup_line("  ingest  not-an-address"), None);
        assert_eq!(startup_line("  ingest  127.0.0.1:1 extra"), None);
        assert_eq!(startup_line(""), None);
    }
}
