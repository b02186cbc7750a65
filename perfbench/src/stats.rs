//! Order statistics and Prometheus scrapes.

use crate::http::{raw_get, Conn};
use std::collections::HashMap;

/// The median (nearest rank) of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| v[(v.len() - 1) / 2])
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile reported as the tail. On cluster-small's
/// sub-millisecond requests the few percent that share two cores with an
/// ingest fan-out, a health probe or a neighbour's burst move the p98 and
/// p99 by up to 50% from run to run, while the p95 holds.
pub const TAIL_CAP: f64 = 0.95;

/// The [`TAIL_CAP`] quantile, or where fewer than [`TAIL_BEYOND`] samples
/// lie beyond it, the highest percentile that has that many beyond it;
/// with the percentile it stands for. `None` when the sample is too small
/// to have such a tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cap_rank = (TAIL_CAP * v.len() as f64).ceil() as usize - 1;
    let rank = cap_rank.min(v.len() - 1 - TAIL_BEYOND);
    Some((v[rank], 100.0 * (rank + 1) as f64 / v.len() as f64))
}

/// The [`TAIL_CAP`] quantile itself, when at least [`TAIL_BEYOND`] samples
/// lie beyond it; `None` otherwise.
pub fn capped_tail(values: &[f64]) -> Option<f64> {
    tail(values)
        .filter(|&(_, pct)| pct >= 100.0 * TAIL_CAP)
        .map(|(v, _)| v)
}

/// The `q`-quantile (nearest rank) of `values`, `0 < q < 1`.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    Some(v[rank])
}

/// One `/metrics?format=prometheus` scrape: every sample line by its
/// full series name (histogram buckets keep their `{le="..."}` suffix).
#[derive(Debug, Clone, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// Scrapes `addr`.
    pub fn take(addr: &str) -> Result<Scrape, String> {
        let reply = Conn::new(addr)
            .send(&raw_get("/metrics?format=prometheus"))
            .map_err(|e| format!("scraping {addr}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("scraping {addr}: status {}", reply.status));
        }
        Ok(Scrape::parse(&String::from_utf8_lossy(&reply.body)))
    }

    /// Parses Prometheus text exposition.
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    Some((name.to_owned(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// A series' value, 0 when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `after − before` for every series of `after`.
    pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
        Scrape(
            after
                .0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// Sum of the same series over several servers' deltas.
    pub fn total(scrapes: &[Scrape], series: &str) -> f64 {
        scrapes.iter().map(|s| s.get(series)).sum()
    }

    /// Mean of a histogram (`_sum / _count`), 0 without samples.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let count = self.get(&format!("{name}_count"));
        if count > 0.0 {
            self.get(&format!("{name}_sum")) / count
        } else {
            0.0
        }
    }

    /// The `q`-quantile of a histogram, interpolated linearly inside the
    /// bucket it falls in (the lower bound of an open last bucket); 0
    /// without samples.
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, v))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let Some(&(_, total)) = buckets.last() else {
            return 0.0;
        };
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let (mut lo, mut below) = (0.0, 0.0);
        for &(le, cumulative) in &buckets {
            if cumulative >= rank && cumulative > below {
                if le.is_infinite() {
                    return lo;
                }
                return lo + (le - lo) * (rank - below) / (cumulative - below);
            }
            (lo, below) = (le, cumulative);
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..10]), None);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((1900.0, 95.0)), "capped at p95");
        assert_eq!(capped_tail(&many), Some(1900.0));
        assert_eq!(capped_tail(&v), None, "p90 is not the capped tail");
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
    }

    #[test]
    fn histogram_deltas() {
        let before = Scrape::parse(
            "h_bucket{le=\"1\"} 1\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"7\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
        );
        let after = Scrape::parse(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"3\"} 3\nh_bucket{le=\"7\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 17\nh_count 5\n",
        );
        let d = Scrape::delta(&before, &after);
        assert_eq!(d.hist_mean("h"), 4.0);
        // Delta buckets: ≤1: 0, ≤3: 2, ≤7: 4 of 4 samples.
        assert_eq!(d.hist_quantile("h", 0.5), 3.0);
        assert_eq!(d.hist_quantile("h", 0.25), 2.0);
        assert_eq!(d.hist_quantile("h", 0.75), 5.0);
    }
}
