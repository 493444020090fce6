//! Order statistics for latency samples and run summaries.

use trout_std::json::Json;

/// Percentiles a timing may be reported at, highest first. A timing is
/// reported at the highest one that still has at least [`MIN_BEYOND`]
/// samples beyond it.
const TAIL_PCTS: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `v` into a distribution.
    pub fn new(mut v: Vec<f64>) -> Dist {
        v.sort_by(f64::total_cmp);
        Dist { sorted: v }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (`pct` in 0..=100); 0 for an empty set.
    pub fn pct(&self, pct: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((pct / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Median (nearest rank).
    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond
    /// it, as `(percentile, value)`; `None` below 40 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len() as f64;
        TAIL_PCTS
            .iter()
            .find(|&&p| n * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9)
            .map(|&p| (p, self.pct(p)))
    }

    /// `{"n","p50","tail_pct","tail","unit"}` — a timing as the benchmark
    /// reports it: median, highest well-supported percentile, sample count.
    pub fn summary(&self, unit: &str) -> Json {
        let mut m = vec![
            ("n".to_string(), Json::Int(self.n() as i128)),
            ("p50".to_string(), Json::Num(self.median())),
        ];
        if let Some((p, v)) = self.tail() {
            m.push(("tail_pct".to_string(), Json::Num(p)));
            m.push(("tail".to_string(), Json::Num(v)));
        }
        m.push(("unit".to_string(), Json::Str(unit.to_string())));
        Json::Obj(m)
    }
}

/// Median of a small set of run-level values (e.g. repeated set-ups).
pub fn median(v: &[f64]) -> f64 {
    Dist::new(v.to_vec()).median()
}

/// `{"value","unit"}`.
pub fn unit(v: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_string(), Json::Num(v)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}

/// A run-level value with its samples: median as the value.
pub fn json_samples(v: &[f64], u: &str) -> Json {
    Json::Obj(vec![
        ("value".to_string(), Json::Num(median(v))),
        ("unit".to_string(), Json::Str(u.to_string())),
        ("n".to_string(), Json::Int(v.len() as i128)),
        (
            "samples".to_string(),
            Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
        ),
    ])
}

/// A named tail percentile with its sample count; when fewer than ten
/// samples lie beyond `pct`, the highest percentile that has them is
/// reported instead and named in `pct`.
pub fn tail(d: &Dist, pct: f64) -> Json {
    let (p, v) = match d.tail() {
        Some((p, _)) if p >= pct => (pct, d.pct(pct)),
        Some((p, v)) => (p, v),
        None => (50.0, d.median()),
    };
    Json::Obj(vec![
        ("value".to_string(), Json::Num(v)),
        ("unit".to_string(), Json::Str("us".to_string())),
        ("pct".to_string(), Json::Num(p)),
        ("n".to_string(), Json::Int(d.n() as i128)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.tail(), Some((99.0, 990.0)));
        let d = Dist::new((1..=999).map(f64::from).collect());
        assert_eq!(d.tail().map(|t| t.0), Some(95.0));
        assert_eq!(Dist::new(vec![1.0; 30]).tail(), None);
        assert_eq!(d.median(), 500.0);
    }
}
