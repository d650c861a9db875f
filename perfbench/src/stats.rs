//! Order statistics and the metric map the benchmark prints.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Least-squares slope of `y` over `x`; 0 with fewer than two points.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// One `metric <name> = <value> <unit>` line per entry.
    pub fn print_lines(&self, workload: &str) {
        for (name, value, unit) in &self.entries {
            println!("metric {workload} {name} = {value} {unit}");
        }
    }

    /// The entries named in `names` as a JSON object body, in that order.
    /// A name that was never set is an error: every listed metric must be
    /// measured.
    pub fn json_subset(&self, names: &[&str]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for name in names {
            let (_, value, unit) = self
                .entries
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A finite number with all its digits (Rust's shortest round-trip form).
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "0".to_string();
    }
    let text = format!("{value:?}");
    text.strip_suffix(".0").map_or(text.clone(), str::to_string)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..5)
            .map(|i| (f64::from(i), 3.0 * f64::from(i) + 1.0))
            .collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_numbers_keep_digits() {
        assert_eq!(json_number(2.0), "2");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
