//! Prometheus-style text exposition: builder and parser.
//!
//! The builder emits the classic text format — `# TYPE` comments, then
//! `name{label="value"} number` sample lines — for counters, gauges, and
//! histograms (cumulative `_bucket{le="…"}` series plus `_sum`/`_count`).
//! Histogram bounds are inclusive upper bounds in microseconds, taken from
//! [`HistogramSnapshot::buckets`]; empty buckets are elided (cumulative
//! counts stay correct).
//!
//! The parser ([`parse_exposition`]) is the scraper's half: it turns the
//! text back into [`Sample`]s, and [`histogram_quantile`] re-estimates
//! quantiles from scraped `_bucket` series — what `tldag status` uses to
//! show phase latencies without shipping raw histograms around.

use crate::hist::HistogramSnapshot;
use std::fmt::Write as _;

/// A builder for the Prometheus-style text exposition format.
#[derive(Debug, Default)]
pub struct Expo {
    out: String,
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

impl Expo {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = writeln!(
            self.out,
            "{name}{} {}",
            fmt_labels(labels),
            fmt_value(value)
        );
    }

    /// Emits one unlabeled counter family.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value as f64);
    }

    /// Emits one counter family with several labeled series.
    pub fn counter_series(&mut self, name: &str, help: &str, series: &[(&[(&str, &str)], u64)]) {
        self.header(name, help, "counter");
        for (labels, value) in series {
            self.sample(name, labels, *value as f64);
        }
    }

    /// Emits one unlabeled gauge family.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// Emits one histogram family: per series, cumulative
    /// `name_bucket{…,le="…"}` lines (non-empty buckets plus `+Inf`), then
    /// `name_sum` and `name_count`.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        series: &[(&[(&str, &str)], &HistogramSnapshot)],
    ) {
        self.header(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        let sum = format!("{name}_sum");
        let count = format!("{name}_count");
        for (labels, snap) in series {
            let mut cumulative = 0u64;
            for (upper, n) in snap.buckets() {
                cumulative += n;
                if upper == u64::MAX {
                    // Covered by the +Inf line below.
                    continue;
                }
                let le = upper.to_string();
                let mut with_le: Vec<(&str, &str)> = labels.to_vec();
                with_le.push(("le", le.as_str()));
                self.sample(&bucket, &with_le, cumulative as f64);
            }
            let mut inf: Vec<(&str, &str)> = labels.to_vec();
            inf.push(("le", "+Inf"));
            self.sample(&bucket, &inf, snap.count as f64);
            self.sample(&sum, labels, snap.sum_micros as f64);
            self.sample(&count, labels, snap.count as f64);
        }
    }

    /// The assembled exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (for histograms, includes the `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether every `(key, value)` pair in `filter` is present.
    pub fn has_labels(&self, filter: &[(&str, &str)]) -> bool {
        filter.iter().all(|(k, v)| self.label(k) == Some(*v))
    }
}

fn parse_label_block(block: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {line_no}: unquoted label value"))?;
        // Scan for the closing quote, honouring backslash escapes.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, esc)) = chars.next() {
                        value.push(match esc {
                            'n' => '\n',
                            other => other,
                        });
                    }
                }
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start_matches(',');
    }
    Ok(labels)
}

/// Parses Prometheus-style exposition text into samples, skipping comments
/// and blank lines.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.find(char::is_whitespace) {
            // A label block may contain spaces inside quoted values; split
            // at the whitespace after the closing brace instead when the
            // name carries labels.
            Some(_) if line.contains('{') => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated label block"))?;
                (&line[..=close], line[close + 1..].trim())
            }
            Some(pos) => (&line[..pos], line[pos..].trim()),
            None => return Err(format!("line {line_no}: sample without a value")),
        };
        let (name, labels) = match name_part.find('{') {
            Some(open) => {
                let close = name_part
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated label block"))?;
                (
                    name_part[..open].to_string(),
                    parse_label_block(&name_part[open + 1..close], line_no)?,
                )
            }
            None => (name_part.to_string(), Vec::new()),
        };
        if name.is_empty() {
            return Err(format!("line {line_no}: empty metric name"));
        }
        let value = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {line_no}: bad value {v:?}"))?,
        };
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Finds the first sample named `name` whose labels include all of
/// `labels`, returning its value.
pub fn sample_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.has_labels(labels))
        .map(|s| s.value)
}

/// Estimates the `q`-quantile of a scraped histogram from its cumulative
/// `<name>_bucket` series (filtered by `labels`), in the unit of the `le`
/// bounds. Returns `None` when the series is absent or empty.
pub fn histogram_quantile(
    samples: &[Sample],
    name: &str,
    labels: &[(&str, &str)],
    q: f64,
) -> Option<f64> {
    let bucket_name = format!("{name}_bucket");
    let mut buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == bucket_name && s.has_labels(labels))
        .filter_map(|s| {
            let le = s.label("le")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>().ok()?
            };
            Some((bound, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total = buckets.last().map(|&(_, c)| c)?;
    if total <= 0.0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total).ceil().max(1.0);
    let mut best_finite = 0.0f64;
    for &(bound, cumulative) in &buckets {
        if bound.is_finite() {
            best_finite = bound;
        }
        if cumulative >= rank {
            return Some(if bound.is_finite() {
                bound
            } else {
                best_finite
            });
        }
    }
    Some(best_finite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    #[test]
    fn builder_output_parses_back() {
        let h = LatencyHistogram::new();
        for v in [3u64, 9, 200] {
            h.record_micros(v);
        }
        let snap = h.snapshot();
        let mut expo = Expo::new();
        expo.counter("tldag_test_total", "a counter", 42);
        expo.gauge("tldag_test_gauge", "a gauge", 1.5);
        expo.counter_series(
            "tldag_net",
            "labeled counters",
            &[(&[("counter", "datagrams_sent")], 7)],
        );
        expo.histogram(
            "tldag_test_micros",
            "a histogram",
            &[(&[("phase", "verify")], &snap)],
        );
        let text = expo.finish();
        let samples = parse_exposition(&text).expect("parses");
        assert_eq!(sample_value(&samples, "tldag_test_total", &[]), Some(42.0));
        assert_eq!(sample_value(&samples, "tldag_test_gauge", &[]), Some(1.5));
        assert_eq!(
            sample_value(&samples, "tldag_net", &[("counter", "datagrams_sent")]),
            Some(7.0)
        );
        assert_eq!(
            sample_value(&samples, "tldag_test_micros_count", &[("phase", "verify")]),
            Some(3.0)
        );
        assert_eq!(
            sample_value(&samples, "tldag_test_micros_sum", &[("phase", "verify")]),
            Some(212.0)
        );
        // The scraped-quantile estimate equals the snapshot's estimate.
        let q = histogram_quantile(&samples, "tldag_test_micros", &[("phase", "verify")], 0.5)
            .expect("median");
        assert_eq!(q as u64, snap.quantile_micros(0.5));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_exposition("no_value_here").is_err());
        assert!(parse_exposition("name{unterminated 3").is_err());
        assert!(parse_exposition("name not_a_number").is_err());
        assert!(parse_exposition("# just a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn quantile_of_missing_series_is_none() {
        let samples = parse_exposition("other_bucket{le=\"+Inf\"} 0").unwrap();
        assert_eq!(histogram_quantile(&samples, "missing", &[], 0.5), None);
        assert_eq!(histogram_quantile(&samples, "other", &[], 0.5), None);
    }
}
