//! Order statistics and the compact JSON line.

use crate::adapters::Json;

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1): p99 therefore needs 1000 samples, p50 needs 20.
pub const SAMPLES_BEYOND: usize = 10;

/// What a `--smoke` run asks instead: its repetitions are twenty times
/// smaller and its numbers are not for reading.
pub const SAMPLES_BEYOND_SMOKE: usize = 1;

/// The `q`-quantile (0 < q < 1) of `sorted`, or `None` when fewer than
/// `min_beyond` samples lie beyond it on the far side.
pub fn percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let n = sorted.len();
    let beyond = (n as f64 * (1.0 - q).min(q)).floor() as usize;
    if beyond < min_beyond {
        return None;
    }
    let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    Some(sorted[idx])
}

/// Sorts latencies in place and returns `(p50, p99)` under the
/// samples-beyond rule.
pub fn p50_p99(samples: &mut [f64], min_beyond: usize) -> (Option<f64>, Option<f64>) {
    samples.sort_by(f64::total_cmp);
    (
        percentile(samples, 0.50, min_beyond),
        percentile(samples, 0.99, min_beyond),
    )
}

/// Median of the per-repetition values of one statistic; `None` when no
/// repetition produced it.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The value of the fastest repetition: the largest of a rate, the
/// smallest of a time. Repetitions replay identical operations on
/// identical state (the simulator is deterministic, `msgs_per_op` is
/// bit-identical), so what differs between them is what the shared host
/// did meanwhile, and that only ever slows a repetition down. The fast end
/// is therefore the estimate of the program's own cost that moves least
/// from run to run; the median moves with the share of a run that a busy
/// neighbour covered. `None` when no repetition produced the statistic
/// or one lacks it.
pub fn fastest(per_rep: &[Option<f64>], higher_is_faster: bool) -> Option<f64> {
    let all: Option<Vec<f64>> = per_rep.iter().copied().collect();
    let pick = if higher_is_faster { f64::max } else { f64::min };
    all?.into_iter().reduce(pick)
}

/// Median across repetitions of a statistic that a repetition may lack
/// (a percentile without enough samples). Reported only when every
/// repetition has it, so a value never rests on a biased subset.
pub fn median_of_reps(per_rep: &[Option<f64>]) -> Option<f64> {
    let all: Option<Vec<f64>> = per_rep.iter().copied().collect();
    median(&all?)
}

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, then at most 64 of `[A-Za-z0-9_.-]`. The catalogue
/// is fixed at compile time, so its test is the only caller.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Serializes `v` on one line. Numbers keep every digit `f64` needs to
/// round-trip; non-finite numbers become `null`.
pub fn to_line(v: &Json) -> String {
    let mut out = String::new();
    write_line(v, &mut out);
    out
}

fn write_line(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_line(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_line(&Json::Str(k.clone()), out);
                out.push_str(": ");
                write_line(val, out);
            }
            out.push('}');
        }
    }
}

pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let rule = SAMPLES_BEYOND;
        assert_eq!(
            percentile(&v, 0.99, rule),
            None,
            "999 samples leave 9 beyond p99"
        );
        assert_eq!(percentile(&v, 0.99, SAMPLES_BEYOND_SMOKE), Some(990.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99, rule), Some(990.0));
        assert_eq!(percentile(&v, 0.50, rule), Some(500.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.50, rule),
            None,
            "19 samples leave 9 beyond p50"
        );
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50, rule), Some(10.0));
    }

    #[test]
    fn p50_p99_sorts_first() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(p50_p99(&mut v, SAMPLES_BEYOND), (Some(500.0), Some(990.0)));
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(p50_p99(&mut few, SAMPLES_BEYOND), (None, None));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(
            median_of_reps(&[Some(2.0), Some(9.0), Some(4.0)]),
            Some(4.0)
        );
        // One repetition without the percentile withholds the metric.
        assert_eq!(median_of_reps(&[Some(2.0), None, Some(4.0)]), None);
        assert_eq!(median_of_reps(&[]), None);
    }

    #[test]
    fn fastest_repetition() {
        let reps = [Some(4.0), Some(9.0), Some(2.0)];
        assert_eq!(fastest(&reps, true), Some(9.0));
        assert_eq!(fastest(&reps, false), Some(2.0));
        // As with the median, one repetition without it withholds it.
        assert_eq!(fastest(&[Some(2.0), None], false), None);
        assert_eq!(fastest(&[], true), None);
    }

    #[test]
    fn metric_name_charset() {
        for good in [
            "ops_per_s",
            "core.msgs_Insert_per_kop",
            "p99",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "µs",
            "a/b",
            "a%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn line_round_trips_through_the_product_parser() {
        let v = obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", num(45000.0)),
            ("failed", num(0.0)),
            (
                "metrics",
                obj(vec![(
                    "lat_p50_us",
                    obj(vec![
                        ("value", num(1.203_456_789_012_3)),
                        ("unit", text("us")),
                    ]),
                )]),
            ),
            ("note", text("quote \" backslash \\ tab \t")),
            ("list", Json::Arr(vec![num(0.1), Json::Null, num(-2.5e-9)])),
        ]);
        let line = to_line(&v);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).expect("parses"), v);
        // Whole numbers print without a fraction, as the contract's
        // `attempted` and `failed` must.
        assert!(line.contains("\"attempted\": 45000,"));
        assert_eq!(to_line(&num(f64::NAN)), "null");
    }
}
