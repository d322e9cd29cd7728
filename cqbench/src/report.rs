//! `BENCHMARK.json` as the benchmark reads it, the lines a run prints,
//! and `compare`.

use crate::run::Outcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at)?;
        skip_space(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing input at byte {at}"));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

fn skip_space(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_space(b, at);
    let fail = |at: usize| Err(format!("unexpected input at byte {at}"));
    match b.get(*at) {
        Some(b'{') => {
            *at += 1;
            let mut fields = Vec::new();
            loop {
                skip_space(b, at);
                if b.get(*at) == Some(&b'}') {
                    *at += 1;
                    return Ok(Json::Obj(fields));
                }
                if !fields.is_empty() {
                    if b.get(*at) != Some(&b',') {
                        return fail(*at);
                    }
                    *at += 1;
                }
                let Json::Str(key) = parse_value(b, at)? else {
                    return fail(*at);
                };
                skip_space(b, at);
                if b.get(*at) != Some(&b':') {
                    return fail(*at);
                }
                *at += 1;
                fields.push((key, parse_value(b, at)?));
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            loop {
                skip_space(b, at);
                if b.get(*at) == Some(&b']') {
                    *at += 1;
                    return Ok(Json::Arr(items));
                }
                if !items.is_empty() {
                    if b.get(*at) != Some(&b',') {
                        return fail(*at);
                    }
                    *at += 1;
                }
                items.push(parse_value(b, at)?);
            }
        }
        Some(b'"') => {
            *at += 1;
            let mut s = Vec::new();
            loop {
                match b.get(*at) {
                    Some(b'"') => break,
                    Some(b'\\') => {
                        // The files this reads escape nothing but
                        // quotes and backslashes.
                        s.push(*b.get(*at + 1).ok_or("unterminated string")?);
                        *at += 2;
                    }
                    Some(&c) => {
                        s.push(c);
                        *at += 1;
                    }
                    None => return Err("unterminated string".into()),
                }
            }
            *at += 1;
            String::from_utf8(s)
                .map(Json::Str)
                .map_err(|e| e.to_string())
        }
        Some(_) => {
            let start = *at;
            while *at < b.len() && !b" \t\r\n,]}".contains(&b[*at]) {
                *at += 1;
            }
            match std::str::from_utf8(&b[start..*at]).unwrap_or("") {
                "null" => Ok(Json::Null),
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                word => word.parse().map(Json::Num).or_else(|_| fail(start)),
            }
        }
        None => fail(*at),
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself needs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The `BENCHMARK.json` this binary was built beside.
    pub fn built_in() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let json = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = json.get(key).ok_or(format!("no {key:?}"))?;
            list.items()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::str).ok_or(format!("no {f:?}"));
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::num),
                    })
                })
                .collect()
        };
        let workloads = json.get("workloads").ok_or("no \"workloads\"")?;
        Ok(Spec {
            workloads: workloads
                .items()
                .iter()
                .filter_map(|w| Some(w.get("name")?.str()?.to_string()))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

fn metrics_json(specs: &[MetricSpec], values: &BTreeMap<String, f64>) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, spec) in specs.iter().enumerate() {
        let value = values
            .get(&spec.name)
            .filter(|v| v.is_finite())
            .ok_or(format!("metric {:?} was not measured", spec.name))?;
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{comma}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            spec.name, spec.unit
        );
    }
    out.push('}');
    Ok(out)
}

/// The human table and the two JSON lines of one outcome: a record line
/// (`workload`, `seed`, `trace`, the `host.*` readings and the result)
/// for `compare` to read back, then the result object on its own — with the end-to-end
/// metrics, or the per-layer ones when the run was traced.
pub fn render(outcome: &Outcome, traced: bool, spec: &Spec) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}): {} operations, {} failed ==",
        outcome.workload, outcome.seed, outcome.attempted, outcome.failed
    );
    for why in &outcome.problems {
        let _ = writeln!(out, "   WRONG: {why}");
    }
    for (specs, values) in [
        (&spec.end_to_end, &outcome.end_to_end),
        (&spec.per_layer, &outcome.per_layer),
    ] {
        for m in specs.iter().filter(|m| values.contains_key(&m.name)) {
            let _ = writeln!(
                out,
                "   {:<34} {:>16.4} {}",
                m.name, values[&m.name], m.unit
            );
        }
    }
    let metrics = if traced {
        metrics_json(&spec.per_layer, &outcome.per_layer)?
    } else {
        metrics_json(&spec.end_to_end, &outcome.end_to_end)?
    };
    let result = format!(
        "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    let host: Vec<String> = outcome
        .per_layer
        .iter()
        .filter(|(name, _)| name.starts_with("host."))
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    let _ = writeln!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"host\":{{{}}},{result}}}",
        outcome.workload,
        outcome.seed,
        u8::from(traced),
        host.join(",")
    );
    let _ = writeln!(out, "{{{result}}}");
    Ok(out)
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// as the driver computes spreads: `(q1, median, q3)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| -> f64 {
        if n < 2 {
            return v.first().copied().unwrap_or(0.0);
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// Either side's runs spread wider than the bound, and the sides
    /// overlap: the runs cannot tell.
    Unresolved,
}

/// Compares the runs of a metric on side `b` against side `a` under
/// `bound`. A metric with `bound` 0 may not get worse at all.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (quartiles(a).1 * sign, quartiles(b).1 * sign);
    if bound == 0.0 {
        return match mb.total_cmp(&ma) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Within,
        };
    }
    // Oriented so that larger is worse.
    let (a, b): (Vec<f64>, Vec<f64>) = (
        a.iter().map(|x| x * sign).collect(),
        b.iter().map(|x| x * sign).collect(),
    );
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if spread(&a) > bound || spread(&b) > bound {
        return if max(&b) < min(&a) {
            Verdict::Better
        } else if min(&b) > max(&a) && mb - ma > bound * ma.abs() {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let margin = bound * ma.abs();
    if mb - ma > margin {
        Verdict::Worse
    } else if ma - mb > margin && ma != mb {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Values of every end-to-end metric (and `failed_share`) per workload,
/// read from the record lines of a file of run outputs.
fn read_runs(text: &str) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("{\"workload\"")) {
        let Ok(record) = Json::parse(line) else {
            continue;
        };
        let (Some(workload), Some(Json::Obj(metrics))) = (
            record.get("workload").and_then(Json::str),
            record.get("metrics"),
        ) else {
            continue;
        };
        if record.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let of_workload = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::num) {
                of_workload.entry(name.clone()).or_default().push(value);
            }
        }
        let count = |key: &str| record.get(key).and_then(Json::num).unwrap_or(0.0);
        let share = count("failed") / count("attempted").max(1.0);
        of_workload
            .entry("failed_share".to_string())
            .or_default()
            .push(share);
    }
    runs
}

/// One row per workload × end-to-end metric, plus `failed_share`, which
/// may not rise at all. Returns the table and whether anything is worse.
pub fn compare(a: &str, b: &str, spec: &Spec) -> (String, bool) {
    let (runs_a, runs_b) = (read_runs(a), read_runs(b));
    let mut out = format!(
        "{:<18} {:<18} {:>4} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict\n",
        "workload", "metric", "runs", "a median", "a iqr", "b median", "b iqr", "change", "bound"
    );
    let mut any_worse = false;
    let failed_share = MetricSpec {
        name: "failed_share".to_string(),
        unit: "share".to_string(),
        higher_is_better: false,
        bound: Some(0.0),
    };
    for workload in &spec.workloads {
        for m in spec.end_to_end.iter().chain([&failed_share]) {
            let side = |runs: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
                runs.get(workload)
                    .and_then(|w| w.get(&m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (side(&runs_a), side(&runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&va, &vb, m.higher_is_better, bound);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let _ = writeln!(
                out,
                "{:<18} {:<18} {:>4} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                workload,
                m.name,
                format!("{}/{}", va.len(), vb.len()),
                ma,
                spread(&va) * 100.0,
                mb,
                spread(&vb) * 100.0,
                change * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    (out, any_worse)
}
