//! Bridges a daemon's [`Obs`] — metrics, trace store, and flight
//! recorder — into wire payloads ([`MetricsReport`], [`TraceReport`],
//! [`FlightEventEntry`]) and the `--obs-snapshot` / `--flight-dump`
//! documents.

use crate::wire::{
    ErrorCode, ExemplarEntry, FlightEventEntry, HistogramStats, MetricsReport, SpanEntry,
    TraceReport,
};
use rmsa_bench::json::Json;
use rmsa_obs::{Obs, TraceSort, TraceStatus, TraceView};

/// Snapshot the daemon's metrics as a wire payload.
pub(crate) fn metrics_report(obs: &Obs) -> MetricsReport {
    let snap = obs.metrics();
    let mut exemplars = snap.exemplars;
    MetricsReport {
        counters: snap
            .counters
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        gauges: snap
            .gauges
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        histograms: snap
            .histograms
            .into_iter()
            .map(|(name, h)| HistogramStats {
                name: name.to_string(),
                count: h.count(),
                mean_secs: h.mean_secs(),
                p50_secs: h.quantile_secs(0.50),
                p90_secs: h.quantile_secs(0.90),
                p99_secs: h.quantile_secs(0.99),
                max_secs: h.max_secs(),
                exemplars: exemplars
                    .iter_mut()
                    .find(|(n, _)| *n == name)
                    .map(|(_, es)| std::mem::take(es))
                    .unwrap_or_default()
                    .into_iter()
                    .map(|e| ExemplarEntry {
                        trace: e.trace,
                        value_secs: e.value_secs,
                        at_us: e.at_us,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// The wire spelling of a terminal trace status: `"unknown"` (still in
/// flight or aged out before finishing), `"ok"`, or the [`ErrorCode`]
/// wire name recovered from the stored code point.
fn status_name(status: TraceStatus) -> String {
    match status {
        TraceStatus::Unknown => "unknown".to_string(),
        TraceStatus::Ok => "ok".to_string(),
        TraceStatus::Error(point) => match ErrorCode::from_code_point(point) {
            Some(code) => code.name().to_string(),
            None => format!("error-{point}"),
        },
    }
}

fn view_to_report(view: TraceView) -> TraceReport {
    let total_us = view.total_us();
    TraceReport {
        trace: view.trace,
        total_us,
        status: status_name(view.status),
        pinned: view.pinned,
        spans: view
            .spans
            .into_iter()
            .map(|s| SpanEntry {
                id: s.id,
                parent: s.parent,
                name: s.name.to_string(),
                start_us: s.start_us,
                dur_us: s.dur_us,
                fields: s
                    .fields()
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect(),
            })
            .collect(),
    }
}

/// Snapshot up to `limit` traces as wire payloads.
pub(crate) fn trace_reports(obs: &Obs, limit: usize, slowest: bool) -> Vec<TraceReport> {
    let sort = if slowest {
        TraceSort::Slow
    } else {
        TraceSort::Recent
    };
    obs.traces(limit, sort)
        .into_iter()
        .map(view_to_report)
        .collect()
}

/// Look one trace up by id (tail-sampled pins are searched first);
/// empty when it aged out unpinned.
pub(crate) fn trace_report_by_id(obs: &Obs, trace: u64) -> Vec<TraceReport> {
    obs.trace_by_id(trace)
        .map(view_to_report)
        .into_iter()
        .collect()
}

/// Snapshot the flight recorder as wire payloads, in global sequence
/// order.
pub(crate) fn flight_events(obs: &Obs) -> Vec<FlightEventEntry> {
    obs.flight()
        .into_iter()
        .map(|e| FlightEventEntry {
            kind: e.kind.to_string(),
            seq: e.seq,
            at_us: e.at_us,
            a: e.a,
            b: e.b,
        })
        .collect()
}

/// The `--flight-dump` document: the recorder history plus the trace id
/// / error code that triggered the dump (both 0 on demand/shutdown).
pub(crate) fn flight_dump_json(obs: &Obs, reason: &str, trace: u64, detail: u64) -> Json {
    let events = Json::Arr(
        flight_events(obs)
            .iter()
            .map(|e| {
                let mut doc = Json::obj();
                doc.set("kind", Json::Str(e.kind.clone()))
                    .set("seq", Json::Int(e.seq as i64))
                    .set("at_us", Json::Int(e.at_us as i64))
                    .set("a", Json::Int(e.a as i64))
                    .set("b", Json::Int(e.b as i64));
                doc
            })
            .collect(),
    );
    let mut doc = Json::obj();
    doc.set("reason", Json::Str(reason.to_string()))
        .set("trace", Json::Int(trace as i64))
        .set("detail", Json::Int(detail as i64))
        .set("events", events);
    doc
}

/// The `--obs-snapshot` document: every metric plus the most recent
/// traces, rendered with the stable-order [`Json`] module.
pub(crate) fn dump_json(obs: &Obs) -> Json {
    let report = metrics_report(obs);
    let mut counters = Json::obj();
    for (name, v) in &report.counters {
        counters.set(name, Json::Int(*v as i64));
    }
    let mut gauges = Json::obj();
    for (name, v) in &report.gauges {
        gauges.set(name, Json::Int(*v));
    }
    let histograms = Json::Arr(
        report
            .histograms
            .iter()
            .map(|h| {
                let mut doc = Json::obj();
                doc.set("name", Json::Str(h.name.clone()))
                    .set("count", Json::Int(h.count as i64))
                    .set("mean_secs", Json::Num(h.mean_secs))
                    .set("p50_secs", Json::Num(h.p50_secs))
                    .set("p90_secs", Json::Num(h.p90_secs))
                    .set("p99_secs", Json::Num(h.p99_secs))
                    .set("max_secs", Json::Num(h.max_secs));
                if !h.exemplars.is_empty() {
                    doc.set(
                        "exemplars",
                        Json::Arr(
                            h.exemplars
                                .iter()
                                .map(|e| {
                                    let mut x = Json::obj();
                                    x.set("trace", Json::Int(e.trace as i64))
                                        .set("value_secs", Json::Num(e.value_secs))
                                        .set("at_us", Json::Int(e.at_us as i64));
                                    x
                                })
                                .collect(),
                        ),
                    );
                }
                doc
            })
            .collect(),
    );
    let traces = Json::Arr(
        trace_reports(obs, 16, false)
            .iter()
            .map(|t| {
                let mut doc = Json::obj();
                doc.set("trace", Json::Int(t.trace as i64))
                    .set("total_us", Json::Int(t.total_us as i64))
                    .set("status", Json::Str(t.status.clone()))
                    .set("pinned", Json::Bool(t.pinned))
                    .set(
                        "spans",
                        Json::Arr(
                            t.spans
                                .iter()
                                .map(|s| {
                                    let mut span = Json::obj();
                                    span.set("id", Json::Int(s.id as i64))
                                        .set("parent", Json::Int(s.parent as i64))
                                        .set("name", Json::Str(s.name.clone()))
                                        .set("start_us", Json::Int(s.start_us as i64))
                                        .set("dur_us", Json::Int(s.dur_us as i64));
                                    span
                                })
                                .collect(),
                        ),
                    );
                doc
            })
            .collect(),
    );
    let mut doc = Json::obj();
    doc.set("counters", counters)
        .set("gauges", gauges)
        .set("histograms", histograms)
        .set("traces", traces);
    doc
}
