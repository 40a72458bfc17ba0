//! Deterministic exporters: JSONL metrics dumps and Chrome trace-event
//! JSON.
//!
//! This module is the one place that spells JSON (the build environment
//! has no serde). Two `Display` adaptors cover every value: [`Str`] (a
//! quoted, escaped string) and [`Num`] (a float, or `null`). Every
//! record is one `write!` of a format string straight into the caller's
//! one output `String`, driven only by simulated time and iterated in
//! fixed orders, so two identical runs produce **byte-identical** output.
//!
//! * [`metrics_jsonl`] — one JSON object per line: a run header, one
//!   line per job, per named counter, per latency histogram (with
//!   p50/p95/p99), and per resource sample.
//! * [`chrome_trace_json`] — the recorded [`Trace`] plus sampler series
//!   as a Chrome trace-event file (`chrome://tracing` / Perfetto): `"X"`
//!   complete events for on-CPU spans (pid = SPU, tid = CPU), `"i"`
//!   instants for faults, I/O issues and policy runs, and `"C"` counter
//!   tracks from the per-SPU series.
//! * [`interference_matrix_json`] — the interference matrix alone, one
//!   JSON document.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use event_sim::{LogHistogram, SimTime};
use spu_core::{SpuId, SpuSet};

use crate::locks::LockId;
use crate::metrics::RunMetrics;
use crate::obsv::interference::{InterferenceReport, LockClass, SloReport};
use crate::obsv::{CounterRegistry, ObsvReport, RequestReport, SampleSeries};
use crate::process::Pid;
use crate::trace::{Trace, TraceEvent};

/// A JSON string literal: the string quoted, with `"`, `\` and control
/// characters escaped.
///
/// ```
/// use smp_kernel::export::Str;
/// assert_eq!(Str("say \"hi\"\n").to_string(), r#""say \"hi\"\n""#);
/// ```
pub struct Str<'a>(pub &'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        f.write_char('"')?;
        // Every byte that needs escaping is ASCII, so slicing around it
        // never splits a UTF-8 sequence.
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | ..=0x1f) {
                continue;
            }
            f.write_str(&s[plain..i])?;
            match b {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                _ => write!(f, "\\u{b:04x}")?,
            }
            plain = i + 1;
        }
        f.write_str(&s[plain..])?;
        f.write_char('"')
    }
}

/// A JSON number: Rust's shortest round-trip decimal form of the float,
/// or `null` when it is not finite (JSON has no NaN or infinity).
///
/// ```
/// use smp_kernel::export::Num;
/// assert_eq!(Num(0.005).to_string(), "0.005");
/// assert_eq!(Num(2.0).to_string(), "2");
/// assert_eq!(Num(f64::NAN).to_string(), "null");
/// ```
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// Appends the counter registry as JSONL, one counter per line, in name
/// order.
pub fn write_counters(out: &mut String, counters: &CounterRegistry) {
    for (name, value) in counters.iter() {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}",
            Str(name)
        );
    }
}

/// Appends the per-SPU resource series as JSONL, one sample per line.
pub fn write_series(out: &mut String, series: &[SampleSeries]) {
    for s in series {
        for p in &s.samples {
            let _ = writeln!(
                out,
                "{{\"type\":\"sample\",\"spu\":{},\"spu_index\":{},\"resource\":\"{}\",\
                 \"t_secs\":{},\"entitled\":{},\"allowed\":{},\"used\":{}}}",
                Str(&s.spu_name),
                s.spu.index(),
                s.resource.as_str(),
                Num(p.at.as_secs_f64()),
                Num(p.entitled),
                Num(p.allowed),
                Num(p.used),
            );
        }
    }
}

/// Appends one latency histogram line: count, mean, p50/p95/p99 and max
/// in seconds (`null` percentiles when it is empty).
fn write_histogram(out: &mut String, name: &str, h: &LogHistogram) {
    let pct = |p| Num(h.percentile(p).unwrap_or(f64::NAN));
    let _ = writeln!(
        out,
        "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"mean\":{},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
        Str(name),
        h.count(),
        Num(h.mean()),
        pct(50.0),
        pct(95.0),
        pct(99.0),
        Num(h.max()),
    );
}

/// The non-zero lock-hold entries as `(class, SPU index, nanos)`,
/// class-major.
fn lock_holds(r: &InterferenceReport) -> impl Iterator<Item = (LockClass, usize, u64)> + '_ {
    let n = r.matrix.spu_count();
    LockClass::ALL
        .into_iter()
        .flat_map(move |class| (0..n).map(move |i| (class, i)))
        .filter_map(move |(class, i)| {
            let nanos = r.lock_hold_nanos.get(class.index() * n + i).copied();
            nanos.filter(|&ns| ns > 0).map(|ns| (class, i, ns))
        })
}

/// Appends the cross-SPU interference matrix as JSONL: one
/// `interference` line per non-zero cell (channel-major) and one
/// `lock_hold` line per lock class × SPU with non-zero hold time.
/// Nothing when attribution was disabled.
fn write_interference(out: &mut String, r: &InterferenceReport) {
    let name = |i: usize| Str(r.spu_names.get(i).map_or("?", String::as_str));
    for (ch, w, h, amount, events) in r.matrix.nonzero() {
        let _ = writeln!(
            out,
            "{{\"type\":\"interference\",\"channel\":\"{}\",\"unit\":\"{}\",\
             \"waiter\":{},\"waiter_index\":{w},\"holder\":{},\"holder_index\":{h},\
             \"amount\":{amount},\"events\":{events}}}",
            ch.as_str(),
            ch.unit(),
            name(w),
            name(h),
        );
    }
    for (class, i, nanos) in lock_holds(r) {
        let _ = writeln!(
            out,
            "{{\"type\":\"lock_hold\",\"class\":\"{}\",\"spu\":{},\
             \"spu_index\":{i},\"nanos\":{nanos}}}",
            class.as_str(),
            name(i),
        );
    }
}

/// Appends the per-SPU SLO table as JSONL: one `slo` line per SPU that
/// ran tracked jobs, each followed by its `slo_sample` lines, one per
/// sampling instant. Nothing when the tracker was disabled.
fn write_slo(out: &mut String, r: &SloReport) {
    for row in &r.per_spu {
        let _ = writeln!(
            out,
            "{{\"type\":\"slo\",\"spu\":{},\"spu_index\":{},\"target_secs\":{},\
             \"jobs\":{},\"met\":{},\"violated\":{},\"p50_secs\":{},\"p99_secs\":{},\
             \"p999_secs\":{},\"goodput_per_sec\":{},\"violation_frac\":{}}}",
            Str(&row.name),
            row.spu.index(),
            Num(r.target.as_secs_f64()),
            row.jobs,
            row.met,
            row.violated,
            Num(row.p50),
            Num(row.p99),
            Num(row.p999),
            Num(row.goodput),
            Num(row.violation_frac),
        );
        for s in &row.samples {
            let _ = writeln!(
                out,
                "{{\"type\":\"slo_sample\",\"spu_index\":{},\"t_secs\":{},\
                 \"completed\":{},\"violated\":{}}}",
                row.spu.index(),
                Num(s.at.as_secs_f64()),
                s.completed,
                s.violated,
            );
        }
    }
}

/// Appends the per-SPU admission/shedding table as JSONL: one
/// `requests` line per SPU that saw request traffic. Nothing when
/// admission control was off or no request arrived.
fn write_requests(out: &mut String, report: &RequestReport) {
    for r in &report.per_spu {
        let _ = writeln!(
            out,
            "{{\"type\":\"requests\",\"spu\":{},\"spu_index\":{},\"arrivals\":{},\
             \"admitted\":{},\"shed\":{},\"expired\":{},\"timeouts\":{},\"retries\":{},\
             \"brownout_skips\":{},\"peak_queue\":{}}}",
            Str(&r.name),
            r.spu.index(),
            r.arrivals,
            r.admitted,
            r.shed,
            r.expired,
            r.timeouts,
            r.retries,
            r.brownout_skips,
            r.peak_queue,
        );
    }
}

/// The separator before item `i` of a JSON array.
fn sep(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// The interference matrix alone as one JSON document — the artifact a
/// CI run uploads from the lock-leakage experiment. Lists SPU names,
/// every non-zero cell, and the non-zero lock-hold entries.
pub fn interference_matrix_json(r: &InterferenceReport) -> String {
    let mut out = String::from("{\"spus\":[");
    for (i, name) in r.spu_names.iter().enumerate() {
        let _ = write!(out, "{}{}", sep(i), Str(name));
    }
    out.push_str("],\"cells\":[");
    for (i, (ch, w, h, amount, events)) in r.matrix.nonzero().into_iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"channel\":\"{}\",\"unit\":\"{}\",\"waiter\":{w},\"holder\":{h},\
             \"amount\":{amount},\"events\":{events}}}",
            sep(i),
            ch.as_str(),
            ch.unit(),
        );
    }
    out.push_str("],\"lock_hold\":[");
    for (i, (class, spu, nanos)) in lock_holds(r).enumerate() {
        let _ = write!(
            out,
            "{}{{\"class\":\"{}\",\"spu\":{spu},\"nanos\":{nanos}}}",
            sep(i),
            class.as_str(),
        );
    }
    out.push_str("]}\n");
    out
}

/// A full run as JSONL: run header, jobs, counters, latency histograms,
/// every resource sample, then the interference, SLO and request lines.
/// Those last three appear only when their trackers were enabled,
/// keeping ordinary output byte-identical.
pub fn metrics_jsonl(m: &RunMetrics) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"run\",\"end_secs\":{},\"completed\":{},\"jobs\":{}}}",
        Num(m.end_time.as_secs_f64()),
        m.completed,
        m.jobs.len()
    );
    for j in &m.jobs {
        // An unfinished job's response is `null`.
        let response = j.response().map_or(f64::NAN, |d| d.as_secs_f64());
        let _ = writeln!(
            out,
            "{{\"type\":\"job\",\"label\":{},\"spu\":{},\"started_secs\":{},\"response_secs\":{}}}",
            Str(&j.label),
            j.spu.index(),
            Num(j.started.as_secs_f64()),
            Num(response)
        );
    }
    let r = &m.obsv;
    write_counters(&mut out, &r.counters);
    for (name, h) in r.latency.named() {
        write_histogram(&mut out, name, h);
    }
    write_series(&mut out, &r.series);
    write_interference(&mut out, &r.interference);
    write_slo(&mut out, &r.slo);
    write_requests(&mut out, &r.requests);
    out
}

/// Renders the trace and sampler series as a Chrome trace-event JSON
/// document (load in `chrome://tracing` or Perfetto).
///
/// Mapping: Chrome `pid` = SPU index (process names from `spus`),
/// `tid` = CPU number. On-CPU spans become `"X"` complete events; faults,
/// I/O issues and memory-policy runs become `"i"` instants; sampler
/// series become `"C"` counter tracks. Lock waits (recorded when
/// attribution is enabled) become `"X"` spans named
/// `lock-wait:<class>` on per-process lanes (`tid` = 1000 + pid) with
/// the granting holder's SPU index in `args`. Timestamps are
/// microseconds of simulated time.
pub fn chrome_trace_json(trace: &Trace, spus: &SpuSet, report: &ObsvReport) -> String {
    let us = |t: SimTime| t.as_nanos() as f64 / 1000.0;
    // Every event ends in ",\n"; the array's close cuts the last comma.
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    // Process-name metadata, one per SPU.
    for id in spus.all_ids() {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}},",
            id.index(),
            Str(&spus.path(id))
        );
    }
    // On-CPU spans, one open slot per CPU: Dispatch opens, Preempt/Block
    // (or the next Dispatch on the same CPU, or end-of-trace) closes.
    let mut open = Vec::new();
    let close =
        |out: &mut String, cpu: usize, span: Option<(SimTime, Pid, SpuId, bool)>, end: SimTime| {
            if let Some((start, pid, spu, loaned)) = span {
                let _ = writeln!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{cpu},\"ts\":{},\"dur\":{},\
                     \"name\":\"pid{}\",\"args\":{{\"loaned\":{loaned}}}}},",
                    spu.index(),
                    Num(us(start)),
                    Num(us(end) - us(start)),
                    pid.0,
                );
            }
        };
    // Lock-wait spans: LockWait opens, LockGrant closes. Rendered on a
    // per-process lane (tid = 1000 + pid) under the waiter's SPU so
    // they never collide with the CPU rows.
    let mut lock_waits = BTreeMap::new();
    let lock_wait = |out: &mut String,
                     pid: Pid,
                     (start, spu, lock): (SimTime, SpuId, LockId),
                     end: SimTime,
                     holder: Option<SpuId>| {
        // A whole index prints as an integer; no holder prints `null`.
        let holder = holder.map_or(f64::NAN, |h| h.index() as f64);
        let _ = writeln!(
            out,
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"name\":\"lock-wait:{}\",\"args\":{{\"pid\":{},\"holder\":{}}}}},",
            spu.index(),
            1000 + pid.0,
            Num(us(start)),
            Num(us(end) - us(start)),
            LockClass::of(lock).as_str(),
            pid.0,
            Num(holder)
        );
    };
    let mut last_at = SimTime::ZERO;
    for ev in trace.iter() {
        last_at = last_at.max(ev.at());
        match *ev {
            TraceEvent::Dispatch {
                at,
                cpu,
                pid,
                spu,
                loaned,
            } => {
                if open.len() <= cpu {
                    open.resize(cpu + 1, None);
                }
                close(&mut out, cpu, open[cpu].take(), at);
                open[cpu] = Some((at, pid, spu, loaned));
            }
            TraceEvent::Preempt { at, cpu, .. } => {
                if let Some(slot) = open.get_mut(cpu) {
                    close(&mut out, cpu, slot.take(), at);
                }
            }
            TraceEvent::Block { at, pid, .. } => {
                let running = |s: &Option<_>| matches!(s, Some((_, p, _, _)) if *p == pid);
                if let Some(cpu) = open.iter().position(running) {
                    close(&mut out, cpu, open[cpu].take(), at);
                }
            }
            TraceEvent::Fault { at, spu, major } => {
                let _ = writeln!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"ts\":{},\"s\":\"p\",\
                     \"name\":\"fault:{}\"}},",
                    spu.index(),
                    Num(us(at)),
                    if major { "major" } else { "minor" }
                );
            }
            TraceEvent::IoIssue {
                at,
                disk,
                stream,
                sectors,
            } => {
                let _ = writeln!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"ts\":{},\"s\":\"p\",\
                     \"name\":\"io:disk{disk}\",\"args\":{{\"sectors\":{sectors}}}}},",
                    stream.index(),
                    Num(us(at)),
                );
            }
            TraceEvent::PolicyRun { at } => {
                let _ = writeln!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":{},\"s\":\"g\",\
                     \"name\":\"mem-policy\"}},",
                    Num(us(at))
                );
            }
            TraceEvent::FaultInjected { at, label } => {
                let _ = writeln!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":{},\"s\":\"g\",\
                     \"name\":\"fault:{label}\"}},",
                    Num(us(at)),
                );
            }
            TraceEvent::LockWait { at, pid, spu, lock } => {
                lock_waits.insert(pid, (at, spu, lock));
            }
            TraceEvent::LockGrant {
                at, pid, holder, ..
            } => {
                if let Some(wait) = lock_waits.remove(&pid) {
                    lock_wait(&mut out, pid, wait, at, Some(holder));
                }
            }
            TraceEvent::Wake { .. } => {}
        }
    }
    for (cpu, span) in open.into_iter().enumerate() {
        close(&mut out, cpu, span, last_at);
    }
    // Waits still open at trace end close there, holder unknown.
    for (pid, wait) in lock_waits {
        lock_wait(&mut out, pid, wait, last_at, None);
    }
    // Counter tracks from the sampler series.
    for s in &report.series {
        for p in &s.samples {
            let _ = writeln!(
                out,
                "{{\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{\"entitled\":{},\"allowed\":{},\"used\":{}}}}},",
                s.spu.index(),
                Num(us(p.at)),
                s.resource.as_str(),
                Num(p.entitled),
                Num(p.allowed),
                Num(p.used)
            );
        }
    }
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obsv::{ResourceKind, ResourceSample};

    /// A minimal JSON syntax checker: returns the rest of the input after
    /// one value, or panics with a location.
    fn skip_value(s: &[u8], mut i: usize) -> usize {
        fn skip_ws(s: &[u8], mut i: usize) -> usize {
            while i < s.len() && (s[i] as char).is_whitespace() {
                i += 1;
            }
            i
        }
        i = skip_ws(s, i);
        assert!(i < s.len(), "truncated JSON");
        match s[i] {
            b'{' => {
                i += 1;
                i = skip_ws(s, i);
                if s[i] == b'}' {
                    return i + 1;
                }
                loop {
                    i = skip_ws(s, i);
                    assert_eq!(s[i], b'"', "object key at {i}");
                    i = skip_value(s, i); // key string
                    i = skip_ws(s, i);
                    assert_eq!(s[i], b':', "colon at {i}");
                    i = skip_value(s, i + 1);
                    i = skip_ws(s, i);
                    match s[i] {
                        b',' => i += 1,
                        b'}' => return i + 1,
                        c => panic!("bad object separator {:?} at {i}", c as char),
                    }
                }
            }
            b'[' => {
                i += 1;
                i = skip_ws(s, i);
                if s[i] == b']' {
                    return i + 1;
                }
                loop {
                    i = skip_value(s, i);
                    i = skip_ws(s, i);
                    match s[i] {
                        b',' => i += 1,
                        b']' => return i + 1,
                        c => panic!("bad array separator {:?} at {i}", c as char),
                    }
                }
            }
            b'"' => {
                i += 1;
                while s[i] != b'"' {
                    if s[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i + 1
            }
            b't' => i + 4,
            b'f' => i + 5,
            b'n' => i + 4,
            _ => {
                while i < s.len() && matches!(s[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                i
            }
        }
    }

    fn assert_valid_json(doc: &str) {
        let bytes = doc.as_bytes();
        let end = skip_value(bytes, 0);
        assert!(
            doc[end..].trim().is_empty(),
            "trailing garbage after JSON value"
        );
    }

    /// What one writer appends to an empty buffer.
    fn render(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    fn sample_series() -> SampleSeries {
        let mut s = SampleSeries::new(SpuId::user(0), "user0", ResourceKind::Memory);
        s.push(ResourceSample {
            at: SimTime::from_millis(100),
            entitled: 10.0,
            allowed: 12.5,
            used: 11.0,
        });
        s
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(Str("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Str("\u{1}é\t").to_string(), "\"\\u0001é\\t\"");
        assert_eq!(Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn histogram_json_is_valid() {
        let mut h = LogHistogram::latency();
        h.add(0.001);
        h.add(0.01);
        let doc = render(|o| write_histogram(o, "response", &h));
        assert_eq!(doc.lines().count(), 1);
        assert_valid_json(&doc);
        assert!(doc.starts_with("{\"type\":\"histogram\",\"name\":\"response\","));
        assert!(doc.contains("\"p95\":"));
    }

    #[test]
    fn empty_histogram_percentiles_are_null() {
        let h = LogHistogram::latency();
        let doc = render(|o| write_histogram(o, "empty", &h));
        assert_valid_json(&doc);
        assert!(doc.contains("\"p50\":null"));
    }

    #[test]
    fn jsonl_lines_are_each_valid() {
        let mut report = ObsvReport::default();
        report.counters.add("locks.acquires", 3);
        report.series.push(sample_series());
        let doc = render(|o| {
            write_counters(o, &report.counters);
            write_series(o, &report.series);
        });
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            assert_valid_json(line);
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_and_closes_spans() {
        let mut tr = Trace::new();
        tr.enable(100);
        let spu = SpuId::user(0);
        tr.push(TraceEvent::Dispatch {
            at: SimTime::from_millis(1),
            cpu: 0,
            pid: Pid(1),
            spu,
            loaned: false,
        });
        tr.push(TraceEvent::Preempt {
            at: SimTime::from_millis(5),
            cpu: 0,
            pid: Pid(1),
        });
        tr.push(TraceEvent::Dispatch {
            at: SimTime::from_millis(6),
            cpu: 1,
            pid: Pid(2),
            spu: SpuId::user(1),
            loaned: true,
        });
        tr.push(TraceEvent::Fault {
            at: SimTime::from_millis(7),
            spu,
            major: true,
        });
        let mut report = ObsvReport::default();
        report.series.push(sample_series());
        let doc = chrome_trace_json(&tr, &SpuSet::equal_users(2), &report);
        assert_valid_json(&doc);
        // Two X spans: the preempted one and the one closed at trace end.
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"dur\":4000")); // 4 ms in µs
        assert!(doc.contains("\"loaned\":true"));
        assert!(doc.contains("fault:major"));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("process_name"));
    }

    #[test]
    fn interference_and_slo_jsonl_are_empty_when_disabled() {
        let report = ObsvReport::default();
        let doc = render(|o| {
            write_interference(o, &report.interference);
            write_slo(o, &report.slo);
            write_requests(o, &report.requests);
        });
        assert_eq!(doc, "");
    }

    #[test]
    fn requests_jsonl_emits_rows() {
        use crate::obsv::SpuRequests;
        let mut report = ObsvReport::default();
        report.requests.per_spu.push(SpuRequests {
            spu: SpuId::user(1),
            name: "user1".into(),
            arrivals: 100,
            admitted: 80,
            shed: 15,
            expired: 5,
            timeouts: 12,
            retries: 9,
            brownout_skips: 3,
            peak_queue: 17,
        });
        let doc = render(|o| write_requests(o, &report.requests));
        assert_eq!(doc.lines().count(), 1);
        for line in doc.lines() {
            assert_valid_json(line);
        }
        assert!(doc.contains("\"type\":\"requests\""));
        assert!(doc.contains("\"spu\":\"user1\""));
        assert!(doc.contains("\"shed\":15"));
        assert!(doc.contains("\"peak_queue\":17"));
    }

    #[test]
    fn interference_jsonl_lines_are_valid_and_named() {
        use crate::obsv::interference::{Channel, InterferenceMatrix};
        let mut report = ObsvReport::default();
        report.interference.spu_names = vec![
            "kernel".into(),
            "shared".into(),
            "user0".into(),
            "user1".into(),
        ];
        report.interference.matrix = InterferenceMatrix::new(4);
        report.interference.matrix.add(
            Channel::LockRoot,
            SpuId::user(0),
            SpuId::user(1),
            1_500_000,
        );
        report.interference.lock_hold_nanos = vec![0, 0, 0, 42, 0, 0, 0, 0];
        let doc = render(|o| write_interference(o, &report.interference));
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            assert_valid_json(line);
        }
        assert!(doc.contains("\"channel\":\"lock.root\""));
        assert!(doc.contains("\"waiter\":\"user0\""));
        assert!(doc.contains("\"holder\":\"user1\""));
        assert!(doc.contains("\"type\":\"lock_hold\""));
        assert!(doc.contains("\"class\":\"root\""));
        assert!(doc.contains("\"nanos\":42"));
    }

    #[test]
    fn slo_jsonl_emits_rows_and_samples() {
        use crate::obsv::interference::{SloSample, SpuSlo};
        use event_sim::SimDuration;
        let mut report = ObsvReport::default();
        report.slo.target = SimDuration::from_millis(5);
        report.slo.per_spu.push(SpuSlo {
            spu: SpuId::user(0),
            name: "user0".into(),
            jobs: 10,
            met: 9,
            violated: 1,
            p50: 0.002,
            p99: 0.006,
            p999: 0.006,
            goodput: 4.5,
            violation_frac: 0.1,
            samples: vec![SloSample {
                at: SimTime::from_millis(100),
                completed: 4,
                violated: 0,
            }],
        });
        let doc = render(|o| write_slo(o, &report.slo));
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            assert_valid_json(line);
        }
        assert!(doc.contains("\"type\":\"slo\""));
        assert!(doc.contains("\"target_secs\":0.005"));
        assert!(doc.contains("\"type\":\"slo_sample\""));
    }

    #[test]
    fn interference_matrix_json_is_one_valid_document() {
        use crate::obsv::interference::{Channel, InterferenceMatrix, InterferenceReport};
        let mut r = InterferenceReport {
            spu_names: vec!["kernel".into(), "shared".into(), "user0".into()],
            matrix: InterferenceMatrix::new(3),
            lock_hold_nanos: vec![0; 6],
        };
        r.matrix
            .add(Channel::MemSteal, SpuId::user(0), SpuId::SHARED, 1);
        let doc = interference_matrix_json(&r);
        assert_valid_json(&doc);
        assert!(doc.contains("\"unit\":\"pages\""));
        // Empty report still renders a valid document.
        assert_valid_json(&interference_matrix_json(&InterferenceReport::default()));
    }

    #[test]
    fn lock_wait_spans_open_and_close() {
        use crate::locks::LockId;
        let mut tr = Trace::new();
        tr.enable(100);
        tr.push(TraceEvent::LockWait {
            at: SimTime::from_millis(1),
            pid: Pid(7),
            spu: SpuId::user(1),
            lock: LockId::ROOT,
        });
        tr.push(TraceEvent::LockGrant {
            at: SimTime::from_millis(3),
            pid: Pid(7),
            lock: LockId::ROOT,
            holder: SpuId::user(0),
        });
        // A second wait left open closes at trace end with a null holder.
        tr.push(TraceEvent::LockWait {
            at: SimTime::from_millis(4),
            pid: Pid(8),
            spu: SpuId::user(0),
            lock: LockId::inode(crate::fs::FileId(4)),
        });
        let doc = chrome_trace_json(&tr, &SpuSet::equal_users(2), &ObsvReport::default());
        assert_valid_json(&doc);
        assert!(doc.contains("\"name\":\"lock-wait:root\""));
        assert!(doc.contains("\"name\":\"lock-wait:inode\""));
        assert!(doc.contains("\"tid\":1007"));
        assert!(doc.contains("\"dur\":2000"));
        assert!(doc.contains("\"holder\":2")); // user0's dense index
        assert!(doc.contains("\"holder\":null"));
    }

    #[test]
    fn block_closes_the_span_of_the_blocking_pid() {
        let mut tr = Trace::new();
        tr.enable(100);
        tr.push(TraceEvent::Dispatch {
            at: SimTime::from_millis(0),
            cpu: 3,
            pid: Pid(9),
            spu: SpuId::user(0),
            loaned: false,
        });
        tr.push(TraceEvent::Block {
            at: SimTime::from_millis(2),
            pid: Pid(9),
            reason: crate::process::BlockReason::Io,
        });
        let doc = chrome_trace_json(&tr, &SpuSet::equal_users(1), &ObsvReport::default());
        assert_valid_json(&doc);
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 1);
        assert!(doc.contains("\"tid\":3"));
        assert!(doc.contains("\"dur\":2000"));
    }
}
