//! The serve wire protocol: line-delimited JSON in both directions.
//!
//! Each request line is one object tagged by `"event"`:
//!
//! ```text
//! {"event":"submit","job":{"id":1,"user":3,"partition":0,"submit_time":100,
//!   "eligible_time":100,"req_cpus":4,"req_mem_gb":8,"req_nodes":1,
//!   "req_gpus":0,"timelimit_min":60,"qos":"normal","priority":1200.5}}
//! {"event":"start","id":1,"time":160}
//! {"event":"end","id":1,"time":3600}
//! {"event":"predict","id":1,"time":120}
//! {"v":2,"event":"predict","id":1,"time":120,"deadline_ms":50,"lane":"urgent"}
//! {"event":"metrics"}
//! {"event":"shutdown"}
//! ```
//!
//! The **v2 predict envelope** adds an optional `"v":2` version tag, a
//! latency budget (`deadline_ms`, positive milliseconds), a priority
//! lane (`"urgent"|"normal"|"batch"`), and an opt-in `"trace":true` flag
//! that mints a request-scoped trace id (echoed as `"trace_id"` in the
//! response) and records the request's per-stage latency into the flight
//! recorder (DESIGN §14). v1 lines (no `"v"` field, or `"v":1`) stay valid
//! and default to the normal lane with the server's configured budget;
//! their responses are byte-identical to the v1 protocol. Only `"v":2`
//! requests get the lane (and trace id) echoed in the response.
//!
//! `{"event":"trace","last":N}` dumps the most recent completed traces
//! across all shards as one response line; like `metrics` it is read-only
//! and never journaled.
//!
//! Every line gets exactly one response line, in request order. Success
//! responses carry `"ok":true`; failures carry `"ok":false` and an `"error"`
//! string whose prefix is the [`TroutError`] class (an `overloaded` shed
//! additionally carries a numeric `"retry_after_ms"`). A malformed line is
//! answered (not fatal): the daemon must survive a misbehaving client.

use std::borrow::Cow;
use std::fmt::Write as _;

use trout_core::{Lane, QueueEstimate, QueuePrediction, TroutError};
use trout_slurmsim::{JobRecord, JobState};
use trout_std::json::{write_number, ByteWriter, Json, JsonError, JsonRef, Members, Number};
use trout_workload::Qos;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// A job entered the queue.
    Submit(Box<JobRecord>),
    /// A pending job started running.
    Start {
        /// Job id.
        id: u64,
        /// Start instant (unix seconds).
        time: i64,
    },
    /// A running job finished — or a pending job was cancelled.
    End {
        /// Job id.
        id: u64,
        /// End instant (unix seconds).
        time: i64,
    },
    /// Predict the queue time of a submitted job as of `time`.
    Predict {
        /// Job id.
        id: u64,
        /// Query instant (unix seconds).
        time: i64,
        /// Priority lane (v2 field; v1 lines default to normal).
        lane: Lane,
        /// Explicit latency budget in milliseconds, if the client named one.
        /// `None` means the lane's configured default applies. Never
        /// journaled: the budget shapes scheduling, not state.
        deadline_ms: Option<u64>,
        /// Whether the line carried `"v":2` — controls the lane echo in the
        /// response, keeping v1 responses byte-identical.
        v2: bool,
        /// Whether the line carried `"trace":true` (v2 only): mint a trace
        /// id, echo it, and record per-stage latencies into the flight
        /// recorder. Never journaled: tracing is observation, not state.
        trace: bool,
    },
    /// Dump the metrics registry in the requested exposition format.
    Metrics(MetricsFormat),
    /// Dump the last `last` completed traces from the flight recorder.
    Trace {
        /// How many recent traces to return (capped at the ring size).
        last: usize,
    },
    /// Admin line: flip this replication follower to leader. The follower
    /// drains its stream connection, lifts the read-only gate, and starts
    /// accepting lifecycle events. Never journaled — role is deployment
    /// state, not model state.
    Promote,
    /// Replication status dump: role, per-shard watermarks, follower lag.
    /// Read-only, never journaled.
    ReplicationStatus,
    /// Full canonical state dump (`state_to_json` merged across shards)
    /// with per-shard journal watermarks — the probe the replication
    /// bit-identity oracle compares between leader and follower. Read-only,
    /// never journaled.
    StateDump,
    /// Close the session cleanly.
    Shutdown,
}

/// Exposition format of a `metrics` request (the optional `"format"` field;
/// omitted means JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The sectioned JSON registry dump.
    #[default]
    Json,
    /// Prometheus text exposition, embedded as the `"body"` string of the
    /// response line.
    Prometheus,
}

/// Default `last` for a `{"event":"trace"}` request without the field.
pub const DEFAULT_TRACE_LAST: usize = 32;

fn field_i64(v: Option<JsonRef>, key: &str) -> Result<i64, TroutError> {
    match v {
        Some(JsonRef::Int(v)) => {
            i64::try_from(v).map_err(|_| TroutError::Parse(format!("field `{key}` out of range")))
        }
        Some(_) => Err(TroutError::Parse(format!(
            "field `{key}` must be an integer"
        ))),
        None => Err(TroutError::Parse(format!("missing field `{key}`"))),
    }
}

fn field_u64(v: Option<JsonRef>, key: &str) -> Result<u64, TroutError> {
    let v = field_i64(v, key)?;
    u64::try_from(v).map_err(|_| TroutError::Parse(format!("field `{key}` must be non-negative")))
}

fn field_u32(v: Option<JsonRef>, key: &str) -> Result<u32, TroutError> {
    let v = field_i64(v, key)?;
    u32::try_from(v).map_err(|_| TroutError::Parse(format!("field `{key}` out of u32 range")))
}

fn field_f64_or(v: Option<JsonRef>, key: &str, default: f64) -> Result<f64, TroutError> {
    match v {
        Some(JsonRef::Num(v)) => Ok(v),
        Some(JsonRef::Int(v)) => Ok(v as f64),
        Some(_) => Err(TroutError::Parse(format!("field `{key}` must be a number"))),
        None => Ok(default),
    }
}

fn parse_job(j: &Json) -> Result<JobRecord, TroutError> {
    let get = |key: &str| j.get(key).map(JsonRef::from);
    let qos = match get("qos") {
        None => Qos::Normal,
        Some(JsonRef::Str(s)) => {
            Qos::parse(&s).ok_or_else(|| TroutError::Parse(format!("unknown qos `{s}`")))?
        }
        Some(_) => return Err(TroutError::Parse("field `qos` must be a string".into())),
    };
    let submit_time = field_i64(get("submit_time"), "submit_time")?;
    Ok(JobRecord {
        id: field_u64(get("id"), "id")?,
        user: field_u32(get("user"), "user")?,
        partition: field_u32(get("partition"), "partition")?,
        submit_time,
        eligible_time: match get("eligible_time") {
            Some(v) => field_i64(Some(v), "eligible_time")?,
            None => submit_time,
        },
        // Unknown for a live job; the engine replaces them with open-ended
        // sentinels as the lifecycle events arrive.
        start_time: 0,
        end_time: 0,
        req_cpus: field_u32(get("req_cpus"), "req_cpus")?,
        req_mem_gb: field_u32(get("req_mem_gb"), "req_mem_gb")?,
        req_nodes: field_u32(get("req_nodes"), "req_nodes")?,
        req_gpus: match get("req_gpus") {
            Some(v) => field_u32(Some(v), "req_gpus")?,
            None => 0,
        },
        timelimit_min: field_u32(get("timelimit_min"), "timelimit_min")?,
        qos,
        campaign: match get("campaign") {
            Some(v) => field_u64(Some(v), "campaign")?,
            None => 0,
        },
        priority: field_f64_or(get("priority"), "priority", 0.0)?,
        state: JobState::Completed,
    })
}

/// The members of a request line that some event reads. The whole line is
/// read (and its JSON checked) before any member is interpreted, so a
/// malformed line is a `parse` error whatever its members say. The first
/// occurrence of a duplicate key wins, as [`Json::get`] would have it;
/// other keys are checked and skipped.
#[derive(Default)]
struct Envelope<'a> {
    event: Option<JsonRef<'a>>,
    v: Option<JsonRef<'a>>,
    id: Option<JsonRef<'a>>,
    time: Option<JsonRef<'a>>,
    lane: Option<JsonRef<'a>>,
    deadline_ms: Option<JsonRef<'a>>,
    trace: Option<JsonRef<'a>>,
    format: Option<JsonRef<'a>>,
    last: Option<JsonRef<'a>>,
    job: Option<JsonRef<'a>>,
}

impl<'a> Envelope<'a> {
    fn read(line: &'a str) -> Result<Envelope<'a>, JsonError> {
        let mut env = Envelope::default();
        let mut members = Members::new(line)?;
        while let Some((key, value)) = members.next_member()? {
            let slot = match &*key {
                "event" => &mut env.event,
                "v" => &mut env.v,
                "id" => &mut env.id,
                "time" => &mut env.time,
                "lane" => &mut env.lane,
                "deadline_ms" => &mut env.deadline_ms,
                "trace" => &mut env.trace,
                "format" => &mut env.format,
                "last" => &mut env.last,
                "job" => &mut env.job,
                _ => continue,
            };
            if slot.is_none() {
                *slot = Some(value);
            }
        }
        Ok(env)
    }
}

/// Parses one request line. Reads the line in place: a predict (or any
/// other envelope) builds no `Json` tree; only a submit's `job` does.
pub fn parse_event(line: &str) -> Result<ClientEvent, TroutError> {
    let env = Envelope::read(line).map_err(|e| TroutError::Parse(e.to_string()))?;
    let kind = match env.event {
        Some(JsonRef::Str(s)) => s,
        _ => return Err(TroutError::Protocol("missing `event` tag".into())),
    };
    match &*kind {
        "submit" => {
            let job = env
                .job
                .ok_or_else(|| TroutError::Protocol("submit: missing `job` object".into()))?;
            Ok(ClientEvent::Submit(Box::new(parse_job(&job.into_json())?)))
        }
        "start" => Ok(ClientEvent::Start {
            id: field_u64(env.id, "id")?,
            time: field_i64(env.time, "time")?,
        }),
        "end" => Ok(ClientEvent::End {
            id: field_u64(env.id, "id")?,
            time: field_i64(env.time, "time")?,
        }),
        "predict" => {
            let v2 = match env.v {
                None | Some(JsonRef::Int(1)) => false,
                Some(JsonRef::Int(2)) => true,
                Some(other) => {
                    return Err(TroutError::Protocol(format!(
                        "unsupported protocol version {} (expected 1 or 2)",
                        other.into_json()
                    )))
                }
            };
            let lane = match env.lane {
                None => Lane::Normal,
                Some(JsonRef::Str(s)) => Lane::parse(&s).ok_or_else(|| {
                    TroutError::Protocol(format!(
                        "unknown lane `{s}` (expected urgent, normal, or batch)"
                    ))
                })?,
                Some(_) => {
                    return Err(TroutError::Protocol("field `lane` must be a string".into()))
                }
            };
            let deadline_ms =
                match env.deadline_ms {
                    None => None,
                    Some(JsonRef::Int(v)) if v > 0 => Some(u64::try_from(v).map_err(|_| {
                        TroutError::Parse("field `deadline_ms` out of range".into())
                    })?),
                    Some(_) => {
                        return Err(TroutError::Parse(
                            "field `deadline_ms` must be a positive integer".into(),
                        ))
                    }
                };
            let trace = match env.trace {
                None => false,
                Some(JsonRef::Bool(b)) => {
                    if b && !v2 {
                        return Err(TroutError::Protocol(
                            "`trace` requires the v2 envelope (`\"v\":2`)".into(),
                        ));
                    }
                    b
                }
                Some(_) => {
                    return Err(TroutError::Protocol(
                        "field `trace` must be a boolean".into(),
                    ))
                }
            };
            Ok(ClientEvent::Predict {
                id: field_u64(env.id, "id")?,
                time: field_i64(env.time, "time")?,
                lane,
                deadline_ms,
                v2,
                trace,
            })
        }
        "metrics" => Ok(ClientEvent::Metrics(match env.format {
            None => MetricsFormat::Json,
            Some(JsonRef::Str(s)) if s == "json" => MetricsFormat::Json,
            Some(JsonRef::Str(s)) if s == "prometheus" => MetricsFormat::Prometheus,
            Some(other) => {
                return Err(TroutError::Protocol(format!(
                    "metrics: unknown format {:?} (expected \"json\" or \"prometheus\")",
                    other.into_json()
                )))
            }
        })),
        "trace" => {
            let last = match env.last {
                None => DEFAULT_TRACE_LAST,
                Some(JsonRef::Int(v)) if v > 0 => usize::try_from(v)
                    .map_err(|_| TroutError::Parse("field `last` out of range".into()))?,
                Some(_) => {
                    return Err(TroutError::Parse(
                        "field `last` must be a positive integer".into(),
                    ))
                }
            };
            Ok(ClientEvent::Trace { last })
        }
        "promote" => Ok(ClientEvent::Promote),
        "replication" => Ok(ClientEvent::ReplicationStatus),
        "state" => Ok(ClientEvent::StateDump),
        "shutdown" => Ok(ClientEvent::Shutdown),
        other => Err(TroutError::Protocol(format!("unknown event `{other}`"))),
    }
}

/// A request line's text: borrowed when its bytes are valid UTF-8, decoded
/// lossily otherwise, so an invalid byte makes that one line a `parse`
/// error instead of ending the session. Every transport reads lines
/// through it.
pub(crate) fn line_text(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(s) => Cow::Borrowed(s),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// Serializes a job record as the protocol's submit payload (the `trout
/// events` generator and tests share it with the parser).
pub fn job_to_json(r: &JobRecord) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::Int(r.id as i128)),
        ("user".into(), Json::Int(r.user as i128)),
        ("partition".into(), Json::Int(r.partition as i128)),
        ("submit_time".into(), Json::Int(r.submit_time as i128)),
        ("eligible_time".into(), Json::Int(r.eligible_time as i128)),
        ("req_cpus".into(), Json::Int(r.req_cpus as i128)),
        ("req_mem_gb".into(), Json::Int(r.req_mem_gb as i128)),
        ("req_nodes".into(), Json::Int(r.req_nodes as i128)),
        ("req_gpus".into(), Json::Int(r.req_gpus as i128)),
        ("timelimit_min".into(), Json::Int(r.timelimit_min as i128)),
        ("qos".into(), Json::Str(r.qos.as_str().into())),
        ("campaign".into(), Json::Int(r.campaign as i128)),
        ("priority".into(), Json::Num(r.priority)),
    ])
}

/// Canonical one-line serialization of a state-changing event — the
/// journal's record format. Deliberately the *request* grammar (the journal
/// is a replayable client script), so recovery feeds lines straight back
/// through [`parse_event`]. Read-only events (`metrics`, `shutdown`) carry
/// no state and return `None`.
pub fn event_to_line(ev: &ClientEvent) -> Option<String> {
    match ev {
        ClientEvent::Submit(rec) => Some(submit_line(rec)),
        ClientEvent::Start { id, time } => Some(lifecycle_line("start", *id, *time)),
        ClientEvent::End { id, time } => Some(lifecycle_line("end", *id, *time)),
        ClientEvent::Predict { id, time, lane, .. } => Some(predict_line(*id, *time, *lane)),
        ClientEvent::Metrics(_)
        | ClientEvent::Trace { .. }
        | ClientEvent::Promote
        | ClientEvent::ReplicationStatus
        | ClientEvent::StateDump
        | ClientEvent::Shutdown => None,
    }
}

/// The journal/wire line for a `submit`.
pub fn submit_line(rec: &JobRecord) -> String {
    Json::Obj(vec![
        ("event".into(), Json::Str("submit".into())),
        ("job".into(), job_to_json(rec)),
    ])
    .to_string()
}

/// The journal/wire line for a `start`/`end`/`predict`.
pub fn lifecycle_line(event: &str, id: u64, time: i64) -> String {
    format!("{{\"event\":\"{event}\",\"id\":{id},\"time\":{time}}}")
}

/// The journal/wire line for a `predict`. The lane is recorded only when it
/// is not the default, so journals written by v1 traffic stay byte-identical
/// to the v1 format (recovery bit-identity across the protocol bump). The
/// deadline is deliberately absent: it shapes scheduling, never state.
pub fn predict_line(id: u64, time: i64, lane: Lane) -> String {
    if lane == Lane::Normal {
        lifecycle_line("predict", id, time)
    } else {
        format!(
            "{{\"event\":\"predict\",\"id\":{id},\"time\":{time},\"lane\":\"{}\"}}",
            lane.as_str()
        )
    }
}

/// `{"ok":true,"event":...}` acknowledgement for a lifecycle event.
pub fn ack_response(event: &str, id: u64) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str(event.into())),
        ("id".into(), Json::Int(id as i128)),
    ])
    .to_string()
}

/// The predict response line as a `String` (no newline): decision,
/// probabilities, and minutes when present. See
/// [`write_prediction_response`], which the daemon uses.
pub fn prediction_response(
    id: u64,
    p: &QueuePrediction,
    v2: bool,
    trace_id: Option<u64>,
) -> String {
    let mut line = Vec::new();
    write_prediction_response(&mut line, id, p, v2, trace_id);
    line.pop();
    String::from_utf8(line).expect("the predict writer emits UTF-8")
}

/// Appends the predict response and its newline to `out`, allocating
/// nothing once `out` has the room. `v2` requests additionally get their
/// lane echoed (right after `id`), and a traced request gets its minted
/// trace id (hex, after the lane); omitting both for v1 keeps those
/// responses byte-identical to the v1 protocol.
pub fn write_prediction_response(
    out: &mut Vec<u8>,
    id: u64,
    p: &QueuePrediction,
    v2: bool,
    trace_id: Option<u64>,
) {
    write_prediction(&mut ByteWriter(out), id, p, v2, trace_id)
        .expect("writing to a Vec cannot fail");
}

fn write_prediction(
    w: &mut ByteWriter<'_>,
    id: u64,
    p: &QueuePrediction,
    v2: bool,
    trace_id: Option<u64>,
) -> std::fmt::Result {
    let float = |x: f32| Number::Float(x as f64);
    w.write_str("{\"ok\":true,\"event\":\"predict\",\"id\":")?;
    write_number(w, Number::Int(id as i128))?;
    if v2 {
        write!(w, ",\"lane\":\"{}\"", p.lane.as_str())?;
        if let Some(tid) = trace_id {
            write!(w, ",\"trace_id\":\"{tid:016x}\"")?;
        }
    }
    let quick = matches!(p.estimate, QueueEstimate::QuickStart);
    write!(w, ",\"quick_start\":{quick},\"quick_proba\":")?;
    write_number(w, float(p.quick_proba))?;
    w.write_str(",\"calibrated_proba\":")?;
    write_number(w, float(p.calibrated_proba))?;
    w.write_str(",\"cutoff_min\":")?;
    write_number(w, float(p.cutoff_min))?;
    if let Some(m) = p.minutes {
        w.write_str(",\"minutes\":")?;
        write_number(w, float(m))?;
    }
    w.write_str(",\"message\":\"")?;
    p.estimate.write_message(p.cutoff_min, w)?;
    w.write_str("\"}\n")
}

/// The canonical wire form of a trace id: 16 hex digits (strings survive
/// clients whose JSON numbers are f64).
pub fn trace_id_str(id: u64) -> String {
    format!("{id:016x}")
}

/// One completed trace as a JSON object — the element format of the
/// `trace` response and of flight-recorder ndjson dumps.
pub fn trace_record_json(r: &trout_obs::TraceRecord) -> Json {
    let lane = Lane::from_rank(r.lane as usize).unwrap_or(Lane::Normal);
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(trace_id_str(r.trace_id))),
        ("lane".into(), Json::Str(lane.as_str().into())),
        ("end_us".into(), Json::Int(r.end_us as i128)),
        ("total_us".into(), Json::Int(r.total_us as i128)),
        ("stages".into(), r.stages_json()),
    ])
}

/// The flight-recorder dump response: the most recent completed traces
/// (newest first), each with its per-stage breakdown, as one line.
pub fn trace_response(traces: &[trout_obs::TraceRecord]) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("trace".into())),
        ("count".into(), Json::Int(traces.len() as i128)),
        (
            "traces".into(),
            Json::Arr(traces.iter().map(trace_record_json).collect()),
        ),
    ])
    .to_string()
}

/// The metrics response, wrapping the registry dump.
pub fn metrics_response(metrics: Json) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("metrics".into())),
        ("metrics".into(), metrics),
    ])
    .to_string()
}

/// The Prometheus-format metrics response: the exposition text rides as one
/// escaped JSON string so the response stays a single line.
pub fn metrics_prometheus_response(body: String) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("metrics".into())),
        ("format".into(), Json::Str("prometheus".into())),
        ("body".into(), Json::Str(body)),
    ])
    .to_string()
}

/// The state-dump response: per-shard journal watermarks (index order)
/// followed by the canonical merged state. Two daemons at identical
/// watermarks must produce byte-identical `state` members — the replication
/// bit-identity oracle.
pub fn state_dump_response(watermarks: &[u64], state: Json) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("state".into())),
        (
            "watermarks".into(),
            Json::Arr(watermarks.iter().map(|w| Json::Int(*w as i128)).collect()),
        ),
        ("state".into(), state),
    ])
    .to_string()
}

/// The promote acknowledgement: the daemon's new role.
pub fn promote_response(was_follower: bool) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("promote".into())),
        ("role".into(), Json::Str("leader".into())),
        ("was_follower".into(), Json::Bool(was_follower)),
    ])
    .to_string()
}

/// `{"ok":false,"error":...}` — the error class rides in the message prefix.
/// An admission shed additionally carries a machine-readable
/// `"retry_after_ms"` so clients can back off without parsing prose.
pub fn error_response(e: &TroutError) -> String {
    let mut members = vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(e.to_string())),
    ];
    if let TroutError::Overloaded { retry_after_ms } = e {
        members.push(("retry_after_ms".into(), Json::Int(*retry_after_ms as i128)));
    }
    Json::Obj(members).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trout_std::proptest_lite::vec_of;
    use trout_std::{prop_assert_eq, proptest_lite};

    // -- Oracles: the tree-based decoder and encoder the wire path replaced.

    fn tree_i64(j: &Json, key: &str) -> Result<i64, TroutError> {
        match j.get(key) {
            Some(Json::Int(v)) => i64::try_from(*v)
                .map_err(|_| TroutError::Parse(format!("field `{key}` out of range"))),
            Some(_) => Err(TroutError::Parse(format!(
                "field `{key}` must be an integer"
            ))),
            None => Err(TroutError::Parse(format!("missing field `{key}`"))),
        }
    }

    fn tree_u64(j: &Json, key: &str) -> Result<u64, TroutError> {
        let v = tree_i64(j, key)?;
        u64::try_from(v)
            .map_err(|_| TroutError::Parse(format!("field `{key}` must be non-negative")))
    }

    /// `parse_event` as it was before the in-place decoder: parse the line
    /// into a tree, then look members up by key.
    fn parse_event_tree(line: &str) -> Result<ClientEvent, TroutError> {
        let j = Json::parse(line).map_err(|e| TroutError::Parse(e.to_string()))?;
        let kind = match j.get("event") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(TroutError::Protocol("missing `event` tag".into())),
        };
        match kind.as_str() {
            "submit" => {
                let job = j
                    .get("job")
                    .ok_or_else(|| TroutError::Protocol("submit: missing `job` object".into()))?;
                Ok(ClientEvent::Submit(Box::new(parse_job(job)?)))
            }
            "start" => Ok(ClientEvent::Start {
                id: tree_u64(&j, "id")?,
                time: tree_i64(&j, "time")?,
            }),
            "end" => Ok(ClientEvent::End {
                id: tree_u64(&j, "id")?,
                time: tree_i64(&j, "time")?,
            }),
            "predict" => {
                let v2 = match j.get("v") {
                    None => false,
                    Some(Json::Int(1)) => false,
                    Some(Json::Int(2)) => true,
                    Some(other) => {
                        return Err(TroutError::Protocol(format!(
                            "unsupported protocol version {other} (expected 1 or 2)"
                        )))
                    }
                };
                let lane = match j.get("lane") {
                    None => Lane::Normal,
                    Some(Json::Str(s)) => Lane::parse(s).ok_or_else(|| {
                        TroutError::Protocol(format!(
                            "unknown lane `{s}` (expected urgent, normal, or batch)"
                        ))
                    })?,
                    Some(_) => {
                        return Err(TroutError::Protocol("field `lane` must be a string".into()))
                    }
                };
                let deadline_ms = match j.get("deadline_ms") {
                    None => None,
                    Some(Json::Int(v)) if *v > 0 => Some(u64::try_from(*v).map_err(|_| {
                        TroutError::Parse("field `deadline_ms` out of range".into())
                    })?),
                    Some(_) => {
                        return Err(TroutError::Parse(
                            "field `deadline_ms` must be a positive integer".into(),
                        ))
                    }
                };
                let trace = match j.get("trace") {
                    None => false,
                    Some(Json::Bool(b)) => {
                        if *b && !v2 {
                            return Err(TroutError::Protocol(
                                "`trace` requires the v2 envelope (`\"v\":2`)".into(),
                            ));
                        }
                        *b
                    }
                    Some(_) => {
                        return Err(TroutError::Protocol(
                            "field `trace` must be a boolean".into(),
                        ))
                    }
                };
                Ok(ClientEvent::Predict {
                    id: tree_u64(&j, "id")?,
                    time: tree_i64(&j, "time")?,
                    lane,
                    deadline_ms,
                    v2,
                    trace,
                })
            }
            "metrics" => Ok(ClientEvent::Metrics(match j.get("format") {
                None => MetricsFormat::Json,
                Some(Json::Str(s)) if s == "json" => MetricsFormat::Json,
                Some(Json::Str(s)) if s == "prometheus" => MetricsFormat::Prometheus,
                Some(other) => {
                    return Err(TroutError::Protocol(format!(
                        "metrics: unknown format {other:?} (expected \"json\" or \"prometheus\")"
                    )))
                }
            })),
            "trace" => {
                let last = match j.get("last") {
                    None => DEFAULT_TRACE_LAST,
                    Some(Json::Int(v)) if *v > 0 => usize::try_from(*v)
                        .map_err(|_| TroutError::Parse("field `last` out of range".into()))?,
                    Some(_) => {
                        return Err(TroutError::Parse(
                            "field `last` must be a positive integer".into(),
                        ))
                    }
                };
                Ok(ClientEvent::Trace { last })
            }
            "promote" => Ok(ClientEvent::Promote),
            "replication" => Ok(ClientEvent::ReplicationStatus),
            "state" => Ok(ClientEvent::StateDump),
            "shutdown" => Ok(ClientEvent::Shutdown),
            other => Err(TroutError::Protocol(format!("unknown event `{other}`"))),
        }
    }

    /// The predict response as it was built before the direct writer: a
    /// `Json` tree, stringified.
    fn prediction_response_tree(
        id: u64,
        p: &QueuePrediction,
        v2: bool,
        trace_id: Option<u64>,
    ) -> String {
        let mut members = vec![
            ("ok".into(), Json::Bool(true)),
            ("event".into(), Json::Str("predict".into())),
            ("id".into(), Json::Int(id as i128)),
        ];
        if v2 {
            members.push(("lane".into(), Json::Str(p.lane.as_str().into())));
            if let Some(tid) = trace_id {
                members.push(("trace_id".into(), Json::Str(trace_id_str(tid))));
            }
        }
        members.extend([
            (
                "quick_start".into(),
                Json::Bool(matches!(p.estimate, QueueEstimate::QuickStart)),
            ),
            ("quick_proba".into(), Json::Num(p.quick_proba as f64)),
            (
                "calibrated_proba".into(),
                Json::Num(p.calibrated_proba as f64),
            ),
            ("cutoff_min".into(), Json::Num(p.cutoff_min as f64)),
        ]);
        if let Some(m) = p.minutes {
            members.push(("minutes".into(), Json::Num(m as f64)));
        }
        members.push(("message".into(), Json::Str(p.message())));
        Json::Obj(members).to_string()
    }

    // -- Decode equivalence.

    /// Member values the mutations substitute: every JSON kind, in-range,
    /// out-of-range and float numbers, and the strings the events know.
    const VALUES: &[&str] = &[
        "null",
        "true",
        "false",
        "0",
        "-1",
        "1",
        "2",
        "3",
        "7",
        "-5",
        "1.5",
        "2.0",
        "1e3",
        "-0",
        "0.0",
        "4294967296",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551616",
        "99999999999999999999999999999999999999999",
        "\"predict\"",
        "\"start\"",
        "\"end\"",
        "\"trace\"",
        "\"metrics\"",
        "\"urgent\"",
        "\"normal\"",
        "\"batch\"",
        "\"vip\"",
        "\"json\"",
        "\"prometheus\"",
        "\"\"",
        "\"pr\\u0065dict\"",
        "[1,2]",
        "{\"a\":[null]}",
        "[]",
    ];

    /// The base line of each event kind the property mutates, as
    /// `(key, value)` member texts.
    fn base_members(kind: u64) -> Vec<(String, String)> {
        let m = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        };
        match kind % 6 {
            0 => m(&[("event", "\"predict\""), ("id", "42"), ("time", "1200")]),
            1 => m(&[
                ("v", "2"),
                ("event", "\"predict\""),
                ("id", "42"),
                ("time", "1200"),
                ("deadline_ms", "50"),
                ("lane", "\"urgent\""),
                ("trace", "true"),
            ]),
            2 => m(&[("event", "\"start\""), ("id", "42"), ("time", "1300")]),
            3 => m(&[("event", "\"end\""), ("id", "42"), ("time", "1400")]),
            4 => m(&[("event", "\"trace\""), ("last", "5")]),
            _ => m(&[("event", "\"metrics\""), ("format", "\"prometheus\"")]),
        }
    }

    /// Spells every char of `s` as a `\uXXXX` escape.
    fn escaped(s: &str) -> String {
        s.chars().map(|c| format!("\\u{:04x}", c as u32)).collect()
    }

    /// Renders mutated members as a request line.
    fn render(members: &[(String, String)], ws: u64) -> String {
        const WS: &[&str] = &["", " ", "\t", "\r\n ", "  "];
        let pad = |k: usize| WS[((ws >> (k % 16 * 4)) % WS.len() as u64) as usize];
        let mut line = format!("{}{{", pad(0));
        for (k, (key, value)) in members.iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{}\"{key}\"{}:{}{value}{}",
                pad(k + 1),
                pad(k + 2),
                pad(k + 3),
                pad(k + 4)
            ));
        }
        line.push('}');
        line
    }

    proptest_lite! {
        // The in-place decoder returns exactly what the tree decoder
        // returned — the same event, or the same error (class and text) —
        // for predict, start, end, trace and metrics lines under reordered,
        // duplicated, unknown, replaced and removed members, escaped keys
        // and values, whitespace, truncation and trailing bytes.
        #[cases(3000)]
        fn in_place_decode_matches_the_tree_decoder(
            kind in 0u64..6,
            ops in vec_of((0u64..8, 0u64..64, 0u64..64), 0..6),
            ws in 0u64..u64::MAX,
            cut in 0u64..400,
            tail in 0u64..8
        ) {
            let mut members = base_members(kind);
            for &(op, a, b) in &ops {
                let n = members.len();
                let value = VALUES[b as usize % VALUES.len()].to_string();
                match op {
                    0 if n > 1 => members.swap(a as usize % n, b as usize % n),
                    1 if n > 0 => {
                        let dup = (members[a as usize % n].0.clone(), value);
                        members.insert(b as usize % (n + 1), dup);
                    }
                    2 => members.insert(b as usize % (n + 1), (format!("x{a}"), value)),
                    3 if n > 0 => members[a as usize % n].1 = value,
                    4 if n > 0 => {
                        let key = &mut members[a as usize % n].0;
                        *key = escaped(key);
                    }
                    5 if n > 0 => {
                        let v = &mut members[a as usize % n].1;
                        if let Some(inner) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                            *v = format!("\"{}\"", escaped(inner));
                        }
                    }
                    6 if n > 0 => {
                        members.remove(a as usize % n);
                    }
                    _ => {}
                }
            }
            let mut line = render(&members, ws);
            if cut < 100 {
                line.truncate(cut as usize * line.len() / 100);
            }
            line.push_str(["", " ", "\n", "x", "}", ",", "{}", "\"\""][tail as usize]);
            let class = |r: Result<ClientEvent, TroutError>| r.map_err(|e| e.to_string());
            prop_assert_eq!(
                class(parse_event(&line)),
                class(parse_event_tree(&line)),
                "{}",
                line
            );
        }
    }

    // -- Serializer byte identity.

    /// Floats the response writer must spell exactly as the tree did.
    const SPECIAL_F32: &[f32] = &[
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0,
        10.0,
        -3.0,
        0.1,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        1e-45, // the smallest subnormal
        1.17e-38,
        16_777_217.0,
    ];

    /// An arbitrary f32: a special value or any bit pattern.
    fn any_f32(pick: u64) -> f32 {
        if pick.is_multiple_of(3) {
            SPECIAL_F32[(pick / 3) as usize % SPECIAL_F32.len()]
        } else {
            f32::from_bits((pick >> 2) as u32)
        }
    }

    proptest_lite! {
        // The direct writer emits the tree builder's bytes plus a newline,
        // for v1, v2 and traced responses, quick starts and minute
        // estimates, with or without minutes, over NaN, ±inf, -0.0,
        // integral values, f32::MAX and subnormals (which print ~65
        // characters once widened to f64).
        #[cases(3000)]
        fn direct_writer_matches_the_tree_response(
            id in 0u64..u64::MAX,
            floats in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            shape in 0u64..64,
            trace_id in 0u64..u64::MAX
        ) {
            let (a, b, c, d) = floats;
            let lane = Lane::from_rank(shape as usize % 3).unwrap();
            let p = QueuePrediction {
                estimate: if shape & 4 == 0 {
                    QueueEstimate::QuickStart
                } else {
                    QueueEstimate::Minutes(any_f32(d))
                },
                quick_proba: any_f32(a),
                calibrated_proba: any_f32(b),
                minutes: (shape & 8 != 0).then(|| any_f32(d)),
                cutoff_min: any_f32(c),
                lane,
            };
            let v2 = shape & 16 != 0;
            let tid = (shape & 32 != 0).then_some(trace_id);
            let want = prediction_response_tree(id, &p, v2, tid);
            // Into a buffer that already holds a response: appended, not
            // overwritten.
            let mut out = b"prev\n".to_vec();
            write_prediction_response(&mut out, id, &p, v2, tid);
            prop_assert_eq!(
                String::from_utf8(out).unwrap(),
                format!("prev\n{want}\n")
            );
            prop_assert_eq!(prediction_response(id, &p, v2, tid), want);
        }
    }

    #[test]
    fn subnormal_probabilities_are_written_in_full() {
        let p = QueuePrediction {
            estimate: QueueEstimate::Minutes(f32::from_bits(1)),
            quick_proba: f32::from_bits(1),
            calibrated_proba: f32::from_bits(0x007f_ffff),
            minutes: Some(f32::MAX),
            cutoff_min: 10.0,
            lane: Lane::Batch,
        };
        let line = prediction_response(u64::MAX, &p, true, Some(1));
        assert_eq!(line, prediction_response_tree(u64::MAX, &p, true, Some(1)));
        let proba = "1.401298464324817e-45".parse::<f64>().unwrap();
        assert_eq!(
            Json::parse(&line).unwrap().get("quick_proba"),
            Some(&Json::Num(proba))
        );
        assert!(line.len() > 200, "{line}");
    }

    #[test]
    fn submit_round_trips_through_job_to_json() {
        let rec = JobRecord {
            id: 42,
            user: 7,
            partition: 1,
            submit_time: 1000,
            eligible_time: 1060,
            start_time: 0,
            end_time: 0,
            req_cpus: 16,
            req_mem_gb: 64,
            req_nodes: 2,
            req_gpus: 1,
            timelimit_min: 120,
            qos: Qos::High,
            campaign: 3,
            priority: 1234.5,
            state: JobState::Completed,
        };
        let line = Json::Obj(vec![
            ("event".into(), Json::Str("submit".into())),
            ("job".into(), job_to_json(&rec)),
        ])
        .to_string();
        match parse_event(&line).unwrap() {
            ClientEvent::Submit(parsed) => assert_eq!(*parsed, rec),
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn minimal_submit_uses_defaults() {
        let line = r#"{"event":"submit","job":{"id":1,"user":0,"partition":0,
            "submit_time":50,"req_cpus":1,"req_mem_gb":2,"req_nodes":1,
            "timelimit_min":30}}"#
            .replace('\n', " ");
        match parse_event(&line).unwrap() {
            ClientEvent::Submit(j) => {
                assert_eq!(j.eligible_time, 50, "defaults to submit_time");
                assert_eq!(j.qos, Qos::Normal);
                assert_eq!(j.req_gpus, 0);
            }
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn lifecycle_and_control_events_parse() {
        assert_eq!(
            parse_event(r#"{"event":"start","id":3,"time":99}"#).unwrap(),
            ClientEvent::Start { id: 3, time: 99 }
        );
        assert_eq!(
            parse_event(r#"{"event":"end","id":3,"time":200}"#).unwrap(),
            ClientEvent::End { id: 3, time: 200 }
        );
        assert_eq!(
            parse_event(r#"{"event":"predict","id":3,"time":120}"#).unwrap(),
            ClientEvent::Predict {
                id: 3,
                time: 120,
                lane: Lane::Normal,
                deadline_ms: None,
                v2: false,
                trace: false,
            }
        );
        assert_eq!(
            parse_event(r#"{"event":"metrics"}"#).unwrap(),
            ClientEvent::Metrics(MetricsFormat::Json)
        );
        assert_eq!(
            parse_event(r#"{"event":"metrics","format":"prometheus"}"#).unwrap(),
            ClientEvent::Metrics(MetricsFormat::Prometheus)
        );
        assert!(matches!(
            parse_event(r#"{"event":"metrics","format":"xml"}"#),
            Err(TroutError::Protocol(_))
        ));
        assert_eq!(
            parse_event(r#"{"event":"shutdown"}"#).unwrap(),
            ClientEvent::Shutdown
        );
        assert_eq!(
            parse_event(r#"{"event":"promote"}"#).unwrap(),
            ClientEvent::Promote
        );
        assert_eq!(
            parse_event(r#"{"event":"replication"}"#).unwrap(),
            ClientEvent::ReplicationStatus
        );
        assert_eq!(
            parse_event(r#"{"event":"state"}"#).unwrap(),
            ClientEvent::StateDump
        );
        // None of the admin/status events ever reach the journal.
        for ev in [
            ClientEvent::Promote,
            ClientEvent::ReplicationStatus,
            ClientEvent::StateDump,
        ] {
            assert_eq!(event_to_line(&ev), None);
        }
    }

    #[test]
    fn malformed_lines_classify_as_parse_or_protocol() {
        assert!(matches!(
            parse_event("not json at all"),
            Err(TroutError::Parse(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"warp","id":1}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"id":1}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"start","id":3}"#),
            Err(TroutError::Parse(_))
        ));
    }

    #[test]
    fn journal_lines_round_trip_through_the_parser() {
        let rec = JobRecord {
            id: 9,
            user: 2,
            partition: 0,
            submit_time: 500,
            eligible_time: 510,
            start_time: 0,
            end_time: 0,
            req_cpus: 8,
            req_mem_gb: 16,
            req_nodes: 1,
            req_gpus: 0,
            timelimit_min: 45,
            qos: Qos::Normal,
            campaign: 0,
            priority: 7.25,
            state: JobState::Completed,
        };
        for ev in [
            ClientEvent::Submit(Box::new(rec)),
            ClientEvent::Start { id: 9, time: 600 },
            ClientEvent::End { id: 9, time: 700 },
            ClientEvent::Predict {
                id: 9,
                time: 550,
                lane: Lane::Normal,
                deadline_ms: None,
                v2: false,
                trace: false,
            },
            // A non-default lane survives the journal; the deadline does
            // not (scheduling, not state), so round-trip holds with None.
            ClientEvent::Predict {
                id: 9,
                time: 560,
                lane: Lane::Urgent,
                deadline_ms: None,
                v2: false,
                trace: false,
            },
        ] {
            let line = event_to_line(&ev).expect("state-changing events serialize");
            assert!(!line.contains('\n'));
            assert_eq!(parse_event(&line).unwrap(), ev, "{line}");
        }
        assert_eq!(event_to_line(&ClientEvent::Shutdown), None);
        assert_eq!(
            event_to_line(&ClientEvent::Metrics(MetricsFormat::Json)),
            None
        );
    }

    #[test]
    fn responses_are_single_line_json() {
        let p = QueuePrediction {
            estimate: QueueEstimate::Minutes(42.5),
            quick_proba: 0.2,
            calibrated_proba: 0.25,
            minutes: Some(42.5),
            cutoff_min: 10.0,
            lane: Lane::Normal,
        };
        for s in [
            ack_response("submit", 1),
            prediction_response(1, &p, false, None),
            error_response(&TroutError::Protocol("x".into())),
            metrics_response(Json::Obj(vec![])),
            metrics_prometheus_response("trout_serve_predicts_total 1\n".into()),
        ] {
            assert!(!s.contains('\n'), "{s}");
            let parsed = Json::parse(&s).unwrap();
            assert!(parsed.get("ok").is_some());
        }
        let parsed = Json::parse(&prediction_response(1, &p, false, None)).unwrap();
        assert_eq!(parsed.get("quick_start"), Some(&Json::Bool(false)));
        assert!(parsed.get("minutes").is_some());
    }

    #[test]
    fn v2_predict_envelope_parses_and_echoes_lane() {
        assert_eq!(
            parse_event(
                r#"{"v":2,"event":"predict","id":4,"time":10,"deadline_ms":50,"lane":"urgent"}"#
            )
            .unwrap(),
            ClientEvent::Predict {
                id: 4,
                time: 10,
                lane: Lane::Urgent,
                deadline_ms: Some(50),
                v2: true,
                trace: false,
            }
        );
        // v1 lines may still name a lane/deadline; only the echo is gated.
        assert_eq!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"lane":"batch"}"#).unwrap(),
            ClientEvent::Predict {
                id: 4,
                time: 10,
                lane: Lane::Batch,
                deadline_ms: None,
                v2: false,
                trace: false,
            }
        );
        assert!(matches!(
            parse_event(r#"{"v":3,"event":"predict","id":4,"time":10}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"lane":"vip"}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"deadline_ms":0}"#),
            Err(TroutError::Parse(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"deadline_ms":"soon"}"#),
            Err(TroutError::Parse(_))
        ));

        let p = QueuePrediction {
            estimate: QueueEstimate::QuickStart,
            quick_proba: 0.9,
            calibrated_proba: 0.9,
            minutes: None,
            cutoff_min: 10.0,
            lane: Lane::Urgent,
        };
        let v2 = prediction_response(7, &p, true, None);
        assert_eq!(
            Json::parse(&v2).unwrap().get("lane"),
            Some(&Json::Str("urgent".into()))
        );
        let v1 = prediction_response(7, &p, false, None);
        assert_eq!(Json::parse(&v1).unwrap().get("lane"), None);
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let s = error_response(&TroutError::Overloaded { retry_after_ms: 40 });
        let parsed = Json::parse(&s).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("retry_after_ms"), Some(&Json::Int(40)));
        match parsed.get("error") {
            Some(Json::Str(msg)) => assert!(msg.starts_with("overloaded")),
            other => panic!("bad error member {other:?}"),
        }
    }

    #[test]
    fn predict_journal_lines_omit_default_lane() {
        assert_eq!(
            predict_line(3, 120, Lane::Normal),
            r#"{"event":"predict","id":3,"time":120}"#
        );
        assert_eq!(
            predict_line(3, 120, Lane::Urgent),
            r#"{"event":"predict","id":3,"time":120,"lane":"urgent"}"#
        );
    }

    #[test]
    fn trace_flag_requires_the_v2_envelope() {
        assert_eq!(
            parse_event(r#"{"v":2,"event":"predict","id":4,"time":10,"trace":true}"#).unwrap(),
            ClientEvent::Predict {
                id: 4,
                time: 10,
                lane: Lane::Normal,
                deadline_ms: None,
                v2: true,
                trace: true,
            }
        );
        // `"trace":false` is accepted anywhere (it requests nothing).
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"trace":false}"#).unwrap(),
            ClientEvent::Predict { trace: false, .. }
        ));
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"trace":true}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"v":2,"event":"predict","id":4,"time":10,"trace":"yes"}"#),
            Err(TroutError::Protocol(_))
        ));
    }

    #[test]
    fn trace_event_parses_with_default_and_explicit_last() {
        assert_eq!(
            parse_event(r#"{"event":"trace"}"#).unwrap(),
            ClientEvent::Trace {
                last: DEFAULT_TRACE_LAST
            }
        );
        assert_eq!(
            parse_event(r#"{"event":"trace","last":5}"#).unwrap(),
            ClientEvent::Trace { last: 5 }
        );
        assert!(matches!(
            parse_event(r#"{"event":"trace","last":0}"#),
            Err(TroutError::Parse(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"trace","last":"many"}"#),
            Err(TroutError::Parse(_))
        ));
    }

    #[test]
    fn traced_v2_response_echoes_the_trace_id_as_hex() {
        let p = QueuePrediction {
            estimate: QueueEstimate::Minutes(42.0),
            quick_proba: 0.2,
            calibrated_proba: 0.2,
            minutes: Some(42.0),
            cutoff_min: 10.0,
            lane: Lane::Normal,
        };
        let traced = prediction_response(9, &p, true, Some(0xfeed));
        assert_eq!(
            Json::parse(&traced).unwrap().get("trace_id"),
            Some(&Json::Str("000000000000feed".into())),
            "16 hex digits survive f64-JSON clients"
        );
        // Untraced v2 and v1 responses carry no trace_id at all.
        let v2 = prediction_response(9, &p, true, None);
        assert_eq!(Json::parse(&v2).unwrap().get("trace_id"), None);
        let v1 = prediction_response(9, &p, false, None);
        assert!(!v1.contains("trace_id"));
        assert_eq!(trace_id_str(u64::MAX), "ffffffffffffffff");
    }

    #[test]
    fn trace_response_lists_records_newest_layout() {
        let mut r = trout_obs::TraceRecord {
            trace_id: 0xab,
            lane: 0,
            end_us: 500,
            total_us: 120,
            stages: [10, 20, 5, 50, 25, 4, 6],
        };
        let line = trace_response(std::slice::from_ref(&r));
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(j.get("event"), Some(&Json::Str("trace".into())));
        assert_eq!(j.get("count"), Some(&Json::Int(1)));
        let t = match j.get("traces") {
            Some(Json::Arr(v)) => &v[0],
            other => panic!("bad traces member {other:?}"),
        };
        assert_eq!(
            t.get("trace_id"),
            Some(&Json::Str("00000000000000ab".into()))
        );
        assert_eq!(t.get("lane"), Some(&Json::Str("urgent".into())));
        assert_eq!(t.get("total_us"), Some(&Json::Int(120)));
        let stages = t.get("stages").expect("stages object");
        assert_eq!(stages.get("parse_us"), Some(&Json::Int(10)));
        assert_eq!(stages.get("serialize_us"), Some(&Json::Int(6)));
        // The stage tiling is exact: stages sum to the total by construction.
        r.stages = [30, 30, 30, 10, 10, 5, 5];
        r.total_us = r.stages.iter().sum();
        let j = Json::parse(&trace_response(&[r])).unwrap();
        let t = match j.get("traces") {
            Some(Json::Arr(v)) => &v[0],
            other => panic!("bad traces member {other:?}"),
        };
        assert_eq!(t.get("total_us"), Some(&Json::Int(120)));
    }
}
