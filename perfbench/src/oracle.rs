//! Correctness oracles, checked over the wire on every run.
//!
//! * Predict answers are byte-equal to an in-process reference fed the same
//!   lines. With no lifecycle traffic during the open loop the reference is
//!   a 1-shard set: the merged-N-shard == 1-shard oracle.
//! * State dumps (`{"event":"state"}`) are byte-equal to the reference's
//!   merged state. Lifecycle workloads refit, and each shard refits on the
//!   jobs it answered, so their reference runs the daemon's shard count.
//! * A recovered daemon's state equals the acknowledged pre-crash state,
//!   and a follower's dump equals its leader's at equal watermarks.

use trout_serve::{RouterSession, ShardSet};

use crate::inputs::serve_config;

/// An in-process shard set with one client session, answering exactly as
/// the daemon must.
pub struct Reference {
    pub set: ShardSet,
    session: RouterSession,
    out: Vec<u8>,
}

impl Reference {
    pub fn new(shards: usize, bootstrap: usize) -> Reference {
        Reference {
            set: ShardSet::bootstrap(shards, bootstrap, &serve_config()),
            session: RouterSession::new(shards, 32),
            out: Vec::new(),
        }
    }

    /// Applies one request line (flushing it at once, as a closed-loop
    /// client's line is) and returns the response without its newline.
    pub fn respond(&mut self, line: &str) -> String {
        self.out.clear();
        self.session
            .handle_line(&self.set, line, &mut self.out)
            .expect("reference session");
        self.session
            .flush(&self.set, &mut self.out)
            .expect("reference flush");
        let text = String::from_utf8(std::mem::take(&mut self.out)).expect("utf-8 response");
        text.trim_end_matches('\n').to_string()
    }

    /// The canonical merged state, as the daemon's state dump carries it.
    pub fn state(&self) -> String {
        self.set.merged_state_to_json().to_string()
    }
}

/// The `state` member of a state-dump response line.
pub fn state_member(resp: &str) -> Option<&str> {
    let at = resp.find("],\"state\":")? + "],\"state\":".len();
    resp.get(at..resp.len().checked_sub(1)?)
}

/// The per-shard watermarks of a state-dump or replication response.
pub fn watermarks(resp: &str) -> Vec<u64> {
    if let Some(at) = resp.find("\"watermarks\":[") {
        let rest = &resp[at + "\"watermarks\":[".len()..];
        let end = rest.find(']').unwrap_or(0);
        return rest[..end]
            .split(',')
            .filter_map(|v| v.trim().parse().ok())
            .collect();
    }
    resp.match_indices("\"watermark\":")
        .filter_map(|(i, k)| {
            let digits: String = resp[i + k.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse().ok()
        })
        .collect()
}

/// Byte comparison with a short description of the first difference.
pub fn same_bytes(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let ctx = |s: &str| {
        let lo = at.saturating_sub(40);
        let hi = (at + 40).min(s.len());
        String::from_utf8_lossy(&s.as_bytes()[lo..hi]).into_owned()
    };
    Err(format!(
        "{what}: differs at byte {at} (len {} vs {}): got …{}… want …{}…",
        got.len(),
        want.len(),
        ctx(got),
        ctx(want)
    ))
}

/// Checks a daemon's state-dump response against a reference state.
pub fn check_state(what: &str, dump: &str, want: &str) -> Result<(), String> {
    match state_member(dump) {
        Some(state) => same_bytes(what, state, want),
        None => Err(format!(
            "{what}: not a state dump: {}",
            &dump[..dump.len().min(120)]
        )),
    }
}
