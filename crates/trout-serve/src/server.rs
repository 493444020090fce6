//! The blocking line loop: [`run_session`] over any reader/writer pair, and
//! [`run_stdin`], which serves stdin/stdout through it. (TCP is served by
//! the nonblocking [`reactor`](crate::reactor).)
//!
//! A session feeds a [`RouterSession`] against a [`ShardSet`]. Predict
//! requests are **micro-batched**: they queue until a non-predict line
//! arrives, the batch cap is hit, or the reader's buffer drains (no more
//! bytes ready — the client is waiting), then flush through one
//! `predict_batch` call per shard with queries routed by `hash(job_id) % N`.
//! Responses always come back in request order, one line per request.
//!
//! Every engine lock goes through the shard set's poison-recovering lock, so
//! a session that panicked while holding an engine does not take down the
//! sessions that come after it.

use std::io::{BufRead, BufReader, Read, Write};

use trout_core::TroutError;

use crate::protocol::line_text;
use crate::router::{Flow, RouterSession};
use crate::shard::ShardSet;

/// Hard ceiling on coalesced batch size when the caller passes 0.
pub(crate) const DEFAULT_BATCH_MAX: usize = 64;

/// Runs one client session to completion (EOF or `shutdown`). Returns the
/// number of request lines handled.
///
/// Lines are read as bytes and decoded with [`line_text`], so a line with
/// invalid UTF-8 is answered with a `parse` error like any other malformed
/// line. Responses collect in a session-owned buffer that is written to
/// `out` (and `out` flushed) whenever no window position is pending.
pub fn run_session<R: Read, W: Write>(
    shards: &ShardSet,
    input: R,
    mut out: W,
    batch_max: usize,
) -> Result<u64, TroutError> {
    let batch_max = if batch_max == 0 {
        DEFAULT_BATCH_MAX
    } else {
        batch_max
    };
    let mut reader = BufReader::new(input);
    let mut line = Vec::new();
    let mut wbuf = Vec::new();
    let mut session = RouterSession::new(shards.len(), batch_max);
    let mut handled = 0u64;
    let mut send = |wbuf: &mut Vec<u8>| -> std::io::Result<()> {
        out.write_all(wbuf)?;
        wbuf.clear();
        out.flush()
    };
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            session.flush(shards, &mut wbuf)?;
            send(&mut wbuf)?;
            break;
        }
        let text = line_text(&line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        handled += 1;
        match session.handle_line(shards, trimmed, &mut wbuf)? {
            Flow::Shutdown => {
                send(&mut wbuf)?;
                return Ok(handled);
            }
            Flow::Continue => {}
        }
        // Flush pending window positions (queued predicts and resolved
        // sheds) when the client has nothing further buffered and is
        // presumably waiting on the answers — the same drain rule the
        // reactor applies (DESIGN §12).
        if session.pending() > 0 && reader.buffer().is_empty() {
            session.flush(shards, &mut wbuf)?;
        }
        if session.pending() == 0 {
            send(&mut wbuf)?;
        }
    }
    Ok(handled)
}

/// Serves the shard set over stdin/stdout until EOF or `shutdown`, then
/// syncs any buffered journal appends (clean-shutdown durability for
/// relaxed fsync policies).
pub fn run_stdin(shards: ShardSet, batch_max: usize) -> Result<u64, TroutError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let handled = run_session(&shards, stdin.lock(), stdout.lock(), batch_max)?;
    shards.sync_journals()?;
    Ok(handled)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::ServeConfig;

    #[test]
    fn poisoned_engine_mutex_recovers_and_counts() {
        let shards = Arc::new(ShardSet::bootstrap(
            1,
            120,
            &ServeConfig {
                refit_every: 0,
                seed: 3,
                ..Default::default()
            },
        ));
        // Poison the mutex the way a crashing session would: panic while
        // holding the guard.
        let poisoner = Arc::clone(&shards);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shard(0).lock().unwrap();
            panic!("injected session panic");
        })
        .join();
        assert!(shards.shard(0).is_poisoned());

        // A subsequent session still gets served.
        let input = b"{\"event\":\"predict\",\"id\":5,\"time\":900}\n" as &[u8];
        let mut out = Vec::new();
        let handled = run_session(&shards, input, &mut out, 8).unwrap();
        assert_eq!(handled, 1);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "the query was answered");
        assert!(
            !shards.shard(0).is_poisoned(),
            "poison cleared on first recovery"
        );
        let guard = shards.lock(0);
        assert!(
            guard.metrics.errors_by_class[6].get() >= 1,
            "poison counted"
        );
    }
}
