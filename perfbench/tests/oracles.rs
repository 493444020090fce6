//! The correctness checks trip on a single corrupted response byte and on a
//! diverged state dump.

use perfbench::inputs;
use perfbench::net::{classify, Outcome};
use perfbench::oracle::{check_state, same_bytes, Reference};
use trout_core::Lane;
use trout_serve::protocol::state_dump_response;
use trout_std::json::Json;

/// A daemon-shaped state dump of `r`'s merged state.
fn dump(r: &Reference) -> String {
    let state = r.set.merged_state_to_json();
    state_dump_response(&r.set.journal_watermarks(), state)
}

#[test]
fn a_corrupted_predict_byte_is_a_mismatch() {
    let backlog = inputs::backlog(3, 60);
    let mut r = Reference::new(1, inputs::BOOTSTRAP_JOBS);
    for l in &backlog.lines {
        r.respond(l);
    }
    let line = inputs::predict_line(backlog.ids[7], backlog.query_time, Lane::Urgent);
    let want = r.respond(&line).into_bytes();
    assert!(
        want.starts_with(b"{\"ok\":true"),
        "{}",
        String::from_utf8_lossy(&want)
    );
    assert_eq!(classify(&want, &want), Outcome::Ok);
    for at in [0, want.len() / 3, want.len() / 2, want.len() - 1] {
        let mut bad = want.clone();
        bad[at] ^= 0x01;
        assert_eq!(
            classify(&bad, &want),
            Outcome::Mismatch,
            "flip at byte {at}"
        );
        let (bad, want) = (
            String::from_utf8_lossy(&bad),
            String::from_utf8_lossy(&want),
        );
        assert!(same_bytes("predict", &bad, &want).is_err());
    }
    // A shed is told apart from a wrong answer.
    let shed = b"{\"ok\":false,\"error\":\"overloaded: retry\",\"retry_after_ms\":3}";
    assert_eq!(classify(shed, &want), Outcome::Shed);
}

#[test]
fn a_diverged_state_dump_fails_the_state_check() {
    let lines = inputs::lifecycle_script(5, 40);
    let mut a = Reference::new(2, inputs::BOOTSTRAP_JOBS);
    let mut b = Reference::new(2, inputs::BOOTSTRAP_JOBS);
    for l in &lines[..lines.len() - 1] {
        assert_eq!(a.respond(l), b.respond(l));
    }
    check_state("identical", &dump(&a), &b.state()).expect("equal states pass");

    // One more event on one side only.
    b.respond(lines.last().unwrap());
    assert!(check_state("diverged", &dump(&a), &b.state()).is_err());

    // One flipped byte inside the state member.
    let good = dump(&a);
    let mut bytes = good.clone().into_bytes();
    let at = good.find("\"latest_time\":").unwrap() + "\"latest_time\":".len();
    bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
    let bad = String::from_utf8(bytes).unwrap();
    assert!(check_state("flipped", &bad, &a.state()).is_err());

    // Anything that is not a state dump fails too.
    let not_a_dump = Json::Obj(vec![("ok".into(), Json::Bool(true))]).to_string();
    assert!(check_state("garbage", &not_a_dump, &a.state()).is_err());
}
