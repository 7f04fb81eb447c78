//! Output checks: reply scanning, plan invariants, bit-identity against a
//! local solve, and freshness of served plans after acknowledged writes.
//!
//! Replies are scanned by hand (no JSON library of the program under test
//! on the timed path), so a change to the program's parser or renderer
//! cannot also change how its output is judged.

use std::fmt;

/// Why a run failed.
#[derive(Debug)]
pub enum Failure {
    /// The program produced a wrong output: exit code 1.
    Mismatch(String),
    /// The benchmark could not drive the program (I/O, spawn): exit code 2.
    Io(String),
}

impl Failure {
    pub fn exit_code(&self) -> i32 {
        match self {
            Failure::Mismatch(_) => 1,
            Failure::Io(_) => 2,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Mismatch(m) => write!(f, "output mismatch: {m}"),
            Failure::Io(m) => write!(f, "benchmark error: {m}"),
        }
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Io(e.to_string())
    }
}

pub fn mismatch(msg: impl Into<String>) -> Failure {
    Failure::Mismatch(msg.into())
}

/// The raw value of `"key":` in a one-line JSON object: an array with its
/// brackets, a string without its quotes, or a scalar. Keys are matched on
/// first occurrence, which for the replies scanned here is the envelope's.
pub fn field<'a>(line: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let pat_len = key.len() + 3;
    let at = line.windows(pat_len).position(|w| {
        w[0] == b'"'
            && &w[1..=key.len()] == key.as_bytes()
            && w[key.len() + 1] == b'"'
            && w[key.len() + 2] == b':'
    })?;
    let rest = &line[at + pat_len..];
    match rest.first()? {
        b'[' => rest.iter().position(|&b| b == b']').map(|e| &rest[..=e]),
        b'"' => rest[1..]
            .iter()
            .position(|&b| b == b'"')
            .map(|e| &rest[1..=e]),
        _ => Some(
            &rest[..rest
                .iter()
                .position(|&b| b == b',' || b == b'}')
                .unwrap_or(rest.len())],
        ),
    }
}

fn text(v: &[u8]) -> &str {
    std::str::from_utf8(v).unwrap_or("")
}

pub fn field_u64(line: &[u8], key: &str) -> Option<u64> {
    text(field(line, key)?).parse().ok()
}

pub fn field_str<'a>(line: &'a [u8], key: &str) -> Option<&'a str> {
    std::str::from_utf8(field(line, key)?).ok()
}

/// Whether a reply is `ok`; an error reply becomes `Err(code)`.
pub fn reply_ok(line: &[u8]) -> Result<(), String> {
    match field(line, "ok") {
        Some(b"true") => Ok(()),
        _ => Err(field_str(line, "error")
            .unwrap_or("malformed reply")
            .to_owned()),
    }
}

/// A scanned `partition` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReply {
    pub counts: Vec<u64>,
    pub makespan: f64,
    pub fingerprint: String,
}

/// Scans an ok `partition` reply: its counts, makespan and fingerprint.
pub fn scan_plan(line: &[u8]) -> Result<PlanReply, Failure> {
    let bad = || {
        mismatch(format!(
            "unscannable partition reply: {}",
            String::from_utf8_lossy(line)
        ))
    };
    let counts = field(line, "counts").ok_or_else(bad)?;
    let counts = text(&counts[1..counts.len() - 1])
        .split(',')
        .map(str::parse)
        .collect::<Result<Vec<u64>, _>>()
        .map_err(|_| bad())?;
    let makespan = field_str(line, "makespan")
        .and_then(|m| m.parse().ok())
        .ok_or_else(bad)?;
    let fingerprint = field_str(line, "fingerprint").ok_or_else(bad)?.to_owned();
    Ok(PlanReply {
        counts,
        makespan,
        fingerprint,
    })
}

/// Every plan has one count per machine, and the counts sum to `n`.
pub fn check_plan(counts: &[u64], machines: usize, n: u64) -> Result<(), Failure> {
    if counts.len() != machines {
        return Err(mismatch(format!(
            "plan has {} counts for {machines} machines",
            counts.len()
        )));
    }
    let total: u64 = counts.iter().sum();
    if total != n {
        return Err(mismatch(format!(
            "plan places {total} elements, expected n = {n}"
        )));
    }
    Ok(())
}

/// A plan must equal the reference plan bit for bit (counts and makespan).
pub fn check_same(what: &str, got: (&[u64], f64), want: (&[u64], f64)) -> Result<(), Failure> {
    if got.0 != want.0 || got.1.to_bits() != want.1.to_bits() {
        let moved = got.0.iter().zip(want.0).filter(|(a, b)| a != b).count();
        return Err(mismatch(format!(
            "{what}: plan differs from the reference solve ({moved} machines differ, makespan {} vs {})",
            got.1, want.1
        )));
    }
    Ok(())
}

/// After an acknowledged write, a reply on the writing connection must come
/// from the state that write produced.
pub fn check_fresh(cluster: &str, got_fp: &str, acked_fp: &str) -> Result<(), Failure> {
    if got_fp != acked_fp {
        return Err(mismatch(format!(
            "cluster {cluster}: served fingerprint {got_fp} after a write acknowledged {acked_fp}"
        )));
    }
    Ok(())
}

/// FNV-1a over a plan's counts and makespan bits: lets a run keep a
/// sampled reply in 8 bytes and compare it after the timed rounds.
pub fn plan_hash(counts: &[u64], makespan: f64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in counts.iter().copied().chain([makespan.to_bits()]) {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &[u8] = br#"{"id":7,"ok":true,"verb":"partition","counts":[40,35,25],"makespan":0.3125,"steps":9,"cached":true,"algorithm":"combined","fingerprint":"00ab12cd34ef5678"}"#;

    #[test]
    fn scans_fields_of_one_line_replies() {
        assert_eq!(field_u64(REPLY, "id"), Some(7));
        assert_eq!(field(REPLY, "cached"), Some(&b"true"[..]));
        assert_eq!(field_str(REPLY, "algorithm"), Some("combined"));
        assert_eq!(field(REPLY, "missing"), None);
        assert!(reply_ok(REPLY).is_ok());
        let err = br#"{"id":3,"ok":false,"error":"overloaded","message":"queue full"}"#;
        assert_eq!(reply_ok(err), Err("overloaded".to_owned()));
        let plan = scan_plan(REPLY).unwrap();
        assert_eq!(plan.counts, [40, 35, 25]);
        assert_eq!(plan.makespan, 0.3125);
        assert_eq!(plan.fingerprint, "00ab12cd34ef5678");
    }

    #[test]
    fn a_tampered_reply_fails_with_a_nonzero_exit() {
        // One element moved between machines: length and sum still hold,
        // so only the comparison against the reference solve catches it.
        let tampered = String::from_utf8(REPLY.to_vec())
            .unwrap()
            .replace("[40,35,25]", "[39,36,25]");
        let plan = scan_plan(tampered.as_bytes()).unwrap();
        check_plan(&plan.counts, 3, 100).unwrap();
        let reference = (&[40u64, 35, 25][..], 0.3125);
        let err = check_same("tampered", (&plan.counts, plan.makespan), reference).unwrap_err();
        assert!(matches!(err, Failure::Mismatch(_)), "{err}");
        assert_ne!(err.exit_code(), 0);
        assert_ne!(
            plan_hash(&plan.counts, plan.makespan),
            plan_hash(reference.0, reference.1)
        );
        // A single flipped makespan bit is caught too.
        let bumped = f64::from_bits(0.3125f64.to_bits() + 1);
        assert!(check_same("ulp", (reference.0, bumped), reference).is_err());
    }

    #[test]
    fn a_stale_fingerprint_fails_with_a_nonzero_exit() {
        let err = check_fresh("churn-1", "00ab12cd34ef5678", "ffff000011112222").unwrap_err();
        assert_ne!(err.exit_code(), 0);
        assert!(check_fresh("churn-1", "ffff000011112222", "ffff000011112222").is_ok());
    }

    #[test]
    fn plan_invariants() {
        assert!(check_plan(&[1, 2, 3], 3, 6).is_ok());
        assert!(
            check_plan(&[1, 2, 3], 4, 6).is_err(),
            "one count per machine"
        );
        assert!(check_plan(&[1, 2, 3], 3, 7).is_err(), "counts sum to n");
    }
}
