//! Environment-variable parsing shared by every crate with tuning knobs.
//!
//! Before this module, each crate with a knob repeated the same
//! `std::env::var(..).ok().and_then(|v| v.parse().ok())` chain — and a
//! malformed value (`KV_SHARDS=two`) silently fell back to the default
//! with no trace. These helpers centralize the chain and make the failure
//! observable: every unparseable value bumps
//! [`crate::counters::env_malformed`] and logs one
//! warning line to stderr. Callers read knobs through process-lifetime
//! `OnceLock`s, so each site parses (and warns) at most once per process.
//!
//! Semantics, shared by all helpers:
//!
//! * unset variable → `None` (caller's default applies, silently);
//! * set but unparseable → `None` **plus** a counted, logged warning;
//! * set and valid → `Some(value)`.
//!
//! Zero/emptiness filtering stays at the call site (`KV_SHARDS=0` is
//! *rejected* by kv-service, while `KV_OP_RETRIES=0` is meaningful), so the
//! helpers only decide "parseable or not". `tests/knobs.rs` pins the set of
//! knobs the workspace reads, so a new one is added on purpose.

use crate::counters;

/// Looks up `name` and parses it as `usize`.
///
/// Returns `None` when unset; a set-but-malformed value also returns `None`
/// after counting and logging the rejection.
pub fn parse_usize(name: &str) -> Option<usize> {
    parse_raw(name, std::env::var(name).ok())
}

/// Looks up `name` and parses it as `u32` (same contract as
/// [`parse_usize`]).
pub fn parse_u32(name: &str) -> Option<u32> {
    parse_raw(name, std::env::var(name).ok())
}

/// Looks up `name` and parses it as `u64` (same contract as
/// [`parse_usize`]).
pub fn parse_u64(name: &str) -> Option<u64> {
    parse_raw(name, std::env::var(name).ok())
}

/// Looks up `name` as a boolean flag: `1`/`true`/`yes`/`on` are true,
/// `0`/`false`/`no`/`off` are false (ASCII case-insensitive). Unset or
/// malformed → `None` (malformed values are counted and logged).
pub fn parse_bool(name: &str) -> Option<bool> {
    parse_bool_raw(name, std::env::var(name).ok().as_deref())
}

/// Records one malformed value for `name`: bumps the
/// [`env_malformed`](crate::counters::env_malformed) counter and writes a
/// single warning line to stderr.
fn note_malformed(name: &str, raw: &str) {
    counters::incr_env_malformed();
    eprintln!("smr-common: ignoring malformed {name}={raw:?} (using default)");
}

/// Pure core of the numeric helpers, split out so tests can exercise the
/// malformed path without mutating the process environment.
fn parse_raw<T: std::str::FromStr>(name: &str, raw: Option<String>) -> Option<T> {
    let raw = raw?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            note_malformed(name, &raw);
            None
        }
    }
}

/// Pure core of [`parse_bool`].
fn parse_bool_raw(name: &str, raw: Option<&str>) -> Option<bool> {
    let raw = raw?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" => Some(false),
        _ => {
            note_malformed(name, raw);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters;

    #[test]
    fn unset_is_silent_none() {
        let _serial = counters::test_lock();
        let before = counters::env_malformed();
        assert_eq!(parse_raw::<usize>("SMR_ENV_TEST_UNSET", None), None);
        assert_eq!(parse_bool_raw("SMR_ENV_TEST_UNSET", None), None);
        assert_eq!(counters::env_malformed(), before, "unset must not warn");
    }

    #[test]
    fn valid_values_parse() {
        let _serial = counters::test_lock();
        let before = counters::env_malformed();
        assert_eq!(
            parse_raw::<usize>("SMR_ENV_TEST_OK", Some("128".into())),
            Some(128)
        );
        assert_eq!(
            parse_raw::<u64>("SMR_ENV_TEST_OK", Some(" 42 ".into())),
            Some(42),
            "surrounding whitespace is tolerated"
        );
        for (raw, want) in [
            ("1", true),
            ("true", true),
            ("YES", true),
            ("on", true),
            ("0", false),
            ("False", false),
            ("no", false),
            ("off", false),
        ] {
            assert_eq!(parse_bool_raw("SMR_ENV_TEST_OK", Some(raw)), Some(want));
        }
        assert_eq!(counters::env_malformed(), before);
    }

    #[test]
    fn malformed_values_fall_back_and_count() {
        let _serial = counters::test_lock();
        let before = counters::env_malformed();
        assert_eq!(
            parse_raw::<usize>("SMR_ENV_TEST_BAD", Some("two".into())),
            None
        );
        assert_eq!(
            parse_raw::<usize>("SMR_ENV_TEST_BAD", Some("-3".into())),
            None,
            "negative is malformed for unsigned knobs"
        );
        assert_eq!(
            parse_raw::<u32>("SMR_ENV_TEST_BAD", Some("1e6".into())),
            None
        );
        assert_eq!(parse_bool_raw("SMR_ENV_TEST_BAD", Some("maybe")), None);
        assert_eq!(
            counters::env_malformed() - before,
            4,
            "every malformed value is counted exactly once"
        );
    }
}
