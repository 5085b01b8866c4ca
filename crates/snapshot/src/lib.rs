//! Snapshot tests: every pinned output of the workspace is a reviewed
//! text file.
//!
//! A test renders what it pins as text, asserts every cross-run,
//! cross-thread or cross-scheduler equality render to render, and only
//! then hands one render to [`snapshot!`]. That compares it with
//! `tests/snapshots/<name>.txt` under the calling crate's manifest
//! directory: a missing or differing file fails the test, naming the file
//! and the first differing line. Under `NDP_BLESS=1` the file is rewritten
//! instead, so `git diff` on it is the record of what moved and why.

use std::fmt::{Debug, Write as _};
use std::path::Path;

/// Compares `$text` with `tests/snapshots/$name.txt` of the calling
/// crate, or rewrites that file under `NDP_BLESS=1`; see [`check`].
#[macro_export]
macro_rules! snapshot {
    ($name:expr, $text:expr) => {
        $crate::check(
            &::std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/snapshots")
                .join(format!("{}.txt", $name)),
            &$text,
        )
    };
}

/// Appends one `label value` line. The value renders as `{:?}`: an
/// integer in decimal, an `f64` as the shortest decimal that parses back
/// to the same bits, so equal text is equal bits (NaN payloads aside) and
/// a diff reads as numbers.
pub fn field(out: &mut String, label: &str, value: impl Debug) {
    writeln!(out, "{label} {value:?}").expect("writing to a String cannot fail");
}

/// Panics unless the file at `path` holds exactly `actual`. Under
/// `NDP_BLESS=1` it writes `actual` to `path` instead.
pub fn check(path: &Path, actual: &str) {
    let bless = std::env::var_os("NDP_BLESS").is_some_and(|v| v == "1");
    if let Err(msg) = compare_or_bless(path, actual, bless) {
        panic!("{msg}");
    }
}

fn compare_or_bless(path: &Path, actual: &str, bless: bool) -> Result<(), String> {
    let file = path.display();
    if bless {
        let dir = path.parent().expect("a snapshot path has a directory");
        return (std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, actual)))
            .map_err(|e| format!("cannot write snapshot {file}: {e}"));
    }
    let hint = "if the change is intended, rerun with NDP_BLESS=1 and review `git diff`";
    let want = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read snapshot {file} ({e}); {hint}"))?;
    let (old, new): (Vec<_>, Vec<_>) = (want.split('\n').collect(), actual.split('\n').collect());
    let Some(i) = (0..=old.len()).find(|&i| old.get(i) != new.get(i)) else {
        return Ok(());
    };
    let show = |l: Option<&&str>| l.map_or("end of file".into(), |l| format!("{l:?}"));
    Err(format!(
        "snapshot {file}:{} differs: the file has {}, the test rendered {}; {hint}",
        i + 1,
        show(old.get(i)),
        show(new.get(i)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh path per test: tests run on parallel threads.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ndp-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.txt"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn a_match_passes() {
        let path = scratch("match");
        compare_or_bless(&path, "events 7\nhash 0x1\n", true).unwrap();
        compare_or_bless(&path, "events 7\nhash 0x1\n", false).unwrap();
        check(&path, "events 7\nhash 0x1\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_mismatch_names_the_file_and_the_first_differing_line() {
        let path = scratch("mismatch");
        std::fs::write(&path, "events 7\nslowdown_p99 50.645\nmax 3.0\n").unwrap();
        let err =
            compare_or_bless(&path, "events 7\nslowdown_p99 41.014\nmax 4.0\n", false).unwrap_err();
        let at = format!("{}:2 differs", path.display());
        assert!(err.contains(&at), "{err}");
        assert!(err.contains("\"slowdown_p99 50.645\""), "{err}");
        assert!(err.contains("\"slowdown_p99 41.014\""), "{err}");
        // A lost final newline is a difference too.
        let err =
            compare_or_bless(&path, "events 7\nslowdown_p99 50.645\nmax 3.0", false).unwrap_err();
        assert!(err.contains(":4 differs"), "{err}");
        assert!(err.contains("end of file"), "{err}");
        // The file is left as it was.
        let kept = std::fs::read_to_string(&path).unwrap();
        assert_eq!(kept, "events 7\nslowdown_p99 50.645\nmax 3.0\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_missing_file_fails_unless_blessed_and_blessing_creates_it() {
        let path = scratch("missing");
        let err = compare_or_bless(&path, "events 7\n", false).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("NDP_BLESS=1"), "{err}");
        assert!(!path.exists());
        compare_or_bless(&path, "events 7\n", true).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "events 7\n");
        compare_or_bless(&path, "events 7\n", false).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// Every `f64` bit pattern the driven-point goldens pinned before they
    /// became snapshots, plus `-0.0` and subnormals.
    const PINNED_BITS: [u64; 21] = [
        4611824030160816999,
        4620629617180612678,
        4621937200914893078,
        4612670014946390874,
        4630969040309147930,
        4632432976271114702,
        4611598845037861532,
        4626543860177654799,
        4632728178421938169,
        4608401289199814449,
        4619431005883005135,
        4610271113481446388,
        4637312633157264829,
        4608108073390896582,
        4619092633409383127,
        4608595064750550288,
        4625867496205206118,
        4610159985166563816,
        4622803079807552291,
        4608897029761377956,
        4626416010889610840,
    ];

    #[test]
    fn an_f64_field_round_trips_to_the_same_bits() {
        let special = [
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
        ];
        let pinned = PINNED_BITS.map(f64::from_bits);
        for x in special.into_iter().chain(pinned) {
            let mut line = String::new();
            field(&mut line, "x", x);
            let text = line.strip_prefix("x ").unwrap().strip_suffix('\n').unwrap();
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e} rendered {text}");
        }
    }
}
