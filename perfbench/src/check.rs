//! Output checks: every op's output digest and every exact count is
//! compared with the committed reference (default seed) or, at other
//! seeds, with its first occurrence in the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Where the committed reference lives, relative to the checkout root.
pub const REFERENCE_PATH: &str = "perfbench/reference.txt";

/// FNV-1a, 64-bit: a digest the benchmark owns, so references stay valid
/// whatever hashing the program itself uses.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Reads the committed reference: one `key value` pair per line, `#`
/// comments ignored.
pub fn load_reference(root: &Path) -> Result<BTreeMap<String, String>, String> {
    let path = root.join(REFERENCE_PATH);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut map = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (k, v) = line
            .split_once(' ')
            .ok_or_else(|| format!("{}: malformed line `{line}`", path.display()))?;
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

/// Tallies checked ops and remembers what each key produced.
pub struct Checker {
    /// The committed values; `None` away from the default seed (and while
    /// writing a new reference).
    reference: Option<BTreeMap<String, String>>,
    /// Each key's first value in this run.
    seen: BTreeMap<String, String>,
    /// Ops checked.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// Failure messages, one per failed op or count.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker comparing against `reference` when given.
    pub fn new(reference: Option<BTreeMap<String, String>>) -> Checker {
        Checker {
            reference,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Checks one op: `ok` is its own verdict (exit status, error text),
    /// `value` its output digest under `key`. Returns whether it passed.
    pub fn op(&mut self, key: &str, ok: Result<(), String>, value: &str) -> bool {
        self.attempted += 1;
        let verdict = ok.and_then(|()| self.compare(key, value));
        if let Err(e) = &verdict {
            self.failed += 1;
            self.failures.push(format!("{key}: {e}"));
        }
        verdict.is_ok()
    }

    /// Checks an exact count (not an op).
    pub fn count(&mut self, key: &str, value: u64) {
        if let Err(e) = self.compare(key, &value.to_string()) {
            self.failures.push(format!("{key}: {e}"));
        }
    }

    /// Records a failure that is not tied to one op's output.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn compare(&mut self, key: &str, value: &str) -> Result<(), String> {
        if let Some(reference) = &self.reference {
            match reference.get(key) {
                Some(want) if want == value => {}
                Some(want) => return Err(format!("got {value}, reference has {want}")),
                None => return Err(format!("got {value}, reference has no entry")),
            }
        }
        match self.seen.get(key) {
            Some(first) if first != value => {
                Err(format!("got {value}, first occurrence had {first}"))
            }
            Some(_) => Ok(()),
            None => {
                self.seen.insert(key.to_string(), value.to_string());
                Ok(())
            }
        }
    }

    /// Everything seen, as reference-file text.
    pub fn reference_text(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        for (k, v) in &self.seen {
            let _ = writeln!(out, "{k} {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrence_pins_later_ones() {
        let mut c = Checker::new(None);
        assert!(c.op("a", Ok(()), "1"));
        assert!(c.op("a", Ok(()), "1"));
        assert!(!c.op("a", Ok(()), "2"));
        assert!(!c.op("b", Err("exit 1".into()), "1"));
        assert_eq!((c.attempted, c.failed), (4, 2));
    }

    #[test]
    fn the_reference_wins_when_present() {
        let reference = BTreeMap::from([("a".to_string(), "1".to_string())]);
        let mut c = Checker::new(Some(reference));
        assert!(c.op("a", Ok(()), "1"));
        assert!(!c.op("b", Ok(()), "1"));
        c.count("a", 2);
        assert_eq!(c.failures.len(), 2);
    }
}
